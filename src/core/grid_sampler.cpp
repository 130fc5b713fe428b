#include "core/grid_sampler.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "gfx/compare.h"

namespace ccdem::core {

std::string GridSpec::label() const {
  const std::int64_t n = sample_count();
  if (n >= 1000) {
    return std::to_string(n / 1000) + "K (" + std::to_string(cols) + "x" +
           std::to_string(rows) + ")";
  }
  return std::to_string(n) + " (" + std::to_string(cols) + "x" +
         std::to_string(rows) + ")";
}

namespace {
constexpr std::pair<const char*, GridSpec> kGridKeywords[] = {
    {"2k", GridSpec::grid_2k()},
    {"4k", GridSpec::grid_4k()},
    {"9k", GridSpec::grid_9k()},
    {"36k", GridSpec::grid_36k()},
    {"full", GridSpec::full_720p()},
};
}  // namespace

std::optional<GridSpec> GridSpec::from_keyword(std::string_view keyword) {
  for (const auto& [k, grid] : kGridKeywords) {
    if (keyword == k) return grid;
  }
  return std::nullopt;
}

const char* GridSpec::keyword() const {
  for (const auto& [k, grid] : kGridKeywords) {
    if (grid.sample_count() == sample_count()) return k;
  }
  return "full";
}

std::vector<GridSpec> GridSpec::figure6_sweep() {
  return {grid_2k(), grid_4k(), grid_9k(), grid_36k(), full_720p()};
}

GridSampler::GridSampler(gfx::Size screen, GridSpec grid)
    : screen_(screen), grid_(grid) {
  assert(!screen.empty());
  assert(grid.cols > 0 && grid.rows > 0);
  assert(grid.cols <= screen.width && grid.rows <= screen.height);
  points_.reserve(static_cast<std::size_t>(grid.cols) * grid.rows);
  flat_index_.reserve(points_.capacity());
  // Centre pixel of each grid cell.  Cell (i, j) spans
  // [i*W/cols, (i+1)*W/cols) x [j*H/rows, (j+1)*H/rows); we take the middle.
  // The per-axis centres are strictly increasing in the cell index, which is
  // what lets index_range() binary-search them.
  center_xs_.reserve(static_cast<std::size_t>(grid.cols));
  center_ys_.reserve(static_cast<std::size_t>(grid.rows));
  for (int i = 0; i < grid.cols; ++i) {
    const int x0 = static_cast<int>(
        static_cast<std::int64_t>(i) * screen.width / grid.cols);
    const int x1 = static_cast<int>(
        static_cast<std::int64_t>(i + 1) * screen.width / grid.cols);
    center_xs_.push_back((x0 + x1) / 2);
  }
  for (int j = 0; j < grid.rows; ++j) {
    const int y0 = static_cast<int>(
        static_cast<std::int64_t>(j) * screen.height / grid.rows);
    const int y1 = static_cast<int>(
        static_cast<std::int64_t>(j + 1) * screen.height / grid.rows);
    center_ys_.push_back((y0 + y1) / 2);
  }
  for (const int y : center_ys_) {
    for (const int x : center_xs_) {
      points_.push_back({x, y});
      flat_index_.push_back(static_cast<std::size_t>(y) * screen.width + x);
    }
  }
}

void GridSampler::sample(const gfx::Framebuffer& fb,
                         std::vector<gfx::Rgb888>& out) const {
  assert(fb.size() == screen_);
  out.resize(flat_index_.size());
  gfx::kernels::gather(fb.pixels(), flat_index_, out.data());
}

GridSampler::IndexRange GridSampler::index_range(gfx::Rect r) const {
  const gfx::Rect c = r.intersect(gfx::Rect::of(screen_));
  if (c.empty()) return {};
  IndexRange range;
  // Half-open on both axes, matching the rect: centres in [x, right).
  range.col_begin = static_cast<int>(
      std::lower_bound(center_xs_.begin(), center_xs_.end(), c.x) -
      center_xs_.begin());
  range.col_end = static_cast<int>(
      std::lower_bound(center_xs_.begin(), center_xs_.end(), c.right()) -
      center_xs_.begin());
  range.row_begin = static_cast<int>(
      std::lower_bound(center_ys_.begin(), center_ys_.end(), c.y) -
      center_ys_.begin());
  range.row_end = static_cast<int>(
      std::lower_bound(center_ys_.begin(), center_ys_.end(), c.bottom()) -
      center_ys_.begin());
  return range;
}

GridSampler::ScanResult GridSampler::update_in_rect(
    const gfx::Framebuffer& fb, gfx::Rect r,
    std::vector<gfx::Rgb888>& retained) const {
  assert(fb.size() == screen_);
  assert(retained.size() == flat_index_.size());
  const IndexRange range = index_range(r);
  ScanResult result;
  if (range.empty()) return result;
  const auto px = fb.pixels();
  // No early exit: every covered point must refresh the retained snapshot,
  // so the differ check rides along for free.
  for (int j = range.row_begin; j < range.row_end; ++j) {
    const std::size_t row_base =
        static_cast<std::size_t>(j) * grid_.cols;
    for (int i = range.col_begin; i < range.col_end; ++i) {
      const std::size_t k = row_base + i;
      const gfx::Rgb888 fresh = px[flat_index_[k]];
      result.differed |= fresh != retained[k];
      retained[k] = fresh;
    }
  }
  result.compared = range.count();
  return result;
}

GridSampler::ScanResult GridSampler::compare_in_rect(
    const gfx::Framebuffer& fb, const gfx::Framebuffer& prev,
    gfx::Rect r) const {
  assert(fb.size() == screen_);
  assert(prev.size() == screen_);
  const IndexRange range = index_range(r);
  ScanResult result;
  if (range.empty()) return result;
  const auto cur_px = fb.pixels();
  const auto prev_px = prev.pixels();
  for (int j = range.row_begin; j < range.row_end; ++j) {
    const std::size_t row_base =
        static_cast<std::size_t>(j) * grid_.cols;
    for (int i = range.col_begin; i < range.col_end; ++i) {
      const std::size_t k = flat_index_[row_base + i];
      result.differed |= cur_px[k] != prev_px[k];
    }
  }
  result.compared = range.count();
  return result;
}

bool GridSampler::differs(const gfx::Framebuffer& fb,
                          const std::vector<gfx::Rgb888>& prev) const {
  assert(fb.size() == screen_);
  assert(prev.size() == flat_index_.size());
  const auto px = fb.pixels();
  for (std::size_t k = 0; k < flat_index_.size(); ++k) {
    if (px[flat_index_[k]] != prev[k]) return true;
  }
  return false;
}

}  // namespace ccdem::core
