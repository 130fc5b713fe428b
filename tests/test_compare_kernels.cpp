// The row-span kernels of gfx/compare.h are the single implementation of
// blit clipping, region equality, and change scanning on the hot path; these
// tests pin them against brute-force per-pixel references.
#include "gfx/compare.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gfx/framebuffer.h"
#include "sim/rng.h"

namespace ccdem::gfx {
namespace {

Framebuffer random_fb(int w, int h, sim::Rng& rng) {
  Framebuffer fb(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.set(x, y,
             Rgb888::from_packed(static_cast<std::uint32_t>(rng.next_u64())));
    }
  }
  return fb;
}

Rect random_rect(sim::Rng& rng, int max_coord, int max_extent) {
  return Rect{static_cast<int>(rng.uniform_int(-max_extent, max_coord)),
              static_cast<int>(rng.uniform_int(-max_extent, max_coord)),
              static_cast<int>(rng.uniform_int(0, max_extent)),
              static_cast<int>(rng.uniform_int(0, max_extent))};
}

TEST(ClipCopy, MatchesManualClipOnRandomRects) {
  sim::Rng rng(7);
  const Rect src_bounds{0, 0, 50, 40};
  const Rect dst_bounds{0, 0, 37, 61};
  for (int trial = 0; trial < 2000; ++trial) {
    const Rect src_rect = random_rect(rng, 60, 30);
    const Point dst{static_cast<int>(rng.uniform_int(-20, 60)),
                    static_cast<int>(rng.uniform_int(-20, 60))};
    const kernels::CopyWindow w =
        kernels::clip_copy(src_rect, src_bounds, dst, dst_bounds);
    // Reference: a (src, dst) pixel pair is copied iff the source pixel is
    // inside both the request and the source buffer, and its destination
    // lands inside the destination buffer.
    std::int64_t expected = 0;
    for (int y = src_rect.y; y < src_rect.bottom(); ++y) {
      for (int x = src_rect.x; x < src_rect.right(); ++x) {
        const Point d{dst.x + (x - src_rect.x), dst.y + (y - src_rect.y)};
        if (src_bounds.contains(Point{x, y}) && dst_bounds.contains(d)) {
          ++expected;
          ASSERT_FALSE(w.empty());
          const Rect src_win{w.src.x, w.src.y, w.size.width, w.size.height};
          const Rect dst_win{w.dst.x, w.dst.y, w.size.width, w.size.height};
          ASSERT_TRUE(src_win.contains(Point{x, y}));
          ASSERT_TRUE(dst_win.contains(d));
        }
      }
    }
    ASSERT_EQ(w.size.area(), expected) << "trial " << trial;
    if (!w.empty()) {
      // The window's src->dst offset must match the request's offset.
      ASSERT_EQ(w.dst.x - w.src.x, dst.x - src_rect.x);
      ASSERT_EQ(w.dst.y - w.src.y, dst.y - src_rect.y);
    }
  }
}

TEST(RowsEqual, DetectsEveryPixelPosition) {
  sim::Rng rng(11);
  const Framebuffer a = random_fb(33, 17, rng);
  Framebuffer b = a;
  const Rect r{5, 3, 20, 10};
  ASSERT_TRUE(
      kernels::rows_equal(a.pixels().data(), b.pixels().data(), a.width(), r));
  for (int trial = 0; trial < 200; ++trial) {
    const int x = static_cast<int>(rng.uniform_int(0, 32));
    const int y = static_cast<int>(rng.uniform_int(0, 16));
    Framebuffer c = a;
    c.set(x, y, Rgb888{1, 2, 3} == a.at(x, y) ? Rgb888{4, 5, 6}
                                              : Rgb888{1, 2, 3});
    const bool inside = r.contains(Point{x, y});
    ASSERT_EQ(kernels::rows_equal(a.pixels().data(), c.pixels().data(),
                                  a.width(), r),
              !inside)
        << "pixel (" << x << ", " << y << ")";
  }
}

TEST(RowsEqualOffset, MatchesTranslatedWindow) {
  sim::Rng rng(13);
  const Framebuffer big = random_fb(60, 50, rng);
  // Carve a window out of `big` into a smaller buffer, then compare the
  // small buffer against its source position (equal) and a shifted one.
  Framebuffer small(20, 15);
  small.blit(big, Rect{7, 9, 20, 15}, Point{0, 0});
  EXPECT_TRUE(kernels::rows_equal_offset(
      small.pixels().data(), small.width(), Rect{0, 0, 20, 15},
      big.pixels().data(), big.width(), Point{7, 9}));
  EXPECT_FALSE(kernels::rows_equal_offset(
      small.pixels().data(), small.width(), Rect{0, 0, 20, 15},
      big.pixels().data(), big.width(), Point{8, 9}));
  // Sub-rect of the window against the matching sub-position.
  EXPECT_TRUE(kernels::rows_equal_offset(
      small.pixels().data(), small.width(), Rect{4, 2, 10, 8},
      big.pixels().data(), big.width(), Point{11, 11}));
}

TEST(FirstDiff, FindsRowMajorFirstDifference) {
  sim::Rng rng(17);
  const Framebuffer a = random_fb(40, 30, rng);
  const Rect r{3, 2, 30, 25};
  Framebuffer b = a;
  EXPECT_FALSE(
      kernels::first_diff(a.pixels().data(), b.pixels().data(), a.width(), r)
          .found);
  // Two differences; the row-major earlier one must win.
  b.set(20, 10, Rgb888{9, 9, 9});
  b.set(5, 10, Rgb888{9, 9, 9});
  b.set(30, 20, Rgb888{9, 9, 9});
  const kernels::FirstDiff d =
      kernels::first_diff(a.pixels().data(), b.pixels().data(), a.width(), r);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.at, (Point{5, 10}));
}

TEST(Gather, PullsScatteredIndices) {
  sim::Rng rng(19);
  const Framebuffer fb = random_fb(25, 25, rng);
  std::vector<std::size_t> idx;
  for (int trial = 0; trial < 64; ++trial) {
    idx.push_back(static_cast<std::size_t>(rng.uniform_int(0, 25 * 25 - 1)));
  }
  std::vector<Rgb888> out(idx.size());
  kernels::gather(fb.pixels(), idx, out.data());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    EXPECT_EQ(out[k], fb.pixels()[idx[k]]);
  }
}

TEST(FramebufferBlit, StillClipsLikeTheReference) {
  // Framebuffer::blit now routes through clip_copy/copy_rows; pin the
  // clipped behaviour on awkward windows (negative dst, oversized src).
  sim::Rng rng(23);
  const Framebuffer src = random_fb(30, 20, rng);
  for (int trial = 0; trial < 500; ++trial) {
    Framebuffer dst(25, 25, colors::kGray);
    Framebuffer ref = dst;
    const Rect src_rect = random_rect(rng, 35, 25);
    const Point at{static_cast<int>(rng.uniform_int(-10, 30)),
                   static_cast<int>(rng.uniform_int(-10, 30))};
    dst.blit(src, src_rect, at);
    for (int y = src_rect.y; y < src_rect.bottom(); ++y) {
      for (int x = src_rect.x; x < src_rect.right(); ++x) {
        if (x < 0 || y < 0 || x >= src.width() || y >= src.height()) continue;
        const Point d{at.x + (x - src_rect.x), at.y + (y - src_rect.y)};
        if (d.x < 0 || d.y < 0 || d.x >= ref.width() || d.y >= ref.height()) {
          continue;
        }
        ref.set(d.x, d.y, src.at(x, y));
      }
    }
    ASSERT_TRUE(dst.equals(ref)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ccdem::gfx
