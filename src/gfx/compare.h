// Row-span pixel kernels shared by the compositor, the content-rate meter,
// and tests.
//
// Every pixel loop on the simulator's hot path -- blit clipping, region
// equality, changed-pixel detection, grid-sample gathering -- bottoms out in
// one of these kernels.  They operate on raw row-major Rgb888 storage
// (base pointer + stride) so Framebuffer, Surface buffers, and sample
// vectors all share the same code: Rgb888 is three packed bytes with
// defaulted comparison, so byte equality is exactly pixel equality, and
// whole-row memcmp/memcpy already runs at memory bandwidth.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>

#include "gfx/geometry.h"
#include "gfx/pixel.h"

namespace ccdem::gfx::kernels {

/// A fully clipped copy: `size` pixels read from `src` and written at `dst`
/// (both are top-left origins in their respective buffers).  Empty when the
/// requested rectangle fell entirely outside either buffer.
struct CopyWindow {
  Point src;
  Point dst;
  Size size;

  [[nodiscard]] constexpr bool empty() const { return size.empty(); }
};

/// Clips a blit request (`src_rect` from a buffer with `src_bounds`, placed
/// at `dst` in a buffer with `dst_bounds`) against both buffers, shifting
/// the source window to match whatever the destination clip cut off.  The
/// single source of truth for blit clipping.
[[nodiscard]] constexpr CopyWindow clip_copy(Rect src_rect, Rect src_bounds,
                                             Point dst, Rect dst_bounds) {
  const Rect s = src_rect.intersect(src_bounds);
  if (s.empty()) return {};
  // Dropping clipped-off source margins moves the destination origin too.
  const Rect placed{dst.x + (s.x - src_rect.x), dst.y + (s.y - src_rect.y),
                    s.width, s.height};
  const Rect d = placed.intersect(dst_bounds);
  if (d.empty()) return {};
  // And clipping the destination trims the matching source margin back.
  return CopyWindow{Point{s.x + (d.x - placed.x), s.y + (d.y - placed.y)},
                    Point{d.x, d.y}, Size{d.width, d.height}};
}

/// Position of the first differing pixel (row-major order) of rect `r`
/// between two same-stride buffers, or found == false if the rect matches.
struct FirstDiff {
  bool found = false;
  Point at;
};

/// Copies the window row by row.  No clipping: the window must already be
/// valid for both buffers (clip_copy guarantees this).
inline void copy_rows(Rgb888* dst_base, int dst_stride, const Rgb888* src_base,
                      int src_stride, const CopyWindow& w) {
  const std::size_t bytes =
      static_cast<std::size_t>(w.size.width) * sizeof(Rgb888);
  for (int row = 0; row < w.size.height; ++row) {
    std::memcpy(dst_base +
                    static_cast<std::size_t>(w.dst.y + row) * dst_stride +
                    w.dst.x,
                src_base +
                    static_cast<std::size_t>(w.src.y + row) * src_stride +
                    w.src.x,
                bytes);
  }
}

/// True iff the pixels of rect `r` match between two buffers that share one
/// stride (the same-size case: both rects at the same coordinates).  Returns
/// on the first differing row.  No clipping; `r` must be in bounds.
[[nodiscard]] inline bool rows_equal(const Rgb888* a, const Rgb888* b,
                                     int stride, Rect r) {
  const std::size_t bytes =
      static_cast<std::size_t>(r.width) * sizeof(Rgb888);
  for (int y = r.y; y < r.bottom(); ++y) {
    const std::size_t off = static_cast<std::size_t>(y) * stride + r.x;
    if (std::memcmp(a + off, b + off, bytes) != 0) return false;
  }
  return true;
}

/// True iff rect `a_rect` of buffer `a` matches the same-sized window of
/// buffer `b` whose top-left is `b_origin` -- the offset case (a surface's
/// local pixels against their on-screen position).  No clipping.
[[nodiscard]] inline bool rows_equal_offset(const Rgb888* a, int a_stride,
                                            Rect a_rect, const Rgb888* b,
                                            int b_stride, Point b_origin) {
  const std::size_t bytes =
      static_cast<std::size_t>(a_rect.width) * sizeof(Rgb888);
  for (int row = 0; row < a_rect.height; ++row) {
    const Rgb888* pa =
        a + static_cast<std::size_t>(a_rect.y + row) * a_stride + a_rect.x;
    const Rgb888* pb =
        b + static_cast<std::size_t>(b_origin.y + row) * b_stride + b_origin.x;
    if (std::memcmp(pa, pb, bytes) != 0) return false;
  }
  return true;
}

/// Rows are screened with memcmp; only a differing row is scanned per pixel.
[[nodiscard]] inline FirstDiff first_diff(const Rgb888* a, const Rgb888* b,
                                          int stride, Rect r) {
  const std::size_t bytes =
      static_cast<std::size_t>(r.width) * sizeof(Rgb888);
  for (int y = r.y; y < r.bottom(); ++y) {
    const std::size_t off = static_cast<std::size_t>(y) * stride + r.x;
    if (std::memcmp(a + off, b + off, bytes) == 0) continue;
    for (int x = 0; x < r.width; ++x) {
      if (a[off + x] != b[off + x]) return {true, Point{r.x + x, y}};
    }
  }
  return {};
}

/// Gathers the pixels at linear offsets `idx` of `px` into `out`.
inline void gather(std::span<const Rgb888> px,
                   std::span<const std::size_t> idx, Rgb888* out) {
  for (std::size_t k = 0; k < idx.size(); ++k) out[k] = px[idx[k]];
}

// Read only by perfbench/; removed with the BENCHMARK.json per_layer
// follow-up.  There is one kernel set, so the override is a no-op.
struct KernelOps {
  const char* name;
};
[[nodiscard]] inline const KernelOps& scalar_kernels() {
  static constexpr KernelOps kScalar{"scalar"};
  return kScalar;
}
[[nodiscard]] inline const KernelOps& active_kernels() {
  return scalar_kernels();
}
struct ScopedKernelOverride {
  explicit ScopedKernelOverride(const KernelOps&) {}
};

}  // namespace ccdem::gfx::kernels
