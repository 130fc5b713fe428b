// Per-tile content-hash cache backing SurfaceFlinger's compose memoization.
//
// The screen is cut into 64x64 screen-space tiles (edge tiles clipped).  For
// each tile the cache remembers a 64-bit hash of the tile's content in the
// screen buffer, which the flinger composes in place, so a surface rect
// whose hash matches the cached tile hash is *probably* already on screen; the flinger re-verifies the bytes before skipping the
// write, which keeps correctness independent of hash uniqueness (a collision
// costs one extra compare and is counted, never trusted).
//
// CCDEM_MEMO_COLLIDE=1 (read at construction) degrades the hash to a
// constant so every lookup collides -- the DST injection hook proving that
// colliding tiles are still detected as changed through the verify path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "gfx/geometry.h"
#include "gfx/hash.h"
#include "gfx/pixel.h"

namespace ccdem::gfx {

class TileCache {
 public:
  static constexpr int kTileSize = 64;

  explicit TileCache(Size screen)
      : screen_(screen),
        tiles_x_((screen.width + kTileSize - 1) / kTileSize),
        tiles_y_((screen.height + kTileSize - 1) / kTileSize),
        hash_(static_cast<std::size_t>(tiles_x_) * tiles_y_, 0),
        valid_(hash_.size(), 0) {
    const char* collide = std::getenv("CCDEM_MEMO_COLLIDE");
    force_collisions_ = collide != nullptr && collide[0] == '1';
  }

  [[nodiscard]] int tiles_x() const { return tiles_x_; }
  [[nodiscard]] int tiles_y() const { return tiles_y_; }
  [[nodiscard]] bool force_collisions() const { return force_collisions_; }

  /// Screen-space rect of tile (tx, ty), clipped to the screen -- edge tiles
  /// are narrower/shorter, and "full tile" below means this clipped rect.
  [[nodiscard]] Rect tile_rect(int tx, int ty) const {
    return Rect{tx * kTileSize, ty * kTileSize, kTileSize, kTileSize}
        .intersect(Rect::of(screen_));
  }

  [[nodiscard]] std::size_t index(int tx, int ty) const {
    assert(tx >= 0 && tx < tiles_x_ && ty >= 0 && ty < tiles_y_);
    return static_cast<std::size_t>(ty) * tiles_x_ + tx;
  }

  [[nodiscard]] bool valid(std::size_t i) const { return valid_[i] != 0; }
  [[nodiscard]] std::uint64_t hash(std::size_t i) const { return hash_[i]; }

  void store(std::size_t i, std::uint64_t h) {
    hash_[i] = h;
    if (valid_[i] == 0) {
      valid_[i] = 1;
      ++valid_count_;
    }
  }

  /// Partial overwrite of unknown content: the cached hash no longer
  /// describes the whole tile.
  void invalidate(std::size_t i) {
    if (valid_[i] != 0) {
      valid_[i] = 0;
      --valid_count_;
    }
  }

  void reset() {
    std::fill(valid_.begin(), valid_.end(), 0);
    valid_count_ = 0;
  }

  /// True once every tile's hash describes its current content -- the
  /// precondition for folding a whole-frame fingerprint from tile hashes.
  [[nodiscard]] bool all_valid() const {
    return valid_count_ == static_cast<int>(valid_.size());
  }

  /// Whole-frame fingerprint from the tile hashes (only meaningful when
  /// all_valid()).  O(tiles), so cheap enough to run per frame.
  [[nodiscard]] std::uint64_t fold() const {
    std::uint64_t h = kHashSeed;
    for (std::uint64_t t : hash_) h = hash_combine(h, t);
    return h;
  }

  /// Hash of rect `r` in a pixel buffer, honouring the collision-injection
  /// mode (constant hash -> every comparison collides -> the verify path
  /// carries all correctness).
  [[nodiscard]] std::uint64_t span_hash(const Rgb888* base, int stride,
                                        Rect r) const {
    if (force_collisions_) return 0;
    return hash_rows(base, stride, r);
  }

 private:
  Size screen_;
  int tiles_x_;
  int tiles_y_;
  std::vector<std::uint64_t> hash_;
  std::vector<unsigned char> valid_;
  int valid_count_ = 0;
  bool force_collisions_ = false;
};

}  // namespace ccdem::gfx
