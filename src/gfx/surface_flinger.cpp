#include "gfx/surface_flinger.h"

#include <algorithm>
#include <cassert>

#include "gfx/compare.h"

namespace ccdem::gfx {

SurfaceFlinger::SurfaceFlinger(Size screen, BufferPool* pool)
    : screen_(screen),
      pool_(pool),
      screen_fb_(screen, pool),
      tiles_(screen),
      frame_ring_(kFrameRing, 0) {
  assert(!screen.empty());
}

Surface* SurfaceFlinger::create_surface(std::string name, Rect screen_rect,
                                        int z_order) {
  auto s =
      std::make_unique<Surface>(std::move(name), screen_rect, z_order, pool_);
  Surface* raw = s.get();
  surfaces_.push_back(std::move(s));
  std::stable_sort(surfaces_.begin(), surfaces_.end(),
                   [](const auto& a, const auto& b) {
                     return a->z_order() < b->z_order();
                   });
  return raw;
}

void SurfaceFlinger::remove_surface(Surface* s) {
  std::erase_if(surfaces_, [s](const auto& p) { return p.get() == s; });
}

void SurfaceFlinger::set_obs(obs::ObsSink* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    ctr_frames_ = ctr_content_ = ctr_redundant_ = ctr_pixels_ = ctr_latched_ =
        ctr_memo_written_ = ctr_memo_skipped_ = ctr_memo_tile_hits_ =
            ctr_memo_collisions_ = ctr_memo_frames_ = ctr_memo_repeats_ =
                nullptr;
    return;
  }
  ctr_frames_ = &obs_->counters.counter("flinger.frames_composed");
  ctr_content_ = &obs_->counters.counter("flinger.content_frames");
  ctr_redundant_ = &obs_->counters.counter("flinger.redundant_frames");
  ctr_pixels_ = &obs_->counters.counter("flinger.pixels_composed");
  ctr_latched_ = &obs_->counters.counter("flinger.surfaces_latched");
  // Physical-write accounting.  Registered whether or not memoization is on
  // so every run exposes the same counter set; the memo oracle excludes the
  // "flinger.memo." prefix when diffing on-vs-off runs.
  ctr_memo_written_ = &obs_->counters.counter("flinger.memo.pixels_written");
  ctr_memo_skipped_ = &obs_->counters.counter("flinger.memo.pixels_skipped");
  ctr_memo_tile_hits_ = &obs_->counters.counter("flinger.memo.tile_hits");
  ctr_memo_collisions_ =
      &obs_->counters.counter("flinger.memo.tile_collisions");
  ctr_memo_frames_ = &obs_->counters.counter("flinger.memo.frames_memoized");
  ctr_memo_repeats_ = &obs_->counters.counter("flinger.memo.frame_repeats");
}

bool SurfaceFlinger::region_differs(const Surface& s, Rect dirty) const {
  // `dirty` is surface-local; translate into screen space and compare the
  // surface's pixels with the screen buffer, row span against row span.
  // Called only while the frame has changed nothing, so the screen buffer
  // still holds frame N-1.
  const Framebuffer& displayed = screen_fb_;
  const int sx = s.screen_rect().x;
  const int sy = s.screen_rect().y;
  const Rect screen_rect =
      dirty.translated(sx, sy).intersect(Rect::of(screen_));
  if (screen_rect.empty()) return false;
  const Rect local = screen_rect.translated(-sx, -sy);
  return !kernels::rows_equal_offset(
      s.buffer().pixels().data(), s.buffer().width(), local,
      displayed.pixels().data(), displayed.width(),
      Point{screen_rect.x, screen_rect.y});
}

bool SurfaceFlinger::compose_rect_memo(const Surface& s, Rect screen_rect,
                                       FrameInfo& info, Region& damage) {
  // The rect is walked tile by tile.  For every tile intersection the write
  // is elided when the surface bytes already match the screen buffer -- so
  // "matches" is "already on screen" until an earlier rect of this same
  // frame overwrote it, in which case matching still yields the correct
  // final frame.  Full tiles go through the hash cache first: a differing
  // hash proves a change without touching pixels, an equal hash is verified
  // byte-for-byte before the write is skipped (collisions are counted, not
  // trusted).
  //
  // content_changed stays *exact* under this scheme: before the first write
  // of a frame the screen buffer still holds frame N-1 everywhere, so "some
  // tile write happened" is equivalent to region_differs.
  Framebuffer& target = screen_fb_;
  const Framebuffer& src = s.buffer();
  const int sx = s.screen_rect().x;
  const int sy = s.screen_rect().y;
  bool wrote = false;

  const int tx0 = screen_rect.x / TileCache::kTileSize;
  const int tx1 = (screen_rect.right() - 1) / TileCache::kTileSize;
  const int ty0 = screen_rect.y / TileCache::kTileSize;
  const int ty1 = (screen_rect.bottom() - 1) / TileCache::kTileSize;

  // Written pieces are merged back into maximal rects before they reach the
  // copy, the dirty bound and the damage region: adjacent writes in a tile
  // row grow `run`, and full-width runs stack vertically into `block`.  A
  // fully-written rect therefore costs one copy and one damage rect, exactly
  // like the memo-off path, instead of one per tile.
  Rect run{};    // pending horizontal run within the current tile row
  Rect block{};  // pending vertical stack of flushed runs
  const auto emit = [&](const Rect& r) {
    if (r.empty()) return;
    kernels::copy_rows(
        target.pixels_mut().data(), target.width(), src.pixels().data(),
        src.width(),
        kernels::CopyWindow{Point{r.x - sx, r.y - sy}, Point{r.x, r.y},
                            Size{r.width, r.height}});
    info.dirty = info.dirty.join(r);
    damage.add(r);
    memo_.pixels_written += static_cast<std::uint64_t>(r.area());
    wrote = true;
  };
  const auto flush_run = [&]() {
    if (run.empty()) return;
    if (block.x == run.x && block.width == run.width &&
        block.bottom() == run.y) {
      block.height += run.height;
    } else {
      emit(block);
      block = run;
    }
    run = Rect{};
  };

  for (int ty = ty0; ty <= ty1; ++ty) {
    for (int tx = tx0; tx <= tx1; ++tx) {
      const Rect tile = tiles_.tile_rect(tx, ty);
      const Rect tr = tile.intersect(screen_rect);
      if (tr.empty()) continue;
      const std::size_t ti = tiles_.index(tx, ty);
      const Rect local = tr.translated(-sx, -sy);
      const bool full_tile = tr == tile;

      bool write = false;
      if (full_tile) {
        // Hash the src span (one read of src, no target access), then let
        // the cache classify the tile:
        //  - hash match on a valid entry: probably unchanged; verify the
        //    bytes before skipping, so a collision costs one compare and
        //    never correctness.
        //  - hash miss on a valid entry: provably changed.  The stored hash
        //    describes the bytes this tile holds on screen (stored at its
        //    last full-tile compose, invalidated by partial overwrites), and
        //    the hash is a pure function of the bytes -- equal bytes cannot
        //    hash apart.
        //    So copy straight away, without reading the target at all.
        //  - no valid entry: fall back to the byte compare.
        const std::uint64_t h =
            tiles_.span_hash(src.pixels().data(), src.width(), local);
        if (tiles_.valid(ti) && h == tiles_.hash(ti)) {
          const bool equal = kernels::rows_equal_offset(
              src.pixels().data(), src.width(), local, target.pixels().data(),
              target.width(), Point{tr.x, tr.y});
          write = !equal;
          ++(equal ? memo_.tile_hits : memo_.tile_collisions);
        } else if (tiles_.valid(ti)) {
          write = true;
        } else {
          write = !kernels::rows_equal_offset(
              src.pixels().data(), src.width(), local, target.pixels().data(),
              target.width(), Point{tr.x, tr.y});
        }
        // Whether written or verified equal, the tile now holds exactly the
        // bytes that hash to h.
        tiles_.store(ti, h);
      } else {
        write = !kernels::rows_equal_offset(
            src.pixels().data(), src.width(), local, target.pixels().data(),
            target.width(), Point{tr.x, tr.y});
        // A partial overwrite leaves the rest of the tile as-is: equal bytes
        // keep the cached hash truthful, a write makes it stale.
        if (write) tiles_.invalidate(ti);
      }

      if (write) {
        if (!run.empty() && run.y == tr.y && run.height == tr.height &&
            run.right() == tr.x) {
          run.width += tr.width;
        } else {
          flush_run();
          run = tr;
        }
      } else {
        flush_run();
        memo_.pixels_skipped += static_cast<std::uint64_t>(tr.area());
      }
    }
    flush_run();
  }
  emit(block);
  return wrote;
}

bool SurfaceFlinger::on_vsync(sim::Time t) {
  bool any_pending = false;
  for (const auto& s : surfaces_) {
    if (s->visible() && s->has_pending_frame()) {
      any_pending = true;
      break;
    }
  }
  if (!any_pending) return false;

  FrameInfo info;
  info.seq = ++frame_seq_;
  info.composed_at = t;

  // Compose in place.  While content_changed is false every write so far
  // was byte-equal, so the screen buffer still holds frame N-1 and is the
  // comparison reference; pixels outside the damage are never touched.
  const MemoStats memo_before = memo_;
  bool any_dirty = false;
  Region damage;
  for (const auto& s : surfaces_) {
    if (!s->visible() || !s->has_pending_frame()) continue;
    ++info.surfaces_latched;
    const Region local_dirty = s->pending_dirty_region();
    s->acquire_frame();
    if (local_dirty.empty()) continue;  // redundant frame: nothing to copy
    any_dirty = true;

    // Compose rect by rect so only pixels actually drawn are copied and
    // charged -- scattered sprite updates do not pay for the area between
    // them.
    for (const Rect& local_rect : local_dirty.rects()) {
      if (!exact_change_) info.content_changed = true;
      const Rect screen_rect =
          local_rect.translated(s->screen_rect().x, s->screen_rect().y)
              .intersect(Rect::of(screen_));
      // Logical composition work is charged whether or not the pixels turn
      // out to be redundant -- the app drew them; memoization only decides
      // whether they must physically land.
      info.composed_pixels += screen_rect.area();
      if (screen_rect.empty()) continue;

      if (tile_memo_) {
        if (compose_rect_memo(*s, screen_rect, info, damage) &&
            exact_change_) {
          info.content_changed = true;
        }
      } else {
        if (exact_change_ && !info.content_changed &&
            region_differs(*s, local_rect)) {
          info.content_changed = true;
        }
        const Point dst{s->screen_rect().x + local_rect.x,
                        s->screen_rect().y + local_rect.y};
        screen_fb_.blit(s->buffer(), local_rect, dst);
        info.dirty = info.dirty.join(screen_rect);
        memo_.pixels_written += static_cast<std::uint64_t>(screen_rect.area());
        damage.add(screen_rect);
      }
    }
  }

  if (tile_memo_) {
    // Whole-frame memoization observability: a frame that latched real dirt
    // but wrote nothing was entirely redundant, and once every tile hash is
    // warm the folded fingerprint spots exact repeats of earlier frames
    // (video loops, wallpaper periods) at O(tiles) cost.
    if (any_dirty && memo_.pixels_written == memo_before.pixels_written) {
      ++memo_.frames_memoized;
    }
    if (tiles_.all_valid()) {
      const std::uint64_t fp = tiles_.fold();
      for (std::uint64_t old : frame_ring_) {
        if (old == fp) {
          ++memo_.frame_repeats;
          break;
        }
      }
      frame_ring_[frame_ring_next_] = fp;
      frame_ring_next_ = (frame_ring_next_ + 1) % frame_ring_.size();
    }
  }

  info.damage = std::move(damage);

  if (info.content_changed) ++content_frames_;

  if (obs_ != nullptr) {
    ++*ctr_frames_;
    ++*(info.content_changed ? ctr_content_ : ctr_redundant_);
    *ctr_pixels_ += static_cast<std::uint64_t>(info.composed_pixels);
    *ctr_latched_ += static_cast<std::uint64_t>(info.surfaces_latched);
    *ctr_memo_written_ += memo_.pixels_written - memo_before.pixels_written;
    *ctr_memo_skipped_ += memo_.pixels_skipped - memo_before.pixels_skipped;
    *ctr_memo_tile_hits_ += memo_.tile_hits - memo_before.tile_hits;
    *ctr_memo_collisions_ +=
        memo_.tile_collisions - memo_before.tile_collisions;
    *ctr_memo_frames_ += memo_.frames_memoized - memo_before.frames_memoized;
    *ctr_memo_repeats_ += memo_.frame_repeats - memo_before.frame_repeats;
  }
  CCDEM_OBS_SPAN(obs_, obs::Phase::kCompose, t, sim::Duration{}, info.seq,
                 info.composed_pixels);

  for (FrameListener* l : listeners_) l->on_frame(info, screen_fb_);
  return true;
}

}  // namespace ccdem::gfx
