#include "gfx/surface_flinger.h"

#include <algorithm>
#include <cassert>

#include "gfx/compare.h"

namespace ccdem::gfx {

SurfaceFlinger::SurfaceFlinger(Size screen, BufferPool* pool)
    : screen_(screen),
      pool_(pool),
      screen_fb_(screen, pool) {
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
        nullptr;
    return;
  }
  ctr_frames_ = &obs_->counters.counter("flinger.frames_composed");
  ctr_content_ = &obs_->counters.counter("flinger.content_frames");
  ctr_redundant_ = &obs_->counters.counter("flinger.redundant_frames");
  ctr_pixels_ = &obs_->counters.counter("flinger.pixels_composed");
  ctr_latched_ = &obs_->counters.counter("flinger.surfaces_latched");
}

bool SurfaceFlinger::region_differs(const Surface& s, Rect dirty) const {
  // `dirty` is surface-local; translate into screen space and compare the
  // surface's pixels with the screen buffer, row span against row span.
  // Called only while the frame has changed nothing, so the screen buffer
  // still holds frame N-1.
  const int sx = s.screen_rect().x;
  const int sy = s.screen_rect().y;
  const Rect screen_rect =
      dirty.translated(sx, sy).intersect(Rect::of(screen_));
  if (screen_rect.empty()) return false;
  const Rect local = screen_rect.translated(-sx, -sy);
  return !kernels::rows_equal_offset(
      s.buffer().pixels().data(), s.buffer().width(), local,
      screen_fb_.pixels().data(), screen_fb_.width(),
      Point{screen_rect.x, screen_rect.y});
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

  // Compose in place.  While content_changed is false every rect so far
  // was byte-equal to what it overwrote, so the screen buffer still holds
  // frame N-1 and is the comparison reference; pixels outside the damage
  // are never touched.
  Region damage;
  for (const auto& s : surfaces_) {
    if (!s->visible() || !s->has_pending_frame()) continue;
    ++info.surfaces_latched;
    const Region local_dirty = s->pending_dirty_region();
    s->acquire_frame();

    // Compose rect by rect so only pixels actually drawn are copied and
    // charged -- scattered sprite updates do not pay for the area between
    // them.  An empty dirty region (a redundant frame) copies nothing.
    for (const Rect& local_rect : local_dirty.rects()) {
      const Rect screen_rect =
          local_rect.translated(s->screen_rect().x, s->screen_rect().y)
              .intersect(Rect::of(screen_));
      info.composed_pixels += screen_rect.area();
      if (screen_rect.empty()) continue;

      if (!info.content_changed && region_differs(*s, local_rect)) {
        info.content_changed = true;
      }
      screen_fb_.blit(s->buffer(), local_rect,
                      Point{s->screen_rect().x + local_rect.x,
                            s->screen_rect().y + local_rect.y});
      info.dirty = info.dirty.join(screen_rect);
      damage.add(screen_rect);
    }
  }

  info.damage = std::move(damage);

  if (info.content_changed) ++content_frames_;

  if (obs_ != nullptr) {
    ++*ctr_frames_;
    ++*(info.content_changed ? ctr_content_ : ctr_redundant_);
    *ctr_pixels_ += static_cast<std::uint64_t>(info.composed_pixels);
    *ctr_latched_ += static_cast<std::uint64_t>(info.surfaces_latched);
  }
  CCDEM_OBS_SPAN(obs_, obs::Phase::kCompose, t, sim::Duration{}, info.seq,
                 info.composed_pixels);

  for (FrameListener* l : listeners_) l->on_frame(info, screen_fb_);
  return true;
}

}  // namespace ccdem::gfx
