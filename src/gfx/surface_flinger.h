// SurfaceFlinger: the Surface Manager of the simulated Android stack.
//
// On every V-Sync it latches pending surface frames (if any) and composes
// them into the device framebuffer, then notifies frame listeners -- the
// content-rate meter and the power model hang off this notification.  The
// composition is dirty-region based, matching how a real compositor avoids
// recopying unchanged pixels, and it optionally performs an exact
// changed-pixel check over the dirty region so experiments have pixel-true
// ground truth for "meaningful vs redundant frame".
//
// Frame N is composed in place into the one screen buffer that holds frame
// N-1.  No second buffer is kept: the previous frame the paper's meter
// compares against (its "double buffering", section 3.1) is the meter's own
// retained snapshot, and the flinger's change check needs only the pixels
// it has not yet overwritten -- see on_vsync.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gfx/framebuffer.h"
#include "gfx/geometry.h"
#include "gfx/region.h"
#include "gfx/surface.h"
#include "gfx/tile_cache.h"
#include "obs/obs.h"
#include "sim/time.h"

namespace ccdem::gfx {

/// Metadata for one composed frame, delivered to FrameListeners.
struct FrameInfo {
  std::uint64_t seq = 0;        ///< monotonically increasing frame number
  sim::Time composed_at{};      ///< V-Sync timestamp of the composition
  Rect dirty{};                 ///< union of latched dirty rects (screen space)
  /// The exact composed damage (screen space, disjoint rects; dirty is its
  /// bounding box).  Contract: every pixel that differs from the previous
  /// frame lies inside it -- the frame is composed in place and only the
  /// damage is written, so pixels outside it are byte-identical to frame
  /// N-1.  Listeners (the content-rate meter, the frame-stream hasher) rely
  /// on this to scope their work to the damage.
  Region damage;
  bool content_changed = false; ///< ground truth: any pixel actually changed
  std::int64_t composed_pixels = 0;  ///< pixels copied during composition
  int surfaces_latched = 0;     ///< surfaces that had a pending frame
};

class FrameListener {
 public:
  virtual ~FrameListener() = default;
  /// Called after the framebuffer has been updated for this frame.
  virtual void on_frame(const FrameInfo& info, const Framebuffer& fb) = 0;
};

class SurfaceFlinger {
 public:
  /// `pool` (optional) recycles pixel storage for the screen buffer and every
  /// surface created through create_surface; it must outlive the flinger.
  explicit SurfaceFlinger(Size screen, BufferPool* pool = nullptr);

  SurfaceFlinger(const SurfaceFlinger&) = delete;
  SurfaceFlinger& operator=(const SurfaceFlinger&) = delete;

  /// Creates a surface; the flinger keeps ownership, callers get a stable
  /// pointer valid for the flinger's lifetime.
  Surface* create_surface(std::string name, Rect screen_rect, int z_order);
  void remove_surface(Surface* s);

  void add_listener(FrameListener* l) { listeners_.push_back(l); }

  /// Composes pending surface frames, if any.  Returns true if a frame was
  /// produced (i.e. at least one surface had posted).  Called at V-Sync.
  bool on_vsync(sim::Time t);

  /// The frame currently on screen.
  [[nodiscard]] const Framebuffer& framebuffer() const { return screen_fb_; }
  [[nodiscard]] Size screen_size() const { return screen_; }
  [[nodiscard]] std::uint64_t frames_composed() const { return frame_seq_; }
  [[nodiscard]] std::uint64_t content_frames() const {
    return content_frames_;
  }

  /// When true (default), `FrameInfo::content_changed` is computed by an
  /// exact pixel comparison over the dirty region; when false, a non-empty
  /// dirty region is assumed to change content (cheaper, optimistic).
  void set_exact_change_detection(bool on) { exact_change_ = on; }

  /// Enables (default) or disables tile-hash compose memoization.  With it
  /// on, dirty rects are composed tile by tile and rects whose bytes already
  /// match the screen buffer are skipped -- no pixel write, no damage, so
  /// downstream meter compares skip them too.  Every hash hit is
  /// byte-verified, so the composed frames are byte-identical either way
  /// (the DST memo oracle holds this).  Off keeps the historical
  /// blit-everything path as the differential reference.
  void set_tile_memo(bool on) { tile_memo_ = on; }
  [[nodiscard]] bool tile_memo() const { return tile_memo_; }

  /// Physical-write accounting for the memoization layer.  Logical
  /// composition work (FrameInfo::composed_pixels, the power model's input)
  /// is unchanged by memoization; these count what actually hit memory.
  struct MemoStats {
    std::uint64_t pixels_written = 0;   ///< pixels physically copied
    std::uint64_t pixels_skipped = 0;   ///< pixels proven unchanged, not copied
    std::uint64_t tile_hits = 0;        ///< full-tile hash hits verified equal
    std::uint64_t tile_collisions = 0;  ///< hash matched but bytes differed
    std::uint64_t frames_memoized = 0;  ///< frames with dirt but zero writes
    std::uint64_t frame_repeats = 0;    ///< whole-frame fingerprint repeats
  };
  [[nodiscard]] const MemoStats& memo_stats() const { return memo_; }

  /// Attaches an observability sink (may be null to detach).  Registers the
  /// flinger's counters and emits a compose span per composed frame.
  void set_obs(obs::ObsSink* obs);

 private:
  /// Returns true if the pixels of `s` inside `dirty` (surface-local) differ
  /// from the currently displayed frame.
  [[nodiscard]] bool region_differs(const Surface& s, Rect dirty) const;

  /// Composes one dirty rect through the tile cache into the screen
  /// buffer.  Returns true if any pixels were written.
  bool compose_rect_memo(const Surface& s, Rect screen_rect, FrameInfo& info,
                         Region& damage);

  Size screen_;
  BufferPool* pool_;
  Framebuffer screen_fb_;
  std::vector<std::unique_ptr<Surface>> surfaces_;  // kept sorted by z-order
  std::vector<FrameListener*> listeners_;
  std::uint64_t frame_seq_ = 0;
  std::uint64_t content_frames_ = 0;
  bool exact_change_ = true;
  bool tile_memo_ = true;

  TileCache tiles_;
  MemoStats memo_;
  /// Ring of recent whole-frame fingerprints; 128 frames covers the video
  /// loop lengths the corpus exercises (96 frames at 24 fps).
  static constexpr std::size_t kFrameRing = 128;
  std::vector<std::uint64_t> frame_ring_;
  std::size_t frame_ring_next_ = 0;

  obs::ObsSink* obs_ = nullptr;
  std::uint64_t* ctr_frames_ = nullptr;
  std::uint64_t* ctr_content_ = nullptr;
  std::uint64_t* ctr_redundant_ = nullptr;
  std::uint64_t* ctr_pixels_ = nullptr;
  std::uint64_t* ctr_latched_ = nullptr;
  std::uint64_t* ctr_memo_written_ = nullptr;
  std::uint64_t* ctr_memo_skipped_ = nullptr;
  std::uint64_t* ctr_memo_tile_hits_ = nullptr;
  std::uint64_t* ctr_memo_collisions_ = nullptr;
  std::uint64_t* ctr_memo_frames_ = nullptr;
  std::uint64_t* ctr_memo_repeats_ = nullptr;
};

}  // namespace ccdem::gfx
