// SurfaceFlinger: the Surface Manager of the simulated Android stack.
//
// On every V-Sync it latches pending surface frames (if any) and composes
// them into the device framebuffer, then notifies frame listeners -- the
// content-rate meter and the power model hang off this notification.  The
// composition is dirty-region based, matching how a real compositor avoids
// recopying unchanged pixels, and it performs an exact changed-pixel check
// over the dirty region so experiments have pixel-true ground truth for
// "meaningful vs redundant frame".
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
  /// Ground truth for "meaningful frame": true iff some latched dirty rect
  /// differed from frame N-1 where it landed.  Rects are checked in
  /// composition order until the first change, so a pixel that a lower
  /// surface changes and a higher surface restores within the same frame
  /// still counts -- frame N may then equal frame N-1 byte for byte.
  bool content_changed = false;
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

  /// Attaches an observability sink (may be null to detach).  Registers the
  /// flinger's counters and emits a compose span per composed frame.
  void set_obs(obs::ObsSink* obs);

 private:
  /// Returns true if the pixels of `s` inside `dirty` (surface-local) differ
  /// from the currently displayed frame.
  [[nodiscard]] bool region_differs(const Surface& s, Rect dirty) const;

  Size screen_;
  BufferPool* pool_;
  Framebuffer screen_fb_;
  std::vector<std::unique_ptr<Surface>> surfaces_;  // kept sorted by z-order
  std::vector<FrameListener*> listeners_;
  std::uint64_t frame_seq_ = 0;
  std::uint64_t content_frames_ = 0;

  obs::ObsSink* obs_ = nullptr;
  std::uint64_t* ctr_frames_ = nullptr;
  std::uint64_t* ctr_content_ = nullptr;
  std::uint64_t* ctr_redundant_ = nullptr;
  std::uint64_t* ctr_pixels_ = nullptr;
  std::uint64_t* ctr_latched_ = nullptr;
};

}  // namespace ccdem::gfx
