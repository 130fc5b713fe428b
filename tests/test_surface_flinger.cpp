#include "gfx/surface_flinger.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace ccdem::gfx {
namespace {

class RecordingListener final : public FrameListener {
 public:
  void on_frame(const FrameInfo& info, const Framebuffer&) override {
    frames.push_back(info);
  }
  std::vector<FrameInfo> frames;
};

class FlingerTest : public ::testing::Test {
 protected:
  FlingerTest() : flinger_({64, 64}) { flinger_.add_listener(&listener_); }

  SurfaceFlinger flinger_;
  RecordingListener listener_;
};

TEST_F(FlingerTest, NoPendingFrameNoComposition) {
  flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  EXPECT_FALSE(flinger_.on_vsync(sim::Time{}));
  EXPECT_TRUE(listener_.frames.empty());
  EXPECT_EQ(flinger_.frames_composed(), 0u);
}

TEST_F(FlingerTest, ComposesPostedSurface) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  Canvas& c = s->begin_frame();
  c.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  EXPECT_TRUE(flinger_.on_vsync(sim::Time{1'000}));
  ASSERT_EQ(listener_.frames.size(), 1u);
  EXPECT_EQ(listener_.frames[0].seq, 1u);
  EXPECT_EQ(listener_.frames[0].composed_at, sim::Time{1'000});
  EXPECT_TRUE(listener_.frames[0].content_changed);
  EXPECT_EQ(listener_.frames[0].dirty, (Rect{0, 0, 8, 8}));
  EXPECT_EQ(listener_.frames[0].composed_pixels, 64);
  EXPECT_EQ(flinger_.framebuffer().at(4, 4), colors::kRed);
}

TEST_F(FlingerTest, RedundantPostComposesWithoutContentChange) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  s->begin_frame();
  s->post_frame();  // nothing drawn
  EXPECT_TRUE(flinger_.on_vsync(sim::Time{}));
  ASSERT_EQ(listener_.frames.size(), 1u);
  EXPECT_FALSE(listener_.frames[0].content_changed);
  EXPECT_EQ(listener_.frames[0].composed_pixels, 0);
  EXPECT_EQ(flinger_.content_frames(), 0u);
  EXPECT_EQ(flinger_.frames_composed(), 1u);
}

TEST_F(FlingerTest, RedrawingIdenticalPixelsIsNotAContentChange) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  // First frame paints.
  Canvas& c1 = s->begin_frame();
  c1.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  flinger_.on_vsync(sim::Time{});
  // Second frame redraws the same pixels with the same colour: the dirty
  // rect is non-empty but nothing actually changes on screen.
  Canvas& c2 = s->begin_frame();
  c2.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  flinger_.on_vsync(sim::Time{1});
  ASSERT_EQ(listener_.frames.size(), 2u);
  EXPECT_TRUE(listener_.frames[0].content_changed);
  EXPECT_FALSE(listener_.frames[1].content_changed);
}

TEST_F(FlingerTest, OptimisticModeTrustsDirtyRect) {
  flinger_.set_exact_change_detection(false);
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  Canvas& c1 = s->begin_frame();
  c1.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  flinger_.on_vsync(sim::Time{});
  Canvas& c2 = s->begin_frame();
  c2.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);  // identical pixels
  s->post_frame();
  flinger_.on_vsync(sim::Time{1});
  // Optimistic mode cannot tell: it reports a change because dirty != empty.
  EXPECT_TRUE(listener_.frames[1].content_changed);
}

TEST_F(FlingerTest, SurfacePositionOffsetsComposition) {
  Surface* s = flinger_.create_surface("a", Rect{10, 20, 16, 16}, 0);
  Canvas& c = s->begin_frame();
  c.fill_rect(Rect{0, 0, 4, 4}, colors::kGreen);
  s->post_frame();
  flinger_.on_vsync(sim::Time{});
  EXPECT_EQ(flinger_.framebuffer().at(10, 20), colors::kGreen);
  EXPECT_EQ(flinger_.framebuffer().at(9, 19), colors::kBlack);
  EXPECT_EQ(listener_.frames[0].dirty, (Rect{10, 20, 4, 4}));
}

TEST_F(FlingerTest, ZOrderDeterminesStacking) {
  Surface* below = flinger_.create_surface("below", Rect{0, 0, 64, 64}, 0);
  Surface* above = flinger_.create_surface("above", Rect{0, 0, 64, 64}, 1);
  Canvas& cb = below->begin_frame();
  cb.fill_rect(Rect{0, 0, 16, 16}, colors::kRed);
  below->post_frame();
  Canvas& ca = above->begin_frame();
  ca.fill_rect(Rect{0, 0, 8, 8}, colors::kBlue);
  above->post_frame();
  flinger_.on_vsync(sim::Time{});
  EXPECT_EQ(flinger_.framebuffer().at(2, 2), colors::kBlue);    // above wins
  EXPECT_EQ(flinger_.framebuffer().at(12, 12), colors::kRed);   // below shows
}

TEST_F(FlingerTest, InvisibleSurfaceIgnored) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  s->set_visible(false);
  Canvas& c = s->begin_frame();
  c.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  EXPECT_FALSE(flinger_.on_vsync(sim::Time{}));
}

TEST_F(FlingerTest, RemoveSurfaceStopsComposition) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  s->begin_frame();
  s->post_frame();
  flinger_.remove_surface(s);
  EXPECT_FALSE(flinger_.on_vsync(sim::Time{}));
}

TEST_F(FlingerTest, FrameSeqIncrements) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  for (int i = 0; i < 3; ++i) {
    Canvas& c = s->begin_frame();
    c.fill_rect(Rect{i * 4, 0, 4, 4}, colors::kRed);
    s->post_frame();
    flinger_.on_vsync(sim::Time{i});
  }
  ASSERT_EQ(listener_.frames.size(), 3u);
  EXPECT_EQ(listener_.frames[2].seq, 3u);
  EXPECT_EQ(flinger_.content_frames(), 3u);
}

TEST_F(FlingerTest, CountsSurfacesLatched) {
  Surface* a = flinger_.create_surface("a", Rect{0, 0, 32, 32}, 0);
  Surface* b = flinger_.create_surface("b", Rect{32, 32, 32, 32}, 1);
  a->begin_frame();
  a->post_frame();
  b->begin_frame();
  b->post_frame();
  flinger_.on_vsync(sim::Time{});
  ASSERT_EQ(listener_.frames.size(), 1u);
  EXPECT_EQ(listener_.frames[0].surfaces_latched, 2);
}

// --- in-place composition property ------------------------------------------
//
// Frames are composed in place into the buffer that holds frame N-1.  For
// seeded paint sequences over overlapping z-ordered surfaces -- including
// frames where a lower surface changes pixels that a higher one then writes
// back -- every flinger variant (tile memo on/off x exact change detection
// on/off) must keep:
//  - the damage contract: pixels outside FrameInfo::damage equal frame N-1;
//  - content_changed true whenever the frame differs from frame N-1;
//  - memo on and off agreeing on the frame, content_changed and
//    composed_pixels.

/// Keeps copies of the last two frames the flinger delivered.
class FrameCopy final : public FrameListener {
 public:
  explicit FrameCopy(Size screen) : cur(screen) {}  // the screen starts black
  void on_frame(const FrameInfo& info, const Framebuffer& fb) override {
    prev = cur;
    cur = fb;
    last = info;
  }
  Framebuffer prev;
  Framebuffer cur;
  FrameInfo last;
};

constexpr Size kPropScreen{160, 120};  // 3x2 tiles, right/bottom partial
// base, mid, an edge surface clipped by the screen, and top, which sits over
// base and mid.
constexpr std::array<Rect, 4> kPropSurfaces{
    Rect{0, 0, 160, 120}, Rect{24, 16, 96, 72}, Rect{112, 84, 64, 48},
    Rect{40, 32, 72, 56}};
constexpr std::size_t kBase = 0;
constexpr std::size_t kTop = 3;

struct FlingerRig {
  FlingerRig(bool memo, bool exact) : flinger(kPropScreen), probe(kPropScreen) {
    flinger.set_tile_memo(memo);
    flinger.set_exact_change_detection(exact);
    for (std::size_t i = 0; i < kPropSurfaces.size(); ++i) {
      surfaces.push_back(flinger.create_surface(
          "s" + std::to_string(i), kPropSurfaces[i], static_cast<int>(i)));
    }
    flinger.add_listener(&probe);
  }
  SurfaceFlinger flinger;
  FrameCopy probe;
  std::vector<Surface*> surfaces;
};

/// One surface's drawing for a frame: fills, or marks dirty without drawing
/// (a redundant redraw of the pixels it already holds).
struct PaintOp {
  Rect rect;
  bool mark_only = false;
  Rgb888 color{};
};

Rect random_rect(sim::Rng& rng, Size bounds) {
  const int x = static_cast<int>(rng.uniform_int(-8, bounds.width - 1));
  const int y = static_cast<int>(rng.uniform_int(-8, bounds.height - 1));
  return Rect{x, y, static_cast<int>(rng.uniform_int(1, 48)),
              static_cast<int>(rng.uniform_int(1, 48))};
}

TEST(FlingerInPlace, DamageContractAndMemoIdentityOverSeededPaints) {
  // A small palette makes byte-equal redraws common.
  constexpr std::array<Rgb888, 3> kPalette{colors::kRed, colors::kBlue,
                                           colors::kWhite};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // rigs[2 * exact + memo]
    std::vector<std::unique_ptr<FlingerRig>> rigs;
    for (const bool exact : {false, true}) {
      for (const bool memo : {false, true}) {
        rigs.push_back(std::make_unique<FlingerRig>(memo, exact));
      }
    }
    sim::Rng rng(seed);
    const auto pick_color = [&] {
      return kPalette[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    };
    int write_backs = 0;
    for (int step = 0; step < 150; ++step) {
      // Draw this frame's paint program once; every rig replays it.
      std::array<std::vector<PaintOp>, kPropSurfaces.size()> ops;
      std::array<bool, kPropSurfaces.size()> posts{};
      if (rng.chance(0.3)) {
        // Write-back: base repaints a rect under top, and top (composed
        // later) redraws its whole area, putting its own pixels back.
        const Rect top = kPropSurfaces[kTop];
        const Size top_size{top.width, top.height};
        const Rect r = random_rect(rng, top_size).translated(top.x, top.y);
        ops[kBase].push_back(PaintOp{r, false, pick_color()});
        ops[kTop].push_back(PaintOp{Rect::of(top_size), true, {}});
        posts[kBase] = posts[kTop] = true;
      } else {
        for (std::size_t i = 0; i < kPropSurfaces.size(); ++i) {
          if (!rng.chance(0.5)) continue;
          posts[i] = true;
          const int n = static_cast<int>(rng.uniform_int(0, 2));
          for (int k = 0; k < n; ++k) {
            const bool mark_only = rng.chance(0.25);
            const Rgb888 color = pick_color();
            ops[i].push_back(PaintOp{
                random_rect(rng, Size{kPropSurfaces[i].width,
                                      kPropSurfaces[i].height}),
                mark_only, color});
          }
        }
      }

      std::vector<bool> composed;
      for (auto& rig : rigs) {
        for (std::size_t i = 0; i < kPropSurfaces.size(); ++i) {
          if (!posts[i]) continue;
          Canvas& c = rig->surfaces[i]->begin_frame();
          for (const PaintOp& op : ops[i]) {
            if (op.mark_only) {
              c.mark_dirty(op.rect);
            } else {
              c.fill_rect(op.rect, op.color);
            }
          }
          rig->surfaces[i]->post_frame();
        }
        composed.push_back(rig->flinger.on_vsync(sim::Time{step}));
      }
      for (const bool c : composed) ASSERT_EQ(c, composed[0]);
      if (!composed[0]) continue;

      for (const auto& rig : rigs) {
        const FrameCopy& p = rig->probe;
        // Damage contract: frame N-1 patched with frame N's damage is
        // frame N.
        Framebuffer patched = p.prev;
        for (const Rect& r : p.last.damage.rects()) {
          patched.blit(p.cur, r, Point{r.x, r.y});
        }
        ASSERT_TRUE(patched.equals(p.cur))
            << "seed " << seed << " step " << step << ": pixel outside damage";
        if (!p.cur.equals(p.prev)) {
          ASSERT_TRUE(p.last.content_changed)
              << "seed " << seed << " step " << step;
        }
        ASSERT_TRUE(p.cur.equals(rigs[0]->probe.cur))
            << "seed " << seed << " step " << step;
      }
      for (const std::size_t exact : {0u, 1u}) {
        const FrameInfo& off = rigs[2 * exact]->probe.last;
        const FrameInfo& on = rigs[2 * exact + 1]->probe.last;
        ASSERT_EQ(on.content_changed, off.content_changed)
            << "seed " << seed << " step " << step << " exact " << exact;
        ASSERT_EQ(on.composed_pixels, off.composed_pixels)
            << "seed " << seed << " step " << step << " exact " << exact;
      }
      const FrameCopy& exact_probe = rigs[3]->probe;
      if (exact_probe.last.content_changed &&
          exact_probe.cur.equals(exact_probe.prev)) {
        ++write_backs;
      }
    }
    // The sequence really exercised frames whose writes were all undone
    // before the end of the frame.
    EXPECT_GT(write_backs, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccdem::gfx
