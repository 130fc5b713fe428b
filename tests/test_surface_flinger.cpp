#include "gfx/surface_flinger.h"

#include <gtest/gtest.h>

#include <array>
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
// back -- the flinger must keep:
//  - the damage contract: pixels outside FrameInfo::damage equal frame N-1;
//  - content_changed exactly as documented: true iff some latched dirty
//    rect differed from frame N-1 where it landed (checked against a
//    per-pixel model), so write-back frames equal to frame N-1 are flagged.

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

constexpr Size kPropScreen{160, 120};
// base, mid, an edge surface clipped by the screen, and top, which sits over
// base and mid.  Surface i has z-order i.
constexpr std::array<Rect, 4> kPropSurfaces{
    Rect{0, 0, 160, 120}, Rect{24, 16, 96, 72}, Rect{112, 84, 64, 48},
    Rect{40, 32, 72, 56}};
constexpr std::size_t kBase = 0;
constexpr std::size_t kTop = 3;

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

/// The documented content_changed rule, pixel by pixel: does any latched
/// dirty rect (surface-local, in z order) carry a pixel that differs from
/// frame N-1 at the screen position it lands on?
bool model_content_changed(
    const std::vector<Surface*>& surfaces,
    const std::array<Region, kPropSurfaces.size()>& latched,
    const Framebuffer& prev) {
  for (std::size_t i = 0; i < surfaces.size(); ++i) {
    const Rect sr = surfaces[i]->screen_rect();
    for (const Rect& local : latched[i].rects()) {
      const Rect on_screen =
          local.translated(sr.x, sr.y).intersect(Rect::of(kPropScreen));
      for (int y = on_screen.y; y < on_screen.bottom(); ++y) {
        for (int x = on_screen.x; x < on_screen.right(); ++x) {
          if (surfaces[i]->buffer().at(x - sr.x, y - sr.y) != prev.at(x, y)) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

TEST(FlingerInPlace, DamageContractAndChangeRuleOverSeededPaints) {
  // A small palette makes byte-equal redraws common.
  constexpr std::array<Rgb888, 3> kPalette{colors::kRed, colors::kBlue,
                                           colors::kWhite};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SurfaceFlinger flinger(kPropScreen);
    FrameCopy probe(kPropScreen);
    flinger.add_listener(&probe);
    std::vector<Surface*> surfaces;
    for (std::size_t i = 0; i < kPropSurfaces.size(); ++i) {
      surfaces.push_back(flinger.create_surface(
          "s" + std::to_string(i), kPropSurfaces[i], static_cast<int>(i)));
    }
    sim::Rng rng(seed);
    const auto pick_color = [&] {
      return kPalette[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    };
    int write_backs = 0;
    for (int step = 0; step < 150; ++step) {
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

      std::array<Region, kPropSurfaces.size()> latched;
      for (std::size_t i = 0; i < kPropSurfaces.size(); ++i) {
        if (!posts[i]) continue;
        Canvas& c = surfaces[i]->begin_frame();
        for (const PaintOp& op : ops[i]) {
          if (op.mark_only) {
            c.mark_dirty(op.rect);
          } else {
            c.fill_rect(op.rect, op.color);
          }
        }
        surfaces[i]->post_frame();
        latched[i] = surfaces[i]->pending_dirty_region();
      }
      if (!flinger.on_vsync(sim::Time{step})) continue;

      // Damage contract: frame N-1 patched with frame N's damage is
      // frame N.
      Framebuffer patched = probe.prev;
      for (const Rect& r : probe.last.damage.rects()) {
        patched.blit(probe.cur, r, Point{r.x, r.y});
      }
      ASSERT_TRUE(patched.equals(probe.cur))
          << "seed " << seed << " step " << step << ": pixel outside damage";
      ASSERT_EQ(probe.last.content_changed,
                model_content_changed(surfaces, latched, probe.prev))
          << "seed " << seed << " step " << step;
      if (!probe.cur.equals(probe.prev)) {
        ASSERT_TRUE(probe.last.content_changed)
            << "seed " << seed << " step " << step;
      } else if (probe.last.content_changed) {
        ++write_backs;
      }
    }
    // The sequence really exercised frames whose writes were all undone
    // before the end of the frame, and flagged them.
    EXPECT_GT(write_backs, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccdem::gfx
