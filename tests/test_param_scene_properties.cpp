// Parameterized scene properties: every scene type, across seeds, must
// uphold the contracts the meter and power model rely on.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/scene.h"
#include "gfx/framebuffer.h"

namespace ccdem::apps {
namespace {

constexpr gfx::Size kScreen{720, 1280};

struct SceneCase {
  std::string name;
  SceneSpec spec;
};

std::vector<SceneCase> scene_cases() {
  UiSceneSpec menu;
  menu.states = {
      {UiState::Kind::kIdle, 400, 2.0, 1, 1},
      {UiState::Kind::kMenu, 300, 12.0, 2, 3},
      {UiState::Kind::kScroll, 250, 24.0, 3, -1},
      {UiState::Kind::kSlide, 300, 24.0, 4, 0},
      {UiState::Kind::kDialog, 350, 8.0, 0, -1},
  };
  menu.idle_timeout_ms = 1500;
  UiSceneSpec marquee1;
  marquee1.states = {{UiState::Kind::kMarquee, 0, 24.0, 0, -1}};
  marquee1.marquee_px = 1;  // the 1-px blind-spot stressor
  marquee1.idle_timeout_ms = 0;
  return {
      {"feed", SceneSpec::static_ui(2.0)},
      {"static", SceneSpec::static_ui(0.0)},
      {"video24", SceneSpec::video(24.0)},
      {"game_slow", SceneSpec::game(10.0)},
      {"game_fast", SceneSpec::game(35.0)},
      {"wallpaper", SceneSpec::wallpaper(2, 8)},
      {"typing", SceneSpec::typing(2.0, 3.0)},
      {"map", SceneSpec::map(2.0)},
      {"ui_menu", SceneSpec::ui_machine(menu)},
      {"ui_marquee1", SceneSpec::ui_machine(marquee1)},
      {"burst", SceneSpec::burst_video({300, 8, 30.0, {1, 3, 0, 2}})},
  };
}

using Param = std::tuple<int /*case*/, std::uint64_t /*seed*/>;

class SceneProperty : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] const SceneCase& scene_case() const {
    static const std::vector<SceneCase> all = scene_cases();
    return all[static_cast<std::size_t>(std::get<0>(GetParam()))];
  }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(SceneProperty, HonestChangeReporting) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  auto scene = make_scene(scene_case().spec, kScreen, sim::Rng(seed()));
  scene->init(canvas);
  canvas.take_dirty();
  for (int i = 1; i <= 90; ++i) {
    const gfx::Framebuffer before = fb;
    const bool reported = scene->render(canvas, sim::at_seconds(i / 45.0));
    canvas.take_dirty();
    EXPECT_EQ(reported, !fb.equals(before)) << "frame " << i;
  }
}

TEST_P(SceneProperty, DirtyRegionCoversAllChanges) {
  // Every pixel that changes must be inside the reported dirty region --
  // otherwise the compositor would miss it and the screen would corrupt.
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  auto scene = make_scene(scene_case().spec, kScreen, sim::Rng(seed()));
  scene->init(canvas);
  canvas.take_dirty();
  gfx::Framebuffer prev = fb;
  for (int i = 1; i <= 30; ++i) {
    scene->render(canvas, sim::at_seconds(i / 15.0));
    const gfx::Region dirty = canvas.take_dirty_region();
    // Verify on a coarse sample lattice (exhaustive would be slow).
    for (int y = 3; y < kScreen.height; y += 13) {
      for (int x = 3; x < kScreen.width; x += 13) {
        if (fb.at(x, y) != prev.at(x, y)) {
          ASSERT_TRUE(dirty.contains({x, y}))
              << "changed pixel (" << x << "," << y
              << ") outside dirty region at frame " << i;
        }
      }
    }
    prev.blit(fb, fb.bounds(), {0, 0});
  }
}

TEST_P(SceneProperty, DeterministicForSeed) {
  gfx::Framebuffer fb1(kScreen), fb2(kScreen);
  gfx::Canvas c1(fb1), c2(fb2);
  auto s1 = make_scene(scene_case().spec, kScreen, sim::Rng(seed()));
  auto s2 = make_scene(scene_case().spec, kScreen, sim::Rng(seed()));
  s1->init(c1);
  s2->init(c2);
  for (int i = 1; i <= 30; ++i) {
    s1->render(c1, sim::at_seconds(i / 30.0));
    s2->render(c2, sim::at_seconds(i / 30.0));
  }
  EXPECT_TRUE(fb1.equals(fb2));
}

TEST_P(SceneProperty, NominalContentRateNonNegative) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  auto scene = make_scene(scene_case().spec, kScreen, sim::Rng(seed()));
  scene->init(canvas);
  for (int i = 0; i <= 10; ++i) {
    EXPECT_GE(scene->nominal_content_fps(sim::at_seconds(i)), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenes, SceneProperty,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values<std::uint64_t>(1, 7, 42)),
    [](const ::testing::TestParamInfo<Param>& info) {
      const SceneCase c = scene_cases()[static_cast<std::size_t>(
          std::get<0>(info.param))];
      return c.name + "_s" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ccdem::apps
