#include "harness/fleet.h"

#include <gtest/gtest.h>

#include "apps/app_profiles.h"

namespace ccdem::harness {
namespace {

ExperimentConfig cfg(const char* app, ControlMode mode, std::uint64_t seed) {
  ExperimentConfig c;
  c.app = apps::app_by_name(app);
  c.duration = sim::seconds(5);
  c.seed = seed;
  c.mode = mode;
  return c;
}

TEST(Fleet, EmptyInput) {
  FleetRunner fleet;
  EXPECT_TRUE(fleet.run({}).empty());
  EXPECT_EQ(fleet.stats().runs_completed, 0u);
}

TEST(Fleet, SingleConfig) {
  FleetRunner fleet;
  const auto results =
      fleet.run({cfg("Facebook", ControlMode::kBaseline60, 1)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].app_name, "Facebook");
  EXPECT_EQ(fleet.stats().runs_completed, 1u);
  EXPECT_EQ(fleet.stats().workers, 1u);
}

TEST(Fleet, ResultsMatchSerialExactly) {
  std::vector<ExperimentConfig> configs = {
      cfg("Facebook", ControlMode::kBaseline60, 1),
      cfg("Facebook", ControlMode::kSectionWithBoost, 1),
      cfg("Jelly Splash", ControlMode::kSection, 2),
      cfg("MX Player", ControlMode::kSectionWithBoost, 3),
      cfg("Tiny Flashlight", ControlMode::kNaive, 4),
      cfg("Cookie Run", ControlMode::kSectionWithBoost, 5),
  };
  FleetRunner fleet(4);
  const auto parallel = fleet.run(configs);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto serial = run_experiment(configs[i]);
    EXPECT_EQ(parallel[i].app_name, serial.app_name);
    EXPECT_DOUBLE_EQ(parallel[i].mean_power_mw, serial.mean_power_mw);
    EXPECT_EQ(parallel[i].frames_composed, serial.frames_composed);
    EXPECT_EQ(parallel[i].content_frames, serial.content_frames);
    EXPECT_DOUBLE_EQ(parallel[i].mean_refresh_hz, serial.mean_refresh_hz);
  }
  EXPECT_EQ(fleet.stats().runs_completed, configs.size());
}

TEST(Fleet, ResultsKeepInputOrder) {
  std::vector<ExperimentConfig> configs;
  const char* names[] = {"Facebook", "Jelly Splash", "MX Player", "Naver"};
  for (const char* n : names) {
    configs.push_back(cfg(n, ControlMode::kBaseline60, 7));
  }
  FleetRunner fleet(3);
  const auto results = fleet.run(configs);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].app_name, names[i]);
  }
}

TEST(Fleet, SingleThreadWorks) {
  FleetRunner fleet(1);
  const auto results = fleet.run({cfg("Facebook", ControlMode::kSection, 1),
                                  cfg("Naver", ControlMode::kSection, 2)});
  EXPECT_EQ(results.size(), 2u);
  EXPECT_GT(results[1].mean_power_mw, 0.0);
  EXPECT_EQ(fleet.stats().workers, 1u);
}

// A single worker serving several runs must recycle its device's buffers:
// the second run's screen buffer, surface and meter storage all come from the
// pool the first run released into.
TEST(Fleet, ReusesBuffersAcrossRuns) {
  FleetRunner fleet(1);
  (void)fleet.run({cfg("Facebook", ControlMode::kSectionWithBoost, 1),
                   cfg("Facebook", ControlMode::kSectionWithBoost, 2),
                   cfg("Naver", ControlMode::kSectionWithBoost, 3)});
  const FleetStats& s = fleet.stats();
  EXPECT_EQ(s.runs_completed, 3u);
  EXPECT_GT(s.frames_composed, 0u);
  EXPECT_GT(s.buffer_acquires, 0u);
  EXPECT_GT(s.buffer_reuses, 0u);
  EXPECT_EQ(s.buffer_allocations, s.buffer_acquires - s.buffer_reuses);
  // Runs 2 and 3 re-acquire the same set of buffers run 1 allocated, so at
  // most one run's worth of storage is ever freshly allocated.
  EXPECT_LE(s.buffer_allocations, s.buffer_acquires / 3 + 1);
}

// --- degenerate fleet shapes ----------------------------------------------
// A fleet run must be bit-identical to serial whatever the thread/config
// ratio; these pin the edges (zero configs, more threads than configs, one
// thread) with full frame-stream hashing on.

ExperimentConfig hashed_cfg(const char* app, ControlMode mode,
                            std::uint64_t seed) {
  ExperimentConfig c = cfg(app, mode, seed);
  c.duration = sim::seconds(2);
  c.hash_frames = true;
  return c;
}

void expect_bit_identical(const ExperimentResult& a,
                          const ExperimentResult& b) {
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_EQ(a.mean_power_mw, b.mean_power_mw);  // exact, not approximate
  EXPECT_EQ(a.mean_refresh_hz, b.mean_refresh_hz);
  EXPECT_EQ(a.meter_error_rate, b.meter_error_rate);
  EXPECT_EQ(a.frames_composed, b.frames_composed);
  EXPECT_EQ(a.content_frames, b.content_frames);
  EXPECT_EQ(a.frames_posted, b.frames_posted);
  EXPECT_EQ(a.rate_switches, b.rate_switches);
  EXPECT_EQ(a.final_frame_hash, b.final_frame_hash);
  EXPECT_EQ(a.frame_stream_hash, b.frame_stream_hash);
}

TEST(Fleet, ZeroScenariosResetsStats) {
  FleetRunner fleet(2);
  (void)fleet.run({cfg("Facebook", ControlMode::kBaseline60, 1)});
  EXPECT_EQ(fleet.stats().runs_completed, 1u);

  EXPECT_TRUE(fleet.run({}).empty());
  const FleetStats& s = fleet.stats();
  EXPECT_EQ(s.workers, 0u);
  EXPECT_EQ(s.runs_completed, 0u);
  EXPECT_EQ(s.frames_composed, 0u);
  EXPECT_EQ(s.buffer_acquires, 0u);
  EXPECT_EQ(s.counters.counter_count(), 0u);
}

TEST(Fleet, MoreThreadsThanConfigsBitIdenticalToSerial) {
  const std::vector<ExperimentConfig> configs = {
      hashed_cfg("Facebook", ControlMode::kSectionWithBoost, 11),
      hashed_cfg("Naver", ControlMode::kSection, 12),
  };
  FleetRunner fleet(16);
  const auto results = fleet.run(configs);
  ASSERT_EQ(results.size(), configs.size());
  EXPECT_EQ(fleet.stats().workers, 2u);  // capped at the config count
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_bit_identical(results[i], run_experiment(configs[i]));
  }
}

TEST(Fleet, SingleThreadDegeneratesToSerial) {
  const std::vector<ExperimentConfig> configs = {
      hashed_cfg("Facebook", ControlMode::kSectionWithBoost, 21),
      hashed_cfg("Jelly Splash", ControlMode::kNaive, 22),
      hashed_cfg("MX Player", ControlMode::kSection, 23),
  };
  FleetRunner fleet(1);
  const auto results = fleet.run(configs);
  ASSERT_EQ(results.size(), configs.size());
  EXPECT_EQ(fleet.stats().workers, 1u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_bit_identical(results[i], run_experiment(configs[i]));
  }
}

}  // namespace
}  // namespace ccdem::harness
