// DST front door: generator determinism, repro round-trips, the
// embedded-script == Monkey equivalence, and a small always-on fuzz pass.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/app_profiles.h"
#include "check/dst.h"
#include "check/oracles.h"
#include "device/simulated_device.h"
#include "input/monkey.h"

namespace ccdem::check {
namespace {

TEST(ScenarioGen, DeterministicInSeed) {
  ScenarioGen a(7);
  ScenarioGen b(7);
  bool any_fault = false;
  bool any_fleet = false;
  for (int i = 0; i < 30; ++i) {
    const Scenario sa = a.next();
    const Scenario sb = b.next();
    EXPECT_EQ(sa, sb) << "scenario " << i << " diverged";
    any_fault |= sa.fault_scale > 0.0;
    any_fleet |= sa.fleet;
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(any_fleet);
  EXPECT_EQ(a.generated(), 30u);
}

TEST(ScenarioGen, DifferentSeedsDiverge) {
  ScenarioGen a(7);
  ScenarioGen b(8);
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) diverged = !(a.next() == b.next());
  EXPECT_TRUE(diverged);
}

TEST(ScenarioGen, SamplesAreValid) {
  ScenarioGen gen(11);
  for (int i = 0; i < 50; ++i) {
    const Scenario s = gen.next();
    EXPECT_TRUE(find_app(s.app)) << s.app;
    EXPECT_GE(s.duration_ms, 1500);
    EXPECT_LE(s.duration_ms, 5000);
    EXPECT_FALSE(s.rates.empty());
    // Every sample must expand without tripping any config validation.
    const harness::ExperimentConfig cfg = s.experiment_config();
    EXPECT_EQ(cfg.duration.ticks, s.duration().ticks);
  }
}

TEST(ScenarioIo, DefaultRoundTrips) {
  const Scenario s;
  const std::string text = scenario_to_string(s);
  std::string error;
  const auto parsed = parse_scenario(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
}

TEST(ScenarioIo, EveryFieldRoundTrips) {
  Scenario s;
  s.app = "TempleRun";
  s.mode = device::ControlMode::kSectionHysteresis;
  s.duration_ms = 4321;
  s.seed = 0xdeadbeefULL;
  s.grid = "36k";
  s.eval_ms = 150;
  s.boost_hold_ms = 750;
  s.meter_window_ms = 500;
  s.alpha = 0.25;
  s.rates = {24, 48, 96};
  s.baseline_hz = 96;
  s.min_hz = 24;
  s.boost_hz = 96;
  s.fast_rate_up = true;
  s.fault_scale = 1.5;
  s.fault_until_ms = 2000;
  s.fault_classes = {true, false, true, false, true};
  s.fleet = true;
  s.script = std::vector<input::TouchGesture>{
      // Taps serialize without a duration and parse back with the canonical
      // 60 ms dwell, so only that dwell round-trips exactly.
      {sim::Time{} + sim::milliseconds(100), sim::milliseconds(60),
       input::TouchGesture::Kind::kTap, {360, 640}, {360, 640}},
      {sim::Time{} + sim::milliseconds(900), sim::milliseconds(240),
       input::TouchGesture::Kind::kSwipe, {100, 1000}, {600, 300}},
  };
  const std::string text = scenario_to_string(s);
  std::string error;
  const auto parsed = parse_scenario(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
  // Serialization is canonical: re-serializing the parse is byte-identical.
  EXPECT_EQ(scenario_to_string(*parsed), text);
}

TEST(ScenarioIo, GeneratedScenariosRoundTrip) {
  ScenarioGen gen(3);
  for (int i = 0; i < 50; ++i) {
    const Scenario s = gen.next();
    std::string error;
    const auto parsed = parse_scenario(scenario_to_string(s), &error);
    ASSERT_TRUE(parsed) << "scenario " << i << ": " << error;
    EXPECT_EQ(*parsed, s) << "scenario " << i;
  }
}

TEST(ScenarioIo, ReproFileParsesThroughHeader) {
  Scenario s;
  s.duration_ms = 777;
  const std::string repro =
      repro_to_string(s, {"I6 span: something", "unculled: other"});
  std::string error;
  const auto parsed = parse_scenario(repro, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
}

TEST(ScenarioIo, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_scenario("", &error));
  EXPECT_FALSE(parse_scenario("schema = wrong-schema\n", &error));
  EXPECT_FALSE(
      parse_scenario("schema = ccdem-repro-v1\nnot_a_key = 1\n", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      parse_scenario("schema = ccdem-repro-v1\nduration_ms = 12abc\n", &error));
  EXPECT_FALSE(
      parse_scenario("schema = ccdem-repro-v1\nalpha = nan\n", &error));
  EXPECT_FALSE(
      parse_scenario("schema = ccdem-repro-v1\nmode = warp-drive\n", &error));
  EXPECT_FALSE(parse_scenario(
      "schema = ccdem-repro-v1\nbegin_script\ngarbage\nend_script\n", &error));
}

TEST(ScenarioIo, RejectsDuplicateKeys) {
  // A repro with a key twice is ambiguous: rejected, naming key and line.
  std::string error;
  EXPECT_FALSE(parse_scenario(
      "schema = ccdem-repro-v1\nseed = 1\nseed = 2\n", &error));
  EXPECT_NE(error.find("duplicate key 'seed'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(ScenarioIo, UnknownAppIsReportedByCheck) {
  Scenario s;
  s.app = "No Such App";
  const CheckReport r = check_scenario(s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.failures.front().find("unknown app"), std::string::npos);
}

// Embedding the seed's own Monkey script must replay bit-identically to
// leaving the script implicit -- this is what lets the minimizer materialize
// and then delta-debug the gesture list without changing behaviour.
TEST(Dst, EmbeddedMonkeyScriptReplaysIdentically) {
  Scenario implicit;
  implicit.app = "Anipang";
  implicit.duration_ms = 3000;
  implicit.seed = 2;  // this seed's Monkey stream emits several gestures

  Scenario embedded = implicit;
  const auto app = find_app(implicit.app);
  ASSERT_TRUE(app);
  sim::Rng root(implicit.seed);
  sim::Rng monkey = root.fork(device::SimulatedDevice::kMonkeyRngStream);
  embedded.script = input::generate_monkey_script(
      monkey, app->monkey, implicit.duration(), apps::kGalaxyS3Screen);
  ASSERT_FALSE(embedded.script->empty());

  const RunArtifacts a = run_scenario_once(implicit.experiment_config());
  const RunArtifacts b = run_scenario_once(embedded.experiment_config());
  EXPECT_EQ(a.trace_csv, b.trace_csv);
  EXPECT_FALSE(diff_results(a.result, b.result, "embedded-script"))
      << *diff_results(a.result, b.result, "embedded-script");
}

TEST(Dst, DefaultScenarioPassesAllOracles) {
  const CheckReport r = check_scenario(Scenario{});
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Dst, FaultedScenarioPassesAllOracles) {
  Scenario s;
  s.app = "Geometry Dash";
  s.duration_ms = 2000;
  s.fault_scale = 1.5;
  s.seed = 9;
  const CheckReport r = check_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Dst, SmallFuzzCampaignIsClean) {
  FuzzOptions options;
  options.seed = 20260805;
  options.scenarios = 12;
  options.gen.max_duration_ms = 2500;
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options);
  ASSERT_TRUE(report.ok()) << [&] {
    std::string all;
    for (const FuzzFailure& f : report.failures) {
      for (const std::string& m : f.failures) all += m + "\n";
    }
    return all;
  }();
  EXPECT_EQ(report.scenarios_run, 12);
}

}  // namespace
}  // namespace ccdem::check
