#include "harness/config_io.h"

#include <gtest/gtest.h>

namespace ccdem::harness {
namespace {

TEST(ConfigIo, ParsesFullConfig) {
  const std::string text =
      "# demo config\n"
      "app = Jelly Splash\n"
      "mode = section+boost\n"
      "seconds = 42\n"
      "seed = 99\n"
      "grid = 36k\n"
      "eval_ms = 250\n"
      "boost_hold_ms = 750\n"
      "alpha = 0.75\n";
  std::string error;
  const auto config = parse_experiment_config_string(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->app.name, "Jelly Splash");
  EXPECT_EQ(config->mode, ControlMode::kSectionWithBoost);
  EXPECT_EQ(config->duration, sim::seconds(42));
  EXPECT_EQ(config->seed, 99u);
  EXPECT_EQ(config->dpm.meter.grid.sample_count(),
            core::GridSpec::grid_36k().sample_count());
  EXPECT_EQ(config->dpm.meter.eval_period, sim::milliseconds(250));
  EXPECT_EQ(config->dpm.boost_hold, sim::milliseconds(750));
  EXPECT_DOUBLE_EQ(config->dpm.section_alpha, 0.75);
}

TEST(ConfigIo, DefaultsApplyForOmittedKeys) {
  const auto config = parse_experiment_config_string("app = Facebook\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->mode, ControlMode::kBaseline60);
  EXPECT_EQ(config->duration, sim::seconds(60));
}

TEST(ConfigIo, AllModesParse) {
  for (const char* mode :
       {"baseline", "section", "section+boost", "naive", "hysteresis",
        "e3"}) {
    const auto config = parse_experiment_config_string(
        std::string("app = Facebook\nmode = ") + mode + "\n");
    EXPECT_TRUE(config.has_value()) << mode;
  }
}

// --- pipeline mode: the spec key is mandatory, strict, and paired -------

TEST(ConfigIo, ParsesPipelineModeWithSpec) {
  const auto config = parse_experiment_config_string(
      "app = Facebook\nmode = pipeline\n"
      "pipeline = section, hysteresis ,boost\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->mode, ControlMode::kPipeline);
  EXPECT_EQ(config->pipeline.to_string(), "section,hysteresis,boost");
}

TEST(ConfigIo, PipelineModeRoundTrips) {
  ExperimentConfig config;
  config.app = apps::app_by_name("Facebook");
  config.mode = ControlMode::kPipeline;
  const auto spec = core::PipelineSpec::parse("predictive,boost,dvfs", nullptr);
  ASSERT_TRUE(spec.has_value());
  config.pipeline = *spec;
  const auto back =
      parse_experiment_config_string(experiment_config_to_string(config));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mode, ControlMode::kPipeline);
  EXPECT_EQ(back->pipeline.to_string(), "predictive,boost,dvfs");
}

TEST(ConfigIo, RejectsBadPipelineSpecs) {
  const char* bad[] = {
      "pipeline = section,florp\n",       // unknown stage
      "pipeline = section,section\n",     // duplicate stage
      "pipeline = \n",                    // empty spec
      "pipeline = boost\n",               // no rate source
      "pipeline = hysteresis,section\n",  // hysteresis before its source
  };
  for (const char* line : bad) {
    std::string error;
    EXPECT_FALSE(parse_experiment_config_string(
        std::string("app = Facebook\nmode = pipeline\n") + line, &error))
        << line;
    EXPECT_NE(error.find("pipeline"), std::string::npos) << line;
  }
}

TEST(ConfigIo, RejectsPipelineKeyModePairingViolations) {
  std::string error;
  // mode = pipeline without the spec key...
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nmode = pipeline\n", &error));
  EXPECT_NE(error.find("pipeline"), std::string::npos);
  // ...and a spec key under a legacy mode (key order must not matter).
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\npipeline = section\nmode = section\n", &error));
  EXPECT_NE(error.find("pipeline"), std::string::npos);
  // Duplicate spec keys are a conflict, not last-wins.
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nmode = pipeline\npipeline = section\n"
      "pipeline = naive\n",
      &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(ConfigIo, RejectsUnknownApp) {
  std::string error;
  EXPECT_FALSE(
      parse_experiment_config_string("app = Nonexistent\n", &error));
  EXPECT_NE(error.find("Nonexistent"), std::string::npos);
}

TEST(ConfigIo, RejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nbrightnes = 50\n", &error));
  EXPECT_NE(error.find("brightnes"), std::string::npos);
}

TEST(ConfigIo, RejectsMissingApp) {
  std::string error;
  EXPECT_FALSE(parse_experiment_config_string("mode = section\n", &error));
  EXPECT_NE(error.find("app"), std::string::npos);
}

TEST(ConfigIo, RejectsMalformedLine) {
  std::string error;
  EXPECT_FALSE(
      parse_experiment_config_string("app = Facebook\nnonsense\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ConfigIo, RejectsBadValues) {
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nseconds = -3\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nalpha = 1.5\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\ngrid = 17k\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nmode = turbo\n"));
}

// --- strict numeric parsing: each rejection carries a descriptive error ---

TEST(ConfigIo, RejectsNanAndInf) {
  for (const char* bad :
       {"alpha = nan\n", "alpha = inf\n", "alpha = -inf\n",
        "fault_scale = nan\n", "fault_scale = inf\n"}) {
    std::string error;
    EXPECT_FALSE(parse_experiment_config_string(
        std::string("app = Facebook\n") + bad, &error))
        << bad;
    EXPECT_NE(error.find("bad value"), std::string::npos) << bad;
  }
}

TEST(ConfigIo, RejectsTrailingGarbageOnNumbers) {
  for (const char* bad :
       {"seconds = 12abc\n", "seed = 7seven\n", "eval_ms = 100ms\n",
        "boost_hold_ms = 1e2x\n", "alpha = 0.5!\n", "baseline_hz = 60Hz\n"}) {
    std::string error;
    EXPECT_FALSE(parse_experiment_config_string(
        std::string("app = Facebook\n") + bad, &error))
        << bad;
    EXPECT_NE(error.find("bad value"), std::string::npos) << bad;
  }
}

TEST(ConfigIo, RejectsNegativeThresholds) {
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nboost_hold_ms = -1\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\neval_ms = 0\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nalpha = -0.1\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nfault_scale = -1\n"));
}

TEST(ConfigIo, RejectsNonPositiveRefreshRates) {
  std::string error;
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nrates = 20,0,60\n", &error));
  EXPECT_NE(error.find("rates"), std::string::npos);
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nrates = -30\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nrates = \n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nbaseline_hz = 0\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nmin_hz = -24\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nboost_hz = 0\n"));
}

TEST(ConfigIo, RejectsRatesOutsideTheLadder) {
  // Membership is checked after the whole file parses, so key order must
  // not matter.
  std::string error;
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nbaseline_hz = 45\n", &error));
  EXPECT_NE(error.find("baseline_hz"), std::string::npos);
  EXPECT_NE(error.find("45"), std::string::npos);
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nmin_hz = 25\nrates = 20,24,30,40,60\n"));
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nrates = 30,60\nboost_hz = 40\n"));
  EXPECT_TRUE(parse_experiment_config_string(
      "app = Facebook\nbaseline_hz = 40\nrates = 20,40\n"));
}

TEST(ConfigIo, ParsesRatesAndHzKeys) {
  const auto config = parse_experiment_config_string(
      "app = Facebook\nrates = 30, 60, 90\nbaseline_hz = 60\n"
      "min_hz = 30\nboost_hz = 90\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->rates.count(), 3u);
  EXPECT_EQ(config->rates.max_hz(), 90);
  EXPECT_EQ(config->baseline_hz, 60);
  EXPECT_EQ(config->dpm.min_hz, 30);
  EXPECT_EQ(config->dpm.boost_hz, 90);
}

TEST(ConfigIo, FaultScaleBuildsAPlan) {
  const auto clean = parse_experiment_config_string(
      "app = Facebook\nfault_scale = 0\n");
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->fault.empty());

  const auto faulted = parse_experiment_config_string(
      "app = Facebook\nfault_scale = 2.0\n");
  ASSERT_TRUE(faulted.has_value());
  EXPECT_FALSE(faulted->fault.empty());
  EXPECT_DOUBLE_EQ(faulted->fault.switch_nak_p,
                   fault::FaultPlan::nominal().switch_nak_p * 2.0);
}

TEST(ConfigIo, RoundTrips) {
  ExperimentConfig config;
  config.app = apps::app_by_name("Daum Maps");
  config.mode = ControlMode::kSectionHysteresis;
  config.duration = sim::seconds(17);
  config.seed = 1234;
  config.dpm.meter.grid = core::GridSpec::grid_2k();
  config.dpm.meter.eval_period = sim::milliseconds(150);
  config.dpm.boost_hold = sim::milliseconds(400);
  config.dpm.section_alpha = 0.25;
  config.rates = display::RefreshRateSet{30, 60, 90};
  config.baseline_hz = 60;
  config.dpm.min_hz = 30;
  config.dpm.boost_hz = 90;

  const auto back =
      parse_experiment_config_string(experiment_config_to_string(config));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->app.name, config.app.name);
  EXPECT_EQ(back->mode, config.mode);
  EXPECT_EQ(back->duration, config.duration);
  EXPECT_EQ(back->seed, config.seed);
  EXPECT_EQ(back->dpm.meter.grid.sample_count(),
            config.dpm.meter.grid.sample_count());
  EXPECT_EQ(back->dpm.meter.eval_period, config.dpm.meter.eval_period);
  EXPECT_EQ(back->dpm.boost_hold, config.dpm.boost_hold);
  EXPECT_DOUBLE_EQ(back->dpm.section_alpha, config.dpm.section_alpha);
  EXPECT_EQ(back->rates.rates(), config.rates.rates());
  EXPECT_EQ(back->baseline_hz, config.baseline_hz);
  EXPECT_EQ(back->dpm.min_hz, config.dpm.min_hz);
  EXPECT_EQ(back->dpm.boost_hz, config.dpm.boost_hz);

  // alpha is written as the shortest decimal that reads back exactly, not
  // rounded to six significant digits.
  config.dpm.section_alpha = 0.123456789;
  const std::string text = experiment_config_to_string(config);
  EXPECT_NE(text.find("alpha = 0.123456789\n"), std::string::npos) << text;
  const auto precise = parse_experiment_config_string(text);
  ASSERT_TRUE(precise.has_value());
  EXPECT_EQ(precise->dpm.section_alpha, 0.123456789);
  EXPECT_EQ(experiment_config_to_string(*precise), text);
}

TEST(ConfigIo, RejectsDuplicateKeys) {
  // A repeated key is a conflict, not last-wins: the error names the key
  // and the line of the second occurrence.
  std::string error;
  EXPECT_FALSE(parse_experiment_config_string(
      "app = Facebook\nseed = 1\nseed = 2\n", &error));
  EXPECT_NE(error.find("duplicate key 'seed'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  const auto config = parse_experiment_config_string(
      "\n# leading comment\napp = Naver   # trailing comment\n\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->app.name, "Naver");
}

}  // namespace
}  // namespace ccdem::harness
