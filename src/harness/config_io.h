// Experiment configuration files.
//
// A small key = value format so experiments can be described, versioned and
// replayed without recompiling:
//
//     # jelly.conf
//     app          = Jelly Splash
//     mode         = section+boost     # baseline | section | section+boost |
//                                      # naive | hysteresis | e3 | pipeline
//     pipeline     = section,hysteresis,boost  # required (and only valid)
//                                      # when mode = pipeline; ordered stage
//                                      # list, no duplicates, needs a rate
//                                      # source (section|naive|predictive)
//     seconds      = 30
//     seed         = 7
//     grid         = 9k                # 2k | 4k | 9k | 36k | full
//     eval_ms      = 100
//     boost_hold_ms= 500
//     alpha        = 0.5
//     rates        = 20,24,30,40,60    # panel ladder (all > 0)
//     baseline_hz  = 60                # must be a member of `rates`
//     min_hz       = 24                # controller floor; member of `rates`
//     boost_hz     = 60                # boost target; member of `rates`
//     fault_scale  = 1.0               # x FaultPlan::nominal(); 0 = clean
//     pressure_scale = 1.0             # x FaultPlan::pressure_nominal()
//
// The file follows the repo's key = value rules (sim/kv_text.h): `#`
// comments, unknown and duplicated keys rejected, numbers parsed whole
// ("12abc", NaN and infinity are errors), messages carry the line number.
// Bounds: seconds, eval_ms and the *_hz keys are positive, boost_hold_ms
// and the scales non-negative, alpha in [0, 1], each rate in 1..1000.  The
// rung keys must be members of `rates`, and `pipeline` must be present iff
// mode = pipeline -- a config that parses is a config that runs.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace ccdem::harness {

/// Parses a config; std::nullopt on error with a message in `error`.
[[nodiscard]] std::optional<ExperimentConfig> parse_experiment_config(
    std::istream& is, std::string* error = nullptr);

[[nodiscard]] std::optional<ExperimentConfig> parse_experiment_config_string(
    const std::string& text, std::string* error = nullptr);

/// Renders a config back to the same format.  Parsing the text gives back
/// every key the format writes, with two limits: `seconds` holds whole
/// seconds only, and `fault_scale` / `pressure_scale` are parse-only --
/// they expand into a FaultPlan that the text cannot express, so a config's
/// fault plan is not written.
[[nodiscard]] std::string experiment_config_to_string(
    const ExperimentConfig& config);

/// The cross-field rules shared by configs and ccdem-repro-v1 scenarios:
/// each non-zero rung (baseline_hz, min_hz, boost_hz) must be in `rates`,
/// and a pipeline spec must be present iff mode = pipeline.  Returns the
/// error, or std::nullopt.
[[nodiscard]] std::optional<std::string> cross_field_error(
    ControlMode mode, bool has_pipeline, const std::vector<int>& rates,
    int baseline_hz, int min_hz, int boost_hz);

}  // namespace ccdem::harness
