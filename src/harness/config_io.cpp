#include "harness/config_io.h"

#include <functional>
#include <istream>
#include <iterator>

#include "sim/kv_text.h"

namespace ccdem::harness {

namespace {

using F = sim::kv::Field<ExperimentConfig>;
using sim::kv::parse_as;

/// A duration written as a whole number (>= lo) of `unit`.
template <class Acc>
F duration(std::string_view key, Acc acc, sim::Duration unit, int lo) {
  return {key,
          [=](ExperimentConfig& c, std::string_view v, std::string&) {
            const auto n = parse_as<int>(v);
            if (!n || *n < lo) return false;
            std::invoke(acc, c) = unit * *n;
            return true;
          },
          [=](const ExperimentConfig& c) {
            return std::to_string(std::invoke(acc, c).ticks / unit.ticks);
          }};
}

/// A rate-ladder rung; 0 (unset) is not written.
template <class Acc>
F rung(std::string_view key, Acc acc) {
  return F::num(key, acc, 1, 1000, [=](const ExperimentConfig& c) {
    return std::invoke(acc, c) > 0;
  });
}

/// Copies the pressure half of a plan, which fault_scale never sets.
void set_pressure(fault::FaultPlan& to, const fault::FaultPlan& from) {
  to.thermal_per_s = from.thermal_per_s;
  to.brownout_per_s = from.brownout_per_s;
  to.jitter_per_s = from.jitter_per_s;
}

const std::vector<F>& fields() {
  static const std::vector<F> kFields = {
      // find_profile spans the paper's 30 apps, the accuracy-study
      // wallpaper and the scene-demo profiles.
      {"app",
       [](ExperimentConfig& c, std::string_view v, std::string&) {
         const auto spec = apps::find_profile(std::string(v));
         if (spec) c.app = *spec;
         return spec.has_value();
       },
       [](const ExperimentConfig& c) { return c.app.name; }, nullptr,
       sim::kv::Kind::kRequired},
      F::keyword("mode", &ExperimentConfig::mode,
                 device::control_mode_from_keyword,
                 device::control_mode_keyword),
      {"pipeline",
       [](ExperimentConfig& c, std::string_view v, std::string& why) {
         const auto spec = core::PipelineSpec::parse(v, &why);
         if (spec) c.pipeline = *spec;
         return spec.has_value();
       },
       [](const ExperimentConfig& c) { return c.pipeline.to_string(); },
       [](const ExperimentConfig& c) {
         return c.mode == ControlMode::kPipeline;
       }},
      duration("seconds", &ExperimentConfig::duration, sim::seconds(1), 1),
      F::num("seed", &ExperimentConfig::seed),
      F::keyword(
          "grid", [](auto& c) -> auto& { return c.dpm.meter.grid; },
          &core::GridSpec::from_keyword, &core::GridSpec::keyword),
      duration(
          "eval_ms", [](auto& c) -> auto& { return c.dpm.meter.eval_period; },
          sim::milliseconds(1), 1),
      duration(
          "boost_hold_ms", [](auto& c) -> auto& { return c.dpm.boost_hold; },
          sim::milliseconds(1), 0),
      F::num(
          "alpha", [](auto& c) -> auto& { return c.dpm.section_alpha; }, 0.0,
          1.0),
      {"rates",
       [](ExperimentConfig& c, std::string_view v, std::string&) {
         const auto r = sim::kv::parse_list(v, 1, 1000);
         if (r) c.rates = display::RefreshRateSet(*r);
         return r.has_value();
       },
       [](const ExperimentConfig& c) {
         return sim::kv::join(c.rates.rates());
       }},
      rung("baseline_hz", &ExperimentConfig::baseline_hz),
      rung("min_hz", [](auto& c) -> auto& { return c.dpm.min_hz; }),
      rung("boost_hz", [](auto& c) -> auto& { return c.dpm.boost_hz; }),
      // Parse-only: each scale expands into its half of the FaultPlan and
      // keeps the other half, so the two compose in either order.
      {"fault_scale",
       [](ExperimentConfig& c, std::string_view v, std::string&) {
         const auto f = parse_as<double>(v);
         if (!f || *f < 0.0) return false;
         fault::FaultPlan plan = *f > 0.0
                                     ? fault::FaultPlan::nominal().scaled(*f)
                                     : fault::FaultPlan{};
         set_pressure(plan, c.fault);
         c.fault = plan;
         return true;
       },
       nullptr},
      {"pressure_scale",
       [](ExperimentConfig& c, std::string_view v, std::string&) {
         const auto f = parse_as<double>(v);
         if (!f || *f < 0.0) return false;
         set_pressure(c.fault,
                      fault::FaultPlan::pressure_nominal().scaled(*f));
         return true;
       },
       nullptr},
  };
  return kFields;
}

}  // namespace

std::optional<std::string> cross_field_error(ControlMode mode,
                                             bool has_pipeline,
                                             const std::vector<int>& rates,
                                             int baseline_hz, int min_hz,
                                             int boost_hz) {
  if (mode == ControlMode::kPipeline && !has_pipeline) {
    return "mode = pipeline requires a 'pipeline' key";
  }
  if (has_pipeline && mode != ControlMode::kPipeline) {
    return "'pipeline' is only valid with mode = pipeline";
  }
  const display::RefreshRateSet ladder{rates};
  for (const auto& [key, hz] : {std::pair{"baseline_hz", baseline_hz},
                                {"min_hz", min_hz},
                                {"boost_hz", boost_hz}}) {
    if (hz > 0 && !ladder.supports(hz)) {
      return std::string(key) + " = " + std::to_string(hz) +
             " is not in the configured rate set";
    }
  }
  return std::nullopt;
}

std::optional<ExperimentConfig> parse_experiment_config(std::istream& is,
                                                        std::string* error) {
  return parse_experiment_config_string(
      std::string(std::istreambuf_iterator<char>(is), {}), error);
}

std::optional<ExperimentConfig> parse_experiment_config_string(
    const std::string& text, std::string* error) {
  ExperimentConfig config;
  if (!sim::kv::parse(text, fields(), config, error)) return std::nullopt;
  if (const auto why = cross_field_error(
          config.mode, !config.pipeline.empty(), config.rates.rates(),
          config.baseline_hz, config.dpm.min_hz, config.dpm.boost_hz)) {
    if (error != nullptr) *error = *why;
    return std::nullopt;
  }
  return config;
}

std::string experiment_config_to_string(const ExperimentConfig& config) {
  return sim::kv::write(fields(), config);
}

}  // namespace ccdem::harness
