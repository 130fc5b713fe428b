#include "check/scenario.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>
#include <utility>

#include "apps/app_profiles.h"
#include "apps/scene_dsl.h"
#include "fault/fault_plan.h"
#include "harness/config_io.h"
#include "input/script_io.h"
#include "sim/kv_text.h"

namespace ccdem::check {

namespace {

using F = sim::kv::Field<Scenario>;

/// A "none" or comma list of class names, each naming a flag of C.
template <class C, std::size_t N>
F class_set(std::string_view key, C Scenario::*member,
            const std::pair<const char*, bool C::*> (&names)[N],
            F::When when) {
  return {key,
          [=](Scenario& s, std::string_view v, std::string&) {
            C set;
            for (const auto& [name, flag] : names) set.*flag = false;
            if (v != "none") {
              for (const std::string& item : sim::kv::split_list(v)) {
                const auto* it = std::find_if(
                    std::begin(names), std::end(names),
                    [&](const auto& n) { return item == n.first; });
                if (it == std::end(names)) return false;
                set.*(it->second) = true;
              }
            }
            s.*member = set;
            return true;
          },
          [=](const Scenario& s) {
            std::string out;
            for (const auto& [name, flag] : names) {
              if (!((s.*member).*flag)) continue;
              if (!out.empty()) out += ",";
              out += name;
            }
            return out.empty() ? std::string("none") : out;
          },
          std::move(when)};
}

constexpr std::pair<const char*, bool FaultClasses::*> kFaultClasses[] = {
    {"switching", &FaultClasses::switching},
    {"stuck", &FaultClasses::stuck},
    {"capability", &FaultClasses::capability},
    {"touch", &FaultClasses::touch},
    {"meter", &FaultClasses::meter},
};
constexpr std::pair<const char*, bool PressureClasses::*> kPressureClasses[] = {
    {"thermal", &PressureClasses::thermal},
    {"brownout", &PressureClasses::brownout},
    {"jitter", &PressureClasses::jitter},
};

bool faulted(const Scenario& s) { return s.fault_scale > 0.0; }
bool pressured(const Scenario& s) { return s.pressure_scale > 0.0; }

// Fields with context-dependent defaults are always written, so a missing
// key means a hand-edited file.  The pressure keys, the scene block and the
// script block exist only when set, so every repro written before them
// stays byte-identical.
const std::vector<F>& fields() {
  static const std::vector<F> kFields = {
      F::schema("ccdem-repro-v1"),
      {"app",
       [](Scenario& s, std::string_view v, std::string&) {
         s.app = v;
         return find_app(s.app).has_value();
       },
       [](const Scenario& s) { return s.app; }},
      F::keyword("mode", &Scenario::mode, device::control_mode_from_keyword,
                 device::control_mode_keyword),
      // Stored canonically, so round-trip is byte-exact regardless of the
      // input's spacing.
      {"pipeline",
       [](Scenario& s, std::string_view v, std::string& why) {
         const auto ps = core::PipelineSpec::parse(v, &why);
         if (ps) s.pipeline = ps->to_string();
         return ps.has_value();
       },
       [](const Scenario& s) { return s.pipeline; },
       [](const Scenario& s) {
         return s.mode == device::ControlMode::kPipeline;
       }},
      F::num("duration_ms", &Scenario::duration_ms, 1, 600'000),
      F::num("seed", &Scenario::seed),
      {"grid",
       [](Scenario& s, std::string_view v, std::string&) {
         s.grid = v;
         return core::GridSpec::from_keyword(v).has_value();
       },
       [](const Scenario& s) { return s.grid; }},
      F::num("eval_ms", &Scenario::eval_ms, 1, 10'000),
      F::num("boost_hold_ms", &Scenario::boost_hold_ms, 0, 60'000),
      F::num("meter_window_ms", &Scenario::meter_window_ms, 1, 60'000),
      F::num("alpha", &Scenario::alpha, 0.0, 1.0),
      F::list("rates", &Scenario::rates, 1, 1000),
      F::num("baseline_hz", &Scenario::baseline_hz, 0, 1000),
      F::num("min_hz", &Scenario::min_hz, 0, 1000),
      F::num("boost_hz", &Scenario::boost_hz, 0, 1000),
      F::num("fast_rate_up", &Scenario::fast_rate_up),
      F::num("fault_scale", &Scenario::fault_scale, 0.0, 100.0),
      F::num("fault_until_ms", &Scenario::fault_until_ms, 0, 600'000,
             faulted),
      class_set("fault_classes", &Scenario::fault_classes, kFaultClasses,
                faulted),
      F::num("pressure_scale", &Scenario::pressure_scale, 0.0, 100.0,
             pressured),
      F::num("pressure_until_ms", &Scenario::pressure_until_ms, 0, 600'000,
             pressured),
      class_set("pressure_classes", &Scenario::pressure_classes,
                kPressureClasses, pressured),
      F::num("fleet", &Scenario::fleet),
      {"scene",
       [](Scenario& s, std::string_view v, std::string& why) {
         const auto scene = apps::scene_spec_from_string(std::string(v), &why);
         if (scene) s.scene = apps::scene_spec_to_string(*scene);
         return scene.has_value();
       },
       [](const Scenario& s) { return s.scene; },
       [](const Scenario& s) { return !s.scene.empty(); },
       sim::kv::Kind::kBlock},
      {"script",
       [](Scenario& s, std::string_view v, std::string& why) {
         s.script = input::script_from_string(std::string(v), &why);
         return s.script.has_value();
       },
       [](const Scenario& s) { return input::script_to_string(*s.script); },
       [](const Scenario& s) { return s.script.has_value(); },
       sim::kv::Kind::kBlock},
  };
  return kFields;
}

}  // namespace

std::optional<apps::AppSpec> find_app(const std::string& name) {
  return apps::find_profile(name);
}

core::GridSpec Scenario::grid_spec() const {
  const auto g = core::GridSpec::from_keyword(grid);
  assert(g && "invalid grid keyword; parse_scenario validates this");
  return *g;
}

harness::ExperimentConfig Scenario::experiment_config() const {
  const auto spec = find_app(app);
  assert(spec && "unknown app; parse_scenario validates this");
  harness::ExperimentConfig cfg;
  cfg.app = *spec;
  if (!scene.empty()) {
    const auto ss = apps::scene_spec_from_string(scene, nullptr);
    assert(ss && "invalid scene DSL; parse_scenario validates this");
    cfg.app.scene = *ss;
  }
  cfg.mode = mode;
  if (mode == device::ControlMode::kPipeline) {
    const auto ps = core::PipelineSpec::parse(pipeline, nullptr);
    assert(ps && "invalid pipeline spec; parse_scenario validates this");
    cfg.pipeline = *ps;
  }
  cfg.duration = duration();
  cfg.seed = seed;
  cfg.dpm.meter.grid = grid_spec();
  cfg.dpm.meter.eval_period = sim::milliseconds(eval_ms);
  cfg.dpm.boost_hold = sim::milliseconds(boost_hold_ms);
  cfg.dpm.meter.window = sim::milliseconds(meter_window_ms);
  cfg.dpm.section_alpha = alpha;
  cfg.dpm.min_hz = min_hz;
  cfg.dpm.boost_hz = boost_hz;
  // The E3 governor shares the metering knobs, so one scenario drives both
  // controller families.
  cfg.governor.meter = cfg.dpm.meter;
  cfg.rates = display::RefreshRateSet(rates);
  cfg.baseline_hz = baseline_hz;
  cfg.fast_rate_up = fast_rate_up;
  if (fault_scale > 0.0) {
    fault::FaultPlan plan = fault::FaultPlan::nominal().scaled(fault_scale);
    if (!fault_classes.switching) {
      plan.switch_nak_p = 0.0;
      plan.switch_delay_p = 0.0;
    }
    if (!fault_classes.stuck) plan.stuck_per_s = 0.0;
    if (!fault_classes.capability) plan.capability_loss_per_s = 0.0;
    if (!fault_classes.touch) {
      plan.touch_drop_p = 0.0;
      plan.touch_dup_p = 0.0;
      plan.touch_delay_p = 0.0;
    }
    if (!fault_classes.meter) plan.meter_bitflip_p = 0.0;
    if (fault_until_ms > 0) {
      plan.active_until = sim::Time{sim::milliseconds(fault_until_ms).ticks};
    }
    cfg.fault = plan;
  }
  if (pressure_scale > 0.0) {
    // Overlay the pressure half onto whatever the fault half set above --
    // the two halves never write the same fields.
    const fault::FaultPlan p =
        fault::FaultPlan::pressure_nominal().scaled(pressure_scale);
    if (pressure_classes.thermal) cfg.fault.thermal_per_s = p.thermal_per_s;
    if (pressure_classes.brownout) cfg.fault.brownout_per_s = p.brownout_per_s;
    if (pressure_classes.jitter) cfg.fault.jitter_per_s = p.jitter_per_s;
    if (pressure_until_ms > 0) {
      cfg.fault.pressure_until =
          sim::Time{sim::milliseconds(pressure_until_ms).ticks};
    }
  }
  cfg.script = script;
  return cfg;
}

std::string scenario_to_string(const Scenario& s) {
  return sim::kv::write(fields(), s);
}

std::string repro_to_string(const Scenario& s,
                            const std::vector<std::string>& failures) {
  std::ostringstream os;
  for (const std::string& f : failures) {
    // One comment line per failure; newlines inside a message would escape
    // the comment, so flatten them.
    std::string flat = f;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    os << "# failure: " << flat << "\n";
  }
  os << scenario_to_string(s);
  return os.str();
}

std::optional<Scenario> parse_scenario(const std::string& text,
                                       std::string* error) {
  Scenario s;
  if (!sim::kv::parse(text, fields(), s, error)) return std::nullopt;
  if (const auto why = harness::cross_field_error(
          s.mode, !s.pipeline.empty(), s.rates, s.baseline_hz, s.min_hz,
          s.boost_hz)) {
    if (error != nullptr) *error = *why;
    return std::nullopt;
  }
  // A clean scenario must not carry fault-only keys into the canonical form.
  if (s.fault_scale == 0.0) {
    s.fault_until_ms = 0;
    s.fault_classes = FaultClasses{};
  }
  if (s.pressure_scale == 0.0) {
    s.pressure_until_ms = 0;
    s.pressure_classes = PressureClasses{};
  }
  return s;
}

}  // namespace ccdem::check
