// Pressure-envelope sweep: power, quality and ladder behaviour vs system
// pressure (thermal throttling, battery brownout, vsync jitter storms).
//
// The degradation ladder (src/core/policy_stages.h, DESIGN.md section 13)
// promises deterministic, rung-ordered shedding under pressure and a
// bounded-time return to rung 0 once the last episode clears.  This bench
// measures both halves: it sweeps scaled multiples of the nominal pressure
// plan over three representative workloads (a feed, a game and a video
// player), records power / delivered quality / every pressure and ladder
// counter for a serial arm AND a work-stealing fleet arm (which must agree
// bit-exactly), then runs a recovery leg per workload where the pressure
// horizon ends mid-run and the ladder must be back on rung 0 within the
// I8 recovery window.
//
// Writes BENCH_pressure.json (schema ccdem-bench-pressure-v1) and exits
// non-zero when the gate fails: serial/fleet counters diverging, display
// quality at the nominal (1x) pressure rate dropping below 95 %, no
// pressure activity at nominal, or a recovery leg that does not return to
// rung 0 inside the window.
//
// Usage:  bench_pressure_envelope [sim_seconds_per_run] [output.json]
//         CCDEM_BENCH_SECONDS / CCDEM_BENCH_OUT override the defaults
//         (20 s per run, ./BENCH_pressure.json).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_profiles.h"
#include "bench_common.h"
#include "fault/fault_plan.h"
#include "harness/json_writer.h"
#include "metrics/quality.h"
#include "obs/obs.h"

using namespace ccdem;

namespace {

/// Multiples of FaultPlan::pressure_nominal(); 0 is the clean control arm.
constexpr double kScales[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};
constexpr double kNominalScale = 1.0;
/// Recovery legs run at the stress end of the sweep so the ladder actually
/// climbs before the horizon -- recovery from rung 0 proves nothing.
constexpr double kRecoveryScale = 4.0;
constexpr double kQualityGatePct = 95.0;

/// Counters that must be scheduling-independent between the serial and
/// fleet arms (everything is, except pool.* which tracks worker reuse).
bool counters_identical(const obs::Counters& serial,
                        const obs::Counters& fleet) {
  for (const auto& [name, value] : fleet.snapshot().counters) {
    if (name.rfind("pool.", 0) == 0) continue;
    if (serial.value(name) != value) return false;
  }
  for (const auto& [name, value] : serial.snapshot().counters) {
    if (name.rfind("pool.", 0) == 0) continue;
    if (fleet.value(name) != value) return false;
  }
  return true;
}

struct Workload {
  std::string name;
  apps::AppSpec app;
};

/// A feed (bursty, mostly idle -- shedding boost is nearly free), a game
/// (sustained high content rate -- every capped rung costs quality) and a
/// video player (fixed cadence -- jitter storms hit delivered frames
/// directly).
std::vector<Workload> workloads() {
  std::vector<Workload> v;
  v.push_back({"feed", apps::app_by_name("Facebook")});
  v.push_back({"game", apps::app_by_name("Jelly Splash")});
  v.push_back({"video", apps::app_by_name("MX Player")});
  return v;
}

harness::ExperimentConfig pressured_config(const Workload& w, int seconds,
                                           double scale) {
  harness::ExperimentConfig c = bench::make_config(
      w.app, harness::ControlMode::kSectionWithBoost, seconds, /*seed=*/1);
  if (scale > 0.0) {
    c.fault = fault::FaultPlan::pressure_nominal().scaled(scale);
  }
  return c;
}

struct AppCell {
  std::string name;
  double power_mw = 0.0;
  double quality_pct = 0.0;
  std::uint64_t rate_switches = 0;
};

struct ScaleRow {
  double scale = 0.0;
  std::vector<AppCell> apps;
  obs::Counters serial_counters;
  bool identical = false;

  [[nodiscard]] double min_quality_pct() const {
    double q = 100.0;
    for (const AppCell& a : apps) q = std::min(q, a.quality_pct);
    return q;
  }
};

const char* kReportedCounters[] = {
    "pressure.thermal_episodes", "pressure.brownouts",
    "pressure.jitter_storms",    "pressure.vsync_dropped",
    "pressure.vsync_delayed",    "degrade.sheds",
    "degrade.recoveries",        "degrade.caps",
    "degrade.safe_modes",
};

/// Recovery leg result: pressure ends mid-run; I8 demands rung 0 again
/// within the bounded window and no further ladder motion after it.
struct RecoveryLeg {
  std::string name;
  std::int64_t deadline_ms = 0;        ///< pressure end + recovery window
  std::int64_t last_change_ms = -1;    ///< begin of the last kDegrade span
  double final_rung = 0.0;
  bool recovered = false;
};

/// Mirrors the I8 window: the longest residual episode plus a few full
/// hysteresis/cooldown rounds of slack.
std::int64_t recovery_window_ms(const harness::ExperimentConfig& c) {
  const std::int64_t eval_ms =
      c.dpm.meter.eval_period.ticks / sim::kTicksPerMillisecond;
  const std::int64_t cooldown_ms =
      c.dpm.ladder.recovery_cooldown.ticks / sim::kTicksPerMillisecond;
  return 1500 + 4 * (cooldown_ms + eval_ms) + 500;
}

RecoveryLeg run_recovery_leg(const Workload& w, int seconds) {
  harness::ExperimentConfig c = pressured_config(w, seconds, kRecoveryScale);
  const std::int64_t half_ticks = sim::seconds(seconds).ticks / 2;
  c.fault.pressure_until = sim::Time{half_ticks};

  obs::ObsSink sink;
  c.obs = &sink;
  (void)harness::run_experiment(c);

  RecoveryLeg leg;
  leg.name = w.name;
  leg.deadline_ms =
      half_ticks / sim::kTicksPerMillisecond + recovery_window_ms(c);
  for (const obs::Span& s : sink.spans.spans()) {
    if (s.phase != obs::Phase::kDegrade) continue;
    leg.last_change_ms = s.begin.ticks / sim::kTicksPerMillisecond;
  }
  leg.final_rung = sink.counters.gauge_value("degrade.rung");
  leg.recovered =
      leg.final_rung == 0.0 &&
      (leg.last_change_ms < 0 || leg.last_change_ms <= leg.deadline_ms);
  return leg;
}

std::string out_path(int argc, char** argv) {
  if (argc > 2) return argv[2];
  if (const char* env = std::getenv("CCDEM_BENCH_OUT")) return env;
  return "BENCH_pressure.json";
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = bench::run_seconds(argc, argv, 20);
  const std::string path = out_path(argc, argv);
  const std::vector<Workload> loads = workloads();

  harness::print_bench_header(
      std::cout, "Pressure envelope: power / quality vs system pressure",
      std::to_string(seconds) + " s per run, scales 0x-4x nominal");

  // Quality reference: a clean fixed-60 Hz run per workload.  The
  // pressured arms are judged against the content the app would have shown
  // with no rate control and no pressure at all.
  std::vector<harness::ExperimentResult> ideal;
  for (const Workload& w : loads) {
    ideal.push_back(harness::run_experiment(bench::make_config(
        w.app, harness::ControlMode::kBaseline60, seconds, /*seed=*/1)));
  }

  std::vector<ScaleRow> rows;
  for (const double scale : kScales) {
    ScaleRow row;
    row.scale = scale;

    std::vector<harness::ExperimentConfig> configs;
    for (const Workload& w : loads) {
      configs.push_back(pressured_config(w, seconds, scale));
    }

    // Serial arm: one private sink per run, merged -- the ground truth.
    std::vector<harness::ExperimentResult> serial_results;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      harness::ExperimentConfig c = configs[i];
      obs::ObsSink sink;
      sink.spans.set_enabled(false);
      c.obs = &sink;
      serial_results.push_back(harness::run_experiment(c));
      row.serial_counters.merge(sink.counters);
    }

    // Fleet arm: same configs through the work-stealing runner; the
    // merged counters must match the serial totals exactly.
    harness::FleetRunner fleet;
    (void)fleet.run(configs);
    row.identical =
        counters_identical(row.serial_counters, fleet.stats().counters);

    for (std::size_t i = 0; i < loads.size(); ++i) {
      AppCell cell;
      cell.name = loads[i].name;
      cell.power_mw = serial_results[i].mean_power_mw;
      cell.quality_pct =
          metrics::compare_quality(ideal[i].content_rate,
                                   serial_results[i].content_rate)
              .display_quality_pct;
      cell.rate_switches = serial_results[i].rate_switches;
      row.apps.push_back(std::move(cell));
    }
    rows.push_back(std::move(row));
  }

  harness::TextTable table({"scale", "min quality %", "thermal", "brownout",
                            "jitter", "sheds", "safe modes", "counters"});
  for (const ScaleRow& r : rows) {
    table.add_row(
        {harness::fmt(r.scale, 2), harness::fmt(r.min_quality_pct(), 1),
         std::to_string(r.serial_counters.value("pressure.thermal_episodes")),
         std::to_string(r.serial_counters.value("pressure.brownouts")),
         std::to_string(r.serial_counters.value("pressure.jitter_storms")),
         std::to_string(r.serial_counters.value("degrade.sheds")),
         std::to_string(r.serial_counters.value("degrade.safe_modes")),
         r.identical ? "identical" : "DIVERGED"});
  }
  table.print(std::cout);

  // Recovery legs: pressure horizon at mid-run, nominal scale.
  std::vector<RecoveryLeg> legs;
  bool all_recovered = true;
  for (const Workload& w : loads) {
    legs.push_back(run_recovery_leg(w, seconds));
    all_recovered = all_recovered && legs.back().recovered;
  }
  std::cout << "\nrecovery legs (pressure ends at " << seconds / 2 << " s):\n";
  for (const RecoveryLeg& l : legs) {
    std::cout << "  " << l.name << ": last rung change "
              << (l.last_change_ms < 0 ? std::string("none")
                                       : std::to_string(l.last_change_ms) +
                                             " ms")
              << ", deadline " << l.deadline_ms << " ms, final rung "
              << harness::fmt(l.final_rung, 0) << " -> "
              << (l.recovered ? "recovered" : "STUCK") << "\n";
  }

  bool all_identical = true;
  double quality_at_nominal = 100.0;
  std::uint64_t pressure_at_nominal = 0;
  for (const ScaleRow& r : rows) {
    all_identical = all_identical && r.identical;
    if (r.scale == kNominalScale) {
      quality_at_nominal = r.min_quality_pct();
      for (const char* name : kReportedCounters) {
        pressure_at_nominal += r.serial_counters.value(name);
      }
    }
  }
  const bool gate_passed = all_identical &&
                           quality_at_nominal >= kQualityGatePct &&
                           pressure_at_nominal > 0 && all_recovered;

  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  harness::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "ccdem-bench-pressure-v1");
  w.kv("generated_by", "bench_pressure_envelope");
  w.kv("sim_seconds_per_run", seconds);
  w.kv("quality_gate_pct", kQualityGatePct);
  w.key("scales");
  w.begin_array();
  for (const ScaleRow& r : rows) {
    w.begin_object();
    w.kv("scale", r.scale);
    w.kv("counters_identical", r.identical);
    w.kv("min_quality_pct", r.min_quality_pct());
    w.key("apps");
    w.begin_array();
    for (const AppCell& a : r.apps) {
      w.begin_object();
      w.kv("name", a.name);
      w.kv("power_mw", a.power_mw);
      w.kv("quality_pct", a.quality_pct);
      w.kv("rate_switches", a.rate_switches);
      w.end_object();
    }
    w.end_array();
    w.key("counters");
    w.begin_object();
    for (const char* name : kReportedCounters) {
      w.kv(name, r.serial_counters.value(name));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("recovery");
  w.begin_array();
  for (const RecoveryLeg& l : legs) {
    w.begin_object();
    w.kv("name", l.name);
    w.kv("deadline_ms", l.deadline_ms);
    w.kv("last_rung_change_ms", l.last_change_ms);
    w.kv("final_rung", l.final_rung);
    w.kv("recovered", l.recovered);
    w.end_object();
  }
  w.end_array();
  w.kv("all_counters_identical", all_identical);
  w.kv("quality_at_nominal_pct", quality_at_nominal);
  w.kv("pressure_at_nominal", pressure_at_nominal);
  w.kv("all_recovered", all_recovered);
  w.kv("gate_passed", gate_passed);
  w.end_object();

  std::cout << "\nquality at nominal pressure: "
            << harness::fmt(quality_at_nominal, 1) << " % (gate "
            << (gate_passed ? "PASSED" : "FAILED") << ")\nwrote " << path
            << "\n";
  return gate_passed ? 0 : 1;
}
