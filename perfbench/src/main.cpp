// ccdem_perfbench: host-time benchmark of the simulator's public entry
// points, one workload per invocation (see perfbench/README.md).
//
//   ccdem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--report <file>] [--commit <id>]
//                   [--setup-only]
//
// --trace 0 times the workload's items and measures the end-to-end
// metrics; --trace 1 runs the separate outside-in layer split (replay.h)
// and measures the per-layer metrics.  --setup-only stops after set-up and
// prints only setup_s, so run.py can repeat set-up in fresh processes.
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric measured; run.py keeps the ones BENCHMARK.json names.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "campaign/aggregates.h"
#include "campaign/bin_format.h"
#include "campaign/coordinator.h"
#include "campaign/worker.h"
#include "check/dst.h"
#include "check/invariants.h"
#include "check/oracles.h"
#include "fingerprint.h"
#include "gfx/compare.h"
#include "harness/json_writer.h"
#include "items.h"
#include "replay.h"

namespace fs = std::filesystem;
using namespace ccdem;
using perfbench::Inputs;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  Workload workload = Workload::kSteadyVideo;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  fs::path work_dir;
  std::string report;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(v);
      if (!w) throw std::runtime_error("unknown workload '" + v + "'");
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--report") {
      a.report = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (a.work_dir.empty()) throw std::runtime_error("--work-dir is required");
  return a;
}

// --- metric table -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every metric a run measured.  run.py picks BENCHMARK.json's end_to_end
/// or per_layer names from them; the rest are diagnostics.
class Metrics {
 public:
  void set(const std::string& name, const char* unit, double value) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    list_.push_back({name, unit, value});
  }
  [[nodiscard]] const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

// --- statistics ---------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5) {
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  // Nearest rank: with n = 100, p90 is the 90th value and 10 lie beyond it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- host block ---------------------------------------------------------------

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Largest ru_maxrss (kB) among waited-for children.
long children_peak_rss_kb() {
  rusage ru{};
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

// --- workload items -------------------------------------------------------------

struct CampaignOutcome {
  bool ok = false;
  std::string error;
  std::string aggregates_bin;
  double wall_ms = 0.0;
  /// Decoded from the shard files (paper-claim metrics).
  double saved_power_mw = 0.0;
  double quality_pct = 0.0;
};

std::string read_file(const fs::path& p) {
  return campaign::load_file(p).value_or(std::string());
}

/// Paper-claim numbers of a finished campaign directory: mean baseline
/// minus controlled power over its A/B records (baseline power is
/// controlled / (1 - saved%)), and the merged aggregate's mean display
/// quality.
bool read_claims(const fs::path& dir, int shards, CampaignOutcome& out) {
  double saved_sum = 0.0;
  std::uint64_t n = 0;
  for (int s = 0; s < shards; ++s) {
    const auto records =
        campaign::decode_all(read_file(dir / campaign::shard_file_name(s)));
    if (!records) return false;
    for (const campaign::Record& rec : *records) {
      const auto* r = std::get_if<campaign::ResultRecord>(&rec);
      if (r == nullptr || !r->has_ab || r->saved_power_pct >= 100.0) continue;
      saved_sum += r->mean_power_mw * r->saved_power_pct /
                   (100.0 - r->saved_power_pct);
      ++n;
    }
  }
  const auto agg_records = campaign::decode_all(out.aggregates_bin);
  if (!agg_records || agg_records->size() != 2) return false;
  const auto* a = std::get_if<campaign::AggregateRecord>(&agg_records->at(0));
  if (a == nullptr) return false;
  const auto agg = campaign::Aggregates::decode(a->payload);
  if (!agg || n == 0) return false;
  out.saved_power_mw = saved_sum / static_cast<double>(n);
  out.quality_pct = agg->quality.mean();
  return true;
}

CampaignOutcome run_campaign_item(const campaign::CampaignSpec& spec,
                                  const fs::path& dir) {
  campaign::CampaignOptions opt;
  opt.workers = perfbench::campaign_workers();
  opt.worker.threads = perfbench::kFleetThreads;
  std::error_code ec;
  fs::remove_all(dir, ec);
  const Clock::time_point t0 = Clock::now();
  const campaign::CampaignResult r = campaign::run_campaign(spec, dir, opt);
  CampaignOutcome out;
  out.wall_ms = ms_since(t0);
  out.aggregates_bin = read_file(dir / campaign::aggregates_file_name());
  out.ok = r.complete && r.quarantined.empty() && r.runs == spec.size() &&
           !out.aggregates_bin.empty();
  if (!out.ok) {
    out.error = r.error.empty() ? "incomplete or quarantined campaign"
                                : r.error;
  } else if (!read_claims(dir, spec.shards, out)) {
    out.ok = false;
    out.error = "undecodable campaign output";
  }
  fs::remove_all(dir, ec);
  return out;
}

/// The outcome of one untimed-or-timed item: its wall time, its output
/// fingerprint and whether the program reported success.
struct ItemOutcome {
  bool ok = true;
  std::string error;
  double ms = 0.0;
  std::uint64_t fingerprint = 0;
};

class Runner {
 public:
  Runner(const Args& args, const Inputs& in) : args_(args), in_(in) {}

  ItemOutcome run(std::size_t i) {
    ItemOutcome out;
    const Clock::time_point t0 = Clock::now();
    switch (in_.workload) {
      case Workload::kSteadyVideo:
      case Workload::kSteadyInteractive: {
        const check::RunArtifacts a = check::run_scenario_once(
            in_.scenarios[i].experiment_config(),
            perfbench::primary_options(in_.workload));
        out.ms = ms_since(t0);
        out.fingerprint = perfbench::fingerprint(a.result, a.counters);
        out.ok = a.result.frames_composed > 0;
        if (!out.ok) out.error = "run composed no frames";
        break;
      }
      case Workload::kDstFuzz: {
        const check::CheckReport r = check::check_scenario(in_.scenarios[i]);
        out.ms = ms_since(t0);
        out.ok = r.ok();
        if (!out.ok) out.error = "oracle failure: " + r.failures.front();
        // check_scenario returns only its failures, so the simulated
        // outputs are fingerprinted from its primary arm, run again
        // outside the item's time.
        const check::RunArtifacts a = check::run_scenario_once(
            in_.scenarios[i].experiment_config(),
            perfbench::primary_options(in_.workload));
        out.fingerprint = perfbench::fingerprint(a.result, a.counters) ^
                          campaign::fnv1a(r.to_string());
        break;
      }
      case Workload::kCampaignAb: {
        const CampaignOutcome c =
            run_campaign_item(in_.campaigns[i], args_.work_dir / "campaign");
        out.ms = ms_since(t0);
        out.fingerprint = campaign::fnv1a(c.aggregates_bin);
        out.ok = c.ok;
        if (!out.ok) out.error = c.error;
        break;
      }
    }
    return out;
  }

  /// Compares an item's fingerprint with its first run; a mismatch fails.
  void check_repeat(std::size_t i, ItemOutcome& o) {
    auto [it, fresh] = reference_.emplace(i, o.fingerprint);
    if (!fresh && it->second != o.fingerprint) {
      o.ok = false;
      o.error = "output fingerprint differs from the item's earlier run";
    }
  }

 private:
  const Args& args_;
  const Inputs& in_;
  std::map<std::size_t, std::uint64_t> reference_;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& what, bool ok, const std::string& error) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + error);
  }
};

// --- timed run (--trace 0) ----------------------------------------------------

/// Passes a timed run makes at least, even past --seconds on a slow host,
/// so that every item's time is a mean over runs far apart in time.
constexpr std::size_t kMinPasses = 2;
/// Timed runs that lie at least beyond the reported p90.
constexpr std::size_t kMinRunsBeyondP90 = 10;

void timed_run(const Args& args, const Inputs& in, Runner& runner,
               Tally& tally, Metrics& m, double setup_s) {
  // Whole passes over the item list, so that every run, fast or slow,
  // times the same multiset of items.  The quantiles are taken over each
  // item's mean time across the passes.  The host's slow spells last from
  // seconds to minutes; a quantile over single runs jumps with the share
  // of the run they happen to cover, while a mean over passes several
  // seconds apart moves smoothly with it.
  const std::size_t items = in.size();
  const std::size_t beyond_p90 =
      items - static_cast<std::size_t>(
                  std::ceil(0.9 * static_cast<double>(items)));
  if (beyond_p90 == 0) {
    throw std::logic_error("a workload needs at least 10 items for its p90");
  }
  std::vector<double> item_sum_ms(items, 0.0);
  std::size_t passes = 0;
  double timed_ms = 0.0;
  const Clock::time_point t0 = Clock::now();
  const double budget_ms = args.seconds * 1000.0;
  while (ms_since(t0) < budget_ms || passes < kMinPasses ||
         beyond_p90 * passes < kMinRunsBeyondP90) {
    for (std::size_t i = 0; i < items; ++i) {
      ItemOutcome o = runner.run(i);
      item_sum_ms[i] += o.ms;
      timed_ms += o.ms;
      runner.check_repeat(i, o);
      tally.record("item " + std::to_string(i), o.ok, o.error);
    }
    ++passes;
  }
  std::vector<double> item_ms(items);
  for (std::size_t i = 0; i < items; ++i) {
    item_ms[i] = item_sum_ms[i] / static_cast<double>(passes);
  }

  // Peak RSS before the paper-claim campaign below forks its own workers.
  long rss_kb = campaign::peak_rss_kb();
  if (in.workload == Workload::kCampaignAb) {
    rss_kb = std::max(rss_kb, children_peak_rss_kb());
  }
  // A guard on the model rather than a timing: every workload reports the
  // seed's paper-claim campaign, run after the timed phase.
  const CampaignOutcome claims = run_campaign_item(
      perfbench::paper_claim_campaign(args.seed), args.work_dir / "claims");
  tally.record("paper-claim campaign", claims.ok, claims.error);

  const double runs = static_cast<double>(items * passes);
  m.set("items_per_s", "1/s", runs / (timed_ms / 1000.0));
  m.set("item_ms_p50", "ms", quantile(item_ms, 0.5));
  m.set("item_ms_p90", "ms", quantile(item_ms, 0.9));
  m.set("setup_s", "s", setup_s);
  m.set("peak_rss_mb", "MiB", static_cast<double>(rss_kb) / 1024.0);
  m.set("saved_power_mw", "mW", claims.saved_power_mw);
  m.set("display_quality_pct", "%", claims.quality_pct);
  m.set("failed_share", "ratio",
        ratio(static_cast<double>(tally.failed),
              static_cast<double>(tally.attempted)));
  m.set("timed_items", "count", static_cast<double>(items));
  m.set("timed_passes", "count", static_cast<double>(passes));
  m.set("p90_runs_beyond", "count",
        static_cast<double>(beyond_p90 * passes));
}

// --- traced run (--trace 1) ---------------------------------------------------

/// Per-layer accumulators across the traced items.
struct LayerAcc {
  perfbench::LayerTimes times;
  std::uint64_t replays = 0;
  double untraced_ms = 0.0;  // the same configs run without markers
  std::map<std::string, std::uint64_t> counters;

  // check-layer split
  std::map<std::string, double> arm_ms;
  double invariants_ms = 0.0;
  double diff_ms = 0.0;
  double check_ms = 0.0;
  double roundtrip_us = 0.0;
  std::uint64_t checked = 0;

  // campaign-layer split
  double shard_ms = 0.0;
  std::uint64_t shards = 0;
  double decode_ms = 0.0;
  double encode_us = 0.0;
  std::uint64_t records = 0;
  double merge_ms = 0.0;
  std::uint64_t merges = 0;
  std::uint64_t shard_bytes = 0;
  double campaign_wall_ms = 0.0;
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_reuses = 0;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Untraced run and instrumented replay of one device config, in
/// alternating order; their fingerprints must agree.
void device_split(const harness::ExperimentConfig& cfg,
                  const check::RunOptions& opt, bool replay_first,
                  LayerAcc& acc, Tally& tally, const std::string& what) {
  std::optional<check::RunArtifacts> plain;
  std::optional<perfbench::Replay> traced;
  for (int leg = 0; leg < 2; ++leg) {
    if ((leg == 0) == replay_first) {
      traced = perfbench::replay(cfg, opt);
    } else {
      const Clock::time_point t0 = Clock::now();
      plain = check::run_scenario_once(cfg, opt);
      acc.untraced_ms += ms_since(t0);
    }
  }
  acc.times += traced->times;
  ++acc.replays;
  for (const auto& [name, v] : traced->artifacts.counters.counters) {
    acc.counters[name] += v;
  }
  const bool same =
      perfbench::fingerprint(plain->result, plain->counters) ==
          perfbench::fingerprint(traced->artifacts.result,
                                 traced->artifacts.counters) &&
      plain->trace_csv == traced->artifacts.trace_csv;
  tally.record(what + " replay", same,
               "instrumented replay differs from the untraced run");
}

/// check_scenario's arms, timed one by one, then check_scenario itself.
void check_split(const check::Scenario& s, LayerAcc& acc, Tally& tally,
                 const std::string& what) {
  const harness::ExperimentConfig cfg = s.experiment_config();
  const auto arm = [&](const char* name, const check::RunOptions& opt) {
    const Clock::time_point t0 = Clock::now();
    check::RunArtifacts a = check::run_scenario_once(cfg, opt);
    acc.arm_ms[name] += ms_since(t0);
    return a;
  };
  check::RunOptions unculled;
  unculled.damage_culling = false;
  check::RunOptions scalar;
  scalar.force_scalar_kernels = true;
  check::RunOptions memo_off;
  memo_off.tile_memo = false;
  check::RunOptions spans_off;
  spans_off.spans = false;

  const check::RunArtifacts primary = arm("primary", {});
  const check::RunArtifacts u = arm("unculled", unculled);
  const check::RunArtifacts k = arm("scalar", scalar);
  const check::RunArtifacts mo = arm("memo_off", memo_off);
  const check::RunArtifacts so = arm("spans_off", spans_off);

  // The diffs check_scenario applies to these arms.
  Clock::time_point t0 = Clock::now();
  int diffs = 0;
  const auto count = [&](const std::optional<std::string>& d) {
    if (d) ++diffs;
  };
  count(check::diff_results(primary.result, u.result, "unculled"));
  count(check::diff_counters(primary.counters, u.counters, "unculled",
                             {"meter.pixels_"}));
  count(check::diff_results(primary.result, k.result, "kernel"));
  count(check::diff_counters(primary.counters, k.counters, "kernel"));
  count(check::diff_results(primary.result, mo.result, "tile-memo"));
  count(check::diff_counters(primary.counters, mo.counters, "tile-memo",
                             {"meter.pixels_", "flinger.memo."}));
  count(check::diff_results(primary.result, so.result, "spans-off"));
  count(check::diff_counters(primary.counters, so.counters, "spans-off"));
  acc.diff_ms += ms_since(t0);

  t0 = Clock::now();
  const check::TraceInvariantChecker checker(s);
  const std::vector<std::string> violations = checker.check(primary, &u);
  acc.invariants_ms += ms_since(t0);

  t0 = Clock::now();
  const check::CheckReport report = check::check_scenario(s);
  acc.check_ms += ms_since(t0);

  t0 = Clock::now();
  const auto parsed = check::parse_scenario(check::scenario_to_string(s));
  acc.roundtrip_us += ms_since(t0) * 1000.0;
  ++acc.checked;

  // Faulted meters legitimately split the culled/memo legs (dst.cpp skips
  // those diffs then); only clean scenarios are held to them here.
  const bool meter_faults = s.fault_scale > 0.0 && s.fault_classes.meter;
  tally.record(what + " arms", meter_faults || diffs == 0,
               std::to_string(diffs) + " arm diffs");
  tally.record(what + " invariants", violations.empty(),
               violations.empty() ? "" : violations.front());
  tally.record(what + " check_scenario", report.ok(),
               report.ok() ? "" : report.failures.front());
  tally.record(what + " repro round-trip", parsed && *parsed == s,
               "scenario text does not round-trip");
}

/// A campaign item: untraced run_campaign, then its shards in-process with
/// the campaign layer's decode / encode / merge timed; the merged aggregate
/// must equal the untraced campaign's aggregates.bin.
void campaign_split(const campaign::CampaignSpec& spec, const Args& args,
                    LayerAcc& acc, Tally& tally, const std::string& what) {
  const CampaignOutcome plain =
      run_campaign_item(spec, args.work_dir / "campaign");
  tally.record(what + " campaign", plain.ok, plain.error);
  acc.campaign_wall_ms += plain.wall_ms;

  const fs::path dir = args.work_dir / "shards";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  campaign::WorkerOptions wopt;
  wopt.threads = perfbench::kFleetThreads;
  std::vector<campaign::Aggregates> shard_aggs;
  for (int s = 0; s < spec.shards; ++s) {
    Clock::time_point t0 = Clock::now();
    const campaign::ShardOutcome so = campaign::run_shard(spec, s, dir, wopt);
    acc.shard_ms += ms_since(t0);
    ++acc.shards;
    tally.record(what + " shard " + std::to_string(s), so.ok, so.error);
    const std::string bytes = read_file(dir / campaign::shard_file_name(s));
    acc.shard_bytes += bytes.size();

    t0 = Clock::now();
    const auto records = campaign::decode_all(bytes);
    acc.decode_ms += ms_since(t0);
    if (!records) {
      tally.record(what + " decode", false, "shard file does not decode");
      continue;
    }
    for (const campaign::Record& rec : *records) {
      if (std::holds_alternative<campaign::ResultRecord>(rec)) {
        t0 = Clock::now();
        static_cast<void>(campaign::encode_record(rec));
        acc.encode_us += ms_since(t0) * 1000.0;
        ++acc.records;
      } else if (const auto* c = std::get_if<campaign::CountersRecord>(&rec)) {
        for (const auto& [name, v] : c->counters) {
          if (name == "pool.acquires") acc.pool_acquires += v;
          if (name == "pool.reuses") acc.pool_reuses += v;
        }
      } else if (const auto* a =
                     std::get_if<campaign::AggregateRecord>(&rec)) {
        if (auto agg = campaign::Aggregates::decode(a->payload)) {
          shard_aggs.push_back(std::move(*agg));
        }
      }
    }
  }
  const Clock::time_point t0 = Clock::now();
  campaign::Aggregates merged;
  for (const campaign::Aggregates& a : shard_aggs) merged.merge(a);
  acc.merge_ms += ms_since(t0);
  ++acc.merges;
  fs::remove_all(dir, ec);

  const std::string bin = campaign::encode_all(
      {campaign::Record{campaign::AggregateRecord{merged.encode()}}});
  tally.record(what + " in-process merge", bin == plain.aggregates_bin,
               "in-process shards merge to a different aggregates.bin");
}

void traced_run(const Args& args, const Inputs& in, Tally& tally,
                Metrics& m) {
  LayerAcc acc;
  const Clock::time_point t0 = Clock::now();
  const double budget_ms = args.seconds * 1000.0;
  const check::RunOptions opt = perfbench::primary_options(in.workload);
  const auto device_items = [&](const std::vector<check::Scenario>& items,
                                const std::string& what) {
    for (std::size_t j = 0; j < items.size(); ++j) {
      const std::string name = what + " scenario " + std::to_string(j);
      device_split(items[j].experiment_config(), opt, (acc.replays % 2) == 1,
                   acc, tally, name);
      check_split(items[j], acc, tally, name);
    }
  };

  if (in.workload == Workload::kCampaignAb) {
    for (std::size_t k = 0; ms_since(t0) < budget_ms; ++k) {
      const campaign::CampaignSpec& spec = in.campaigns[k % in.size()];
      const std::string what = "campaign " + std::to_string(k % in.size());
      campaign_split(spec, args, acc, tally, what);
      std::vector<check::Scenario> matrix;
      for (std::uint64_t i = 0; i < spec.size(); ++i) {
        matrix.push_back(spec.scenario_at(i));
      }
      device_items(matrix, what);
    }
  } else {
    for (std::size_t k = 0; ms_since(t0) < budget_ms; ++k) {
      const std::size_t i = k % in.size();
      device_items({in.scenarios[i]}, "item " + std::to_string(i));
    }
    // The campaign layer runs only in campaign_ab; elsewhere it is measured
    // on the seed's campaign matrix, once.
    campaign_split(perfbench::make_inputs(Workload::kCampaignAb, args.seed)
                       .campaigns.front(),
                   args, acc, tally, "campaign 0");
  }

  const perfbench::LayerTimes& t = acc.times;
  const double n = static_cast<double>(std::max<std::uint64_t>(1, acc.replays));
  const double c = static_cast<double>(std::max<std::uint64_t>(1, acc.checked));
  m.set("device.setup_ms", "ms", t.setup_ms / n);
  m.set("apps.render_ms", "ms", t.render_ms / n);
  m.set("gfx.compose_ms", "ms", t.compose_ms / n);
  const double skipped =
      static_cast<double>(acc.counter("flinger.memo.pixels_skipped"));
  m.set("gfx.memo_skip_ratio", "ratio",
        ratio(skipped,
              static_cast<double>(acc.counter("flinger.memo.pixels_written")) +
                  skipped));
  m.set("gfx.compose_ratio", "ratio",
        ratio(static_cast<double>(acc.counter("flinger.frames_composed")),
              static_cast<double>(acc.counter("panel.vsyncs"))));
  m.set("core.meter_ms", "ms", t.meter_ms / n);
  const double cull =
      static_cast<double>(acc.counter("meter.pixels_compare_skipped"));
  m.set("core.meter_cull_ratio", "ratio",
        ratio(cull,
              static_cast<double>(acc.counter("meter.pixels_compared")) +
                  cull));
  m.set("sim.other_ms", "ms", t.other_ms / n);
  m.set("sim.residual_share", "ratio", ratio(t.other_ms, t.wall_ms));
  m.set("trace.named_share", "ratio", ratio(t.named_ms(), t.wall_ms));
  for (const char* arm :
       {"primary", "unculled", "scalar", "memo_off", "spans_off"}) {
    m.set(std::string("check.arm_ms.") + arm, "ms",
          acc.arm_ms[arm] / c);
  }
  m.set("check.invariants_ms", "ms", acc.invariants_ms / c);
  m.set("check.diff_ms", "ms", acc.diff_ms / c);
  m.set("check.oracle_multiplier", "ratio",
        ratio(acc.check_ms, acc.arm_ms["primary"]));
  m.set("check.repro_roundtrip_us", "us", acc.roundtrip_us / c);
  m.set("obs.span_overhead", "ratio",
        ratio(acc.arm_ms["primary"], acc.arm_ms["spans_off"]));
  const double shards =
      static_cast<double>(std::max<std::uint64_t>(1, acc.shards));
  m.set("campaign.shard_ms", "ms", acc.shard_ms / shards);
  m.set("campaign.encode_us_per_record", "us",
        ratio(acc.encode_us, static_cast<double>(acc.records)));
  m.set("campaign.decode_ms", "ms", acc.decode_ms / shards);
  m.set("campaign.merge_ms", "ms",
        ratio(acc.merge_ms, static_cast<double>(acc.merges)));
  m.set("campaign.bytes_per_run", "B",
        ratio(static_cast<double>(acc.shard_bytes),
              static_cast<double>(acc.records)));
  m.set("campaign.parallel_efficiency", "ratio",
        ratio(acc.shard_ms, perfbench::campaign_workers() *
                                acc.campaign_wall_ms));
  m.set("harness.pool_reuse_ratio", "ratio",
        ratio(static_cast<double>(acc.pool_reuses),
              static_cast<double>(acc.pool_acquires)));
  m.set("trace.overhead", "ratio", ratio(t.wall_ms, acc.untraced_ms));
  m.set("traced_items", "count", static_cast<double>(acc.replays));
}

// --- output ---------------------------------------------------------------------

void write_metrics(harness::JsonWriter& w, const Metrics& m) {
  w.key("metrics");
  w.begin_object();
  for (const Metric& x : m.list()) {
    w.key(x.name);
    w.begin_object();
    w.kv("value", x.value);
    w.kv("unit", x.unit);
    w.end_object();
  }
  w.end_object();
}

void write_report(const Args& args, const Tally& tally, const Metrics& m) {
  if (args.report.empty()) return;
  std::error_code ec;
  fs::create_directories(fs::path(args.report).parent_path(), ec);
  std::ofstream os(args.report);
  harness::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "ccdem-perfbench-report-v1");
  w.kv("workload", perfbench::workload_name(args.workload));
  w.kv("seed", args.seed);
  w.kv("seconds", args.seconds);
  w.kv("trace", args.trace);
  w.key("host");
  w.begin_object();
  w.kv("nproc",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("compiler", compiler_id());
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("commit", args.commit);
  w.kv("kernel_table", gfx::kernels::active_kernels().name);
  const bool forked = args.workload == Workload::kCampaignAb;
  w.kv("workers", forked ? perfbench::campaign_workers() : 1);
  w.kv("threads_per_worker",
       static_cast<std::int64_t>(perfbench::kFleetThreads));
  w.end_object();
  w.kv("attempted", tally.attempted);
  w.kv("failed", tally.failed);
  w.key("errors");
  w.begin_array();
  for (const std::string& e : tally.errors) w.value(e);
  w.end_array();
  write_metrics(w, m);
  w.end_object();
  os << '\n';
}

/// Prints every metric by name and unit, then the result line with all of
/// them.
void print_result(const Tally& tally, const Metrics& m) {
  for (const Metric& x : m.list()) {
    std::cout << x.name << " = " << x.value << ' ' << x.unit << '\n';
  }
  for (const std::string& e : tally.errors) std::cout << "FAILED " << e << '\n';
  std::ostringstream line;
  harness::JsonWriter w(line, 0);
  w.begin_object();
  w.kv("correct", tally.failed == 0);
  w.kv("attempted", tally.attempted);
  w.kv("failed", tally.failed);
  write_metrics(w, m);
  w.end_object();
  std::cout << line.str() << std::flush;  // JsonWriter ends the line
}

int run(const Args& args, Clock::time_point start) {
  // Set-up: input generation and parsing, then the untimed warm-up items.
  // A timed item's first pass is the reference its later passes must match.
  const Inputs in = perfbench::make_inputs(args.workload, args.seed);
  Runner runner(args, in);
  Tally tally;
  if (!args.trace) {
    const Inputs warm_in =
        perfbench::make_inputs(args.workload, perfbench::kWarmUpSeed);
    Runner warm_runner(args, warm_in);
    for (std::size_t i = 0; i < perfbench::warm_up_items(args.workload); ++i) {
      const ItemOutcome warm = warm_runner.run(i);
      tally.record("warm-up item " + std::to_string(i), warm.ok, warm.error);
    }
  }
  const double setup_s = ms_since(start) / 1000.0;
  if (args.setup_only) {
    std::ostringstream line;
    harness::JsonWriter w(line, 0);
    w.begin_object();
    w.kv("setup_s", setup_s);
    w.end_object();
    std::cout << line.str() << std::flush;  // JsonWriter ends the line
    return tally.failed == 0 ? 0 : 1;
  }

  Metrics m;
  if (args.trace) {
    traced_run(args, in, tally, m);
  } else {
    timed_run(args, in, runner, tally, m, setup_s);
  }
  write_report(args, tally, m);
  print_result(tally, m);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  try {
    const Args args = parse_args(argc, argv);
    return run(args, start);
  } catch (const std::exception& e) {
    std::cerr << "ccdem_perfbench: " << e.what() << '\n';
    return 2;
  }
}
