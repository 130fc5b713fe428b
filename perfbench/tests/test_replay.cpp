// The instrumented replay must be the run it claims to time.
//
// On the first item of every workload (all three app kinds of
// steady_interactive, and the first matrix scenario of campaign_ab):
//   * replay() gives results, counters and trace bytes identical to
//     check::run_scenario_once with the same options, and results
//     identical to harness::run_experiment with no obs sink at all;
//   * the fingerprint agrees with the untraced run's;
//   * no layer reads negative (the phase brackets do not overlap, so
//     sim.other, the rest of run_until, stays >= 0), and the layers,
//     sim.other included, sum to within 5 % of the wall time measured
//     around the replay call;
//   * over each 30 s profile workload (steady_*) the named layers
//     (sim.other excluded) reach the >= 95 % share of wall time that
//     ROADMAP's host-profile gate asks for.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "fingerprint.h"
#include "harness/experiment.h"
#include "items.h"
#include "replay.h"

using namespace ccdem;
using perfbench::Workload;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

perfbench::LayerTimes check_item(const std::string& name,
                                 const check::Scenario& s,
                                 const check::RunOptions& opt) {
  const harness::ExperimentConfig cfg = s.experiment_config();
  const auto t0 = std::chrono::steady_clock::now();
  const perfbench::Replay r = perfbench::replay(cfg, opt);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const check::RunArtifacts plain = check::run_scenario_once(cfg, opt);

  const auto d = check::diff_results(plain.result, r.artifacts.result, name);
  expect(!d, name + ": " + d.value_or(""));
  const auto c =
      check::diff_counters(plain.counters, r.artifacts.counters, name);
  expect(!c, name + ": " + c.value_or(""));
  expect(plain.trace_csv == r.artifacts.trace_csv,
         name + ": serialized trace differs");
  expect(perfbench::fingerprint(plain.result, plain.counters) ==
             perfbench::fingerprint(r.artifacts.result, r.artifacts.counters),
         name + ": fingerprint differs");

  // run_experiment itself, without any obs sink: observability is passive.
  harness::ExperimentConfig bare = cfg;
  bare.dpm.meter.damage_culling = opt.damage_culling;
  bare.governor.meter.damage_culling = opt.damage_culling;
  bare.tile_memo = opt.tile_memo;
  bare.hash_frames = opt.hash_frames;
  const auto e = check::diff_results(harness::run_experiment(bare),
                                     r.artifacts.result, name + " (bare)");
  expect(!e, name + ": " + e.value_or(""));

  const perfbench::LayerTimes& t = r.times;
  const double sum_share = t.layers_ms() / wall_ms;
  const double named_share = t.named_ms() / wall_ms;
  std::printf(
      "%-24s wall %8.2f ms  setup %6.2f render %7.2f compose %7.2f meter "
      "%6.2f other %6.2f  sum %.4f named %.4f\n",
      name.c_str(), wall_ms, t.setup_ms, t.render_ms, t.compose_ms,
      t.meter_ms, t.other_ms, sum_share, named_share);
  expect(std::abs(1.0 - sum_share) <= 0.05,
         name + ": layers sum to " + std::to_string(sum_share) + " of wall");
  expect(t.setup_ms > 0.0 && t.render_ms > 0.0 && t.compose_ms > 0.0 &&
             t.meter_ms > 0.0 && t.other_ms >= 0.0,
         name + ": a device layer reads zero or less");
  return t;
}

void gate_named_share(const std::string& workload,
                      const perfbench::LayerTimes& t) {
  const double share = t.named_ms() / t.wall_ms;
  std::printf("%-24s named layers cover %.4f of wall\n", workload.c_str(),
              share);
  expect(share >= 0.95, workload + ": named layers cover only " +
                            std::to_string(share) + " of wall");
}

}  // namespace

int main() {
  const std::uint64_t seed = 1;
  const auto video = perfbench::make_inputs(Workload::kSteadyVideo, seed);
  gate_named_share(
      "steady_video",
      check_item("steady_video[0]", video.scenarios.at(0),
                 perfbench::primary_options(Workload::kSteadyVideo)));

  const auto interactive =
      perfbench::make_inputs(Workload::kSteadyInteractive, seed);
  perfbench::LayerTimes interactive_times;
  for (std::size_t i = 0; i < 3; ++i) {
    interactive_times += check_item(
        "steady_interactive[" + std::to_string(i) + "]",
        interactive.scenarios.at(i),
        perfbench::primary_options(Workload::kSteadyInteractive));
  }
  gate_named_share("steady_interactive", interactive_times);

  const auto dst = perfbench::make_inputs(Workload::kDstFuzz, seed);
  (void)check_item("dst_fuzz[0]", dst.scenarios.at(0),
                   perfbench::primary_options(Workload::kDstFuzz));

  const auto campaign = perfbench::make_inputs(Workload::kCampaignAb, seed);
  (void)check_item("campaign_ab[0][0]",
                   campaign.campaigns.at(0).scenario_at(0),
                   perfbench::primary_options(Workload::kCampaignAb));

  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all replay checks passed\n");
  return 0;
}
