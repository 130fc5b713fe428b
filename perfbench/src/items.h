// Benchmark inputs: the four workloads and the seeded item lists they run.
//
// Every device-level item is a check::Scenario and every campaign item a
// campaign::CampaignSpec.  make_inputs() renders them to their on-disk text
// formats (ccdem-repro-v1, ccdem-campaign-v1) and parses them back, so the
// program under test receives only generated inputs, and corpus parsing is
// part of the measured set-up.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"
#include "check/oracles.h"
#include "check/scenario.h"

namespace perfbench {

enum class Workload { kSteadyVideo, kSteadyInteractive, kDstFuzz, kCampaignAb };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Campaign workers: min(4, nproc).  Each runs kFleetThreads fleet
/// threads, so workers x threads never exceeds the host's core count.
[[nodiscard]] int campaign_workers();
inline constexpr unsigned kFleetThreads = 1;

struct Inputs {
  Workload workload = Workload::kSteadyVideo;
  /// Items of the device-level workloads (steady_*, dst_fuzz).
  std::vector<ccdem::check::Scenario> scenarios;
  /// Items of campaign_ab: one small A/B campaign each.
  std::vector<ccdem::campaign::CampaignSpec> campaigns;

  [[nodiscard]] std::size_t size() const {
    return workload == Workload::kCampaignAb ? campaigns.size()
                                             : scenarios.size();
  }
};

/// The options a workload runs its device items with.  dst_fuzz items are
/// check_scenario's primary arm (spans and frame hashing on); the others
/// are profile runs, counters only, as a bench profile or campaign run
/// pays for them.
[[nodiscard]] ccdem::check::RunOptions primary_options(Workload w);

/// Leading items a run executes untimed before timing starts: one of each
/// app the workload runs (the first round of steady_interactive, item 0
/// elsewhere).  They are taken from kWarmUpSeed's list, not from --seed's,
/// so that set-up costs the same whichever items --seed draws.
[[nodiscard]] std::size_t warm_up_items(Workload w);
inline constexpr std::uint64_t kWarmUpSeed = 0;

/// The workload's item list for `seed` (same seed, same items).  Throws
/// std::runtime_error if a generated text fails to parse back.
[[nodiscard]] Inputs make_inputs(Workload w, std::uint64_t seed);

/// The matrix every campaign_ab item runs: 4 apps x 2 modes x `seeds`,
/// A/B runs of `duration_ms` (2 s for the items).
[[nodiscard]] ccdem::campaign::CampaignSpec campaign_matrix(
    std::vector<std::uint64_t> seeds, std::int64_t duration_ms);

/// The paper-claim campaign of `seed`: the same matrix with 30 s runs.  At
/// 2 s no Monkey touch lands and display quality saturates at 100 %, so the
/// savings and quality the paper reports need the longer runs.
[[nodiscard]] ccdem::campaign::CampaignSpec paper_claim_campaign(
    std::uint64_t seed);

}  // namespace perfbench
