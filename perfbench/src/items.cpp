#include "items.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/app_profiles.h"
#include "check/scenario_gen.h"
#include "device/simulated_device.h"
#include "input/monkey.h"
#include "sim/rng.h"

namespace perfbench {

using ccdem::check::Scenario;
using ccdem::device::ControlMode;

namespace {

// Item counts.  A timed run cycles its list in whole passes, so every run
// times the same multiset of items.  Within one app the cost of a 30 s run
// varies up to 5x with the seed's Monkey script, so the lists are long
// enough that their mean cost barely moves between seeds.  They are short
// enough that a run repeats every item, which the output check compares,
// and a timed run averages each item over its passes: on a 4-core x86 VM
// a 20 s run makes two or three passes on steady_* and dst_fuzz and ten on
// campaign_ab.
constexpr int kVideoItems = 64;
constexpr int kInteractiveRounds = 96;
constexpr int kInteractiveApps = 3;  // items per round
constexpr int kDstItems = 75;
// The dst_fuzz shapes (app, mode, duration, grid, ladder, fault and
// pressure plan, scene, fleet flag) come from this fixed generator seed;
// --seed re-draws each scenario's run seed.  A seed-drawn shape mix would
// move the mean item cost by +-30 % between seeds, swamping any change
// the benchmark exists to see.
constexpr std::uint64_t kDstShapeSeed = 1;
constexpr int kCampaignItems = 10;
constexpr int kCampaignSeedsPerItem = 4;

constexpr std::int64_t kSteadyRunMs = 30000;
constexpr std::int64_t kCampaignRunMs = 2000;
constexpr int kClaimSeeds = 4;

/// Distinct, reproducible per-item seeds; the workload tag keeps the four
/// lists of one --seed unrelated to each other.
std::vector<std::uint64_t> item_seeds(std::uint64_t seed, Workload w,
                                      int count) {
  ccdem::sim::Rng rng =
      ccdem::sim::Rng(seed).fork(static_cast<std::uint64_t>(w) + 1);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(
        static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000)));
  }
  return out;
}

Scenario steady(const std::string& app, ControlMode mode, std::uint64_t seed) {
  Scenario s;
  s.app = app;
  s.mode = mode;
  s.duration_ms = kSteadyRunMs;
  s.seed = seed;
  return s;
}

/// The feed is driven by swipes rather than taps.  The scenario format has
/// no Monkey-profile field, so the script the device would generate from
/// the seed with swipe_probability 0.9 is embedded verbatim.
Scenario swiped_feed(std::uint64_t seed) {
  Scenario s = steady("Facebook", ControlMode::kSection, seed);
  ccdem::input::MonkeyProfile profile =
      ccdem::apps::app_by_name("Facebook").monkey;
  profile.swipe_probability = 0.9;
  ccdem::sim::Rng rng = ccdem::sim::Rng(seed).fork(
      ccdem::device::SimulatedDevice::kMonkeyRngStream);
  s.script = ccdem::input::generate_monkey_script(
      rng, profile, s.duration(), ccdem::apps::kGalaxyS3Screen);
  return s;
}

Scenario parse_back(const Scenario& s) {
  std::string error;
  auto parsed =
      ccdem::check::parse_scenario(ccdem::check::scenario_to_string(s), &error);
  if (!parsed) throw std::runtime_error("scenario text rejected: " + error);
  return std::move(*parsed);
}

ccdem::campaign::CampaignSpec parse_back(
    const ccdem::campaign::CampaignSpec& spec) {
  std::string error;
  auto parsed =
      ccdem::campaign::CampaignSpec::parse(spec.to_string(), &error);
  if (!parsed) throw std::runtime_error("campaign text rejected: " + error);
  return std::move(*parsed);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kSteadyVideo, Workload::kSteadyInteractive,
                     Workload::kDstFuzz, Workload::kCampaignAb}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSteadyVideo:
      return "steady_video";
    case Workload::kSteadyInteractive:
      return "steady_interactive";
    case Workload::kDstFuzz:
      return "dst_fuzz";
    case Workload::kCampaignAb:
      return "campaign_ab";
  }
  return "?";
}

std::size_t warm_up_items(Workload w) {
  return w == Workload::kSteadyInteractive ? kInteractiveApps : 1;
}

ccdem::check::RunOptions primary_options(Workload w) {
  ccdem::check::RunOptions o;
  if (w != Workload::kDstFuzz) {
    o.spans = false;
    o.hash_frames = false;
  }
  return o;
}

int campaign_workers() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, cores));
}

ccdem::campaign::CampaignSpec campaign_matrix(std::vector<std::uint64_t> seeds,
                                              std::int64_t duration_ms) {
  ccdem::campaign::CampaignSpec spec;
  spec.apps = {"Auction", "Facebook", "Jelly Splash", "MX Player"};
  spec.modes = {"section", "section+boost"};
  spec.seeds = std::move(seeds);
  spec.duration_ms = duration_ms;
  spec.ab = true;
  // Fixed, not derived from the core count: the shard layout pins the fold
  // order and so the bytes of aggregates.bin.
  spec.shards = 4;
  return spec;
}

ccdem::campaign::CampaignSpec paper_claim_campaign(std::uint64_t seed) {
  // Its own seed stream, apart from the four workloads' (tags 1-4).
  ccdem::sim::Rng rng = ccdem::sim::Rng(seed).fork(16);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kClaimSeeds; ++i) {
    seeds.push_back(
        static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000)));
  }
  return parse_back(campaign_matrix(std::move(seeds), kSteadyRunMs));
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  switch (w) {
    case Workload::kSteadyVideo:
      for (std::uint64_t s : item_seeds(seed, w, kVideoItems)) {
        in.scenarios.push_back(
            parse_back(steady("MX Player", ControlMode::kSection, s)));
      }
      break;
    case Workload::kSteadyInteractive:
      for (std::uint64_t s : item_seeds(seed, w, kInteractiveRounds)) {
        in.scenarios.push_back(
            parse_back(steady("Auction", ControlMode::kSection, s)));
        in.scenarios.push_back(parse_back(swiped_feed(s)));
        in.scenarios.push_back(parse_back(
            steady("Jelly Splash", ControlMode::kSectionWithBoost, s)));
      }
      break;
    case Workload::kDstFuzz: {
      ccdem::check::ScenarioGen gen(kDstShapeSeed);
      for (std::uint64_t s : item_seeds(seed, w, kDstItems)) {
        Scenario shape = gen.next();
        shape.seed = s;
        in.scenarios.push_back(parse_back(shape));
      }
      break;
    }
    case Workload::kCampaignAb: {
      const std::vector<std::uint64_t> seeds =
          item_seeds(seed, w, kCampaignItems * kCampaignSeedsPerItem);
      for (int i = 0; i < kCampaignItems; ++i) {
        const auto first = seeds.begin() + i * kCampaignSeedsPerItem;
        in.campaigns.push_back(parse_back(campaign_matrix(
            std::vector<std::uint64_t>(first, first + kCampaignSeedsPerItem),
            kCampaignRunMs)));
      }
      break;
    }
  }
  return in;
}

}  // namespace perfbench
