// Merge-law tests for the streaming aggregates (DESIGN.md section 12):
// identity, associativity, order-independence of every integral field, and
// byte-identical encodes under the fixed fold order -- the properties that
// make a resumed campaign's merged output equal an uninterrupted one.
#include "campaign/aggregates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/json_writer.h"
#include "sim/rng.h"

namespace ccdem::campaign {
namespace {

ResultRecord random_result(sim::Rng& rng, std::uint64_t index) {
  ResultRecord r;
  r.scenario_index = index;
  r.app = "Facebook";
  r.mode = "section+boost";
  r.seed = rng.next_u64();
  r.duration_ms = static_cast<std::int64_t>(rng.uniform_int(500, 5000));
  r.mean_power_mw = rng.uniform(100.0, 1500.0);
  r.frames_composed = static_cast<std::uint64_t>(rng.uniform_int(10, 500));
  r.content_frames = static_cast<std::uint64_t>(rng.uniform_int(5, 400));
  r.rate_switches = static_cast<std::uint64_t>(rng.uniform_int(0, 40));
  if (rng.chance(0.5)) {
    r.has_ab = true;
    r.saved_power_pct = rng.uniform(-10.0, 60.0);
    r.quality_pct = rng.uniform(40.0, 100.0);
  }
  r.residency = {{20, rng.uniform(0.0, 1.0)},
                 {40, rng.uniform(0.0, 1.0)},
                 {60, rng.uniform(0.0, 1.0)}};
  return r;
}

std::vector<ResultRecord> random_results(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  std::vector<ResultRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(random_result(rng, static_cast<std::uint64_t>(i)));
  }
  return out;
}

TEST(MergeHistogram, ClampsIntoEdgeBuckets) {
  MergeHistogram h(0.0, 10.0, 10);
  h.add(-5.0);   // below lo -> first bucket
  h.add(15.0);   // above hi -> last bucket
  h.add(10.0);   // == hi -> last bucket (not one past)
  h.add(5.0);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[9], 2u);
  EXPECT_EQ(h.counts[5], 1u);
  EXPECT_EQ(h.total, 4u);
  EXPECT_EQ(h.min_value, -5.0);
  EXPECT_EQ(h.max_value, 15.0);
}

TEST(MergeHistogram, FractionBelowIsBucketResolutionCdf) {
  MergeHistogram h(0.0, 100.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) * 10.0 + 5.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(50.0), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(100.0), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.0), 0.0);
}

TEST(Aggregates, MergeWithDefaultIsIdentity) {
  Aggregates a;
  for (const ResultRecord& r : random_results(1, 40)) a.add(r);
  Aggregates b = a;
  b.merge(Aggregates{});
  EXPECT_EQ(a, b);
  Aggregates c;
  c.merge(a);
  EXPECT_EQ(a, c);
}

TEST(Aggregates, MergeIsAssociativeOnIntegralState) {
  // (a+b)+c vs a+(b+c): every integral field must agree exactly.  Double
  // accumulators only agree to rounding under re-association -- which is
  // why the campaign pins a fixed fold order for byte identity
  // (FixedFoldOrderGivesByteIdenticalEncodes below).
  const auto runs = random_results(2, 60);
  Aggregates a, b, c;
  for (int i = 0; i < 20; ++i) a.add(runs[static_cast<std::size_t>(i)]);
  for (int i = 20; i < 40; ++i) b.add(runs[static_cast<std::size_t>(i)]);
  for (int i = 40; i < 60; ++i) c.add(runs[static_cast<std::size_t>(i)]);

  Aggregates ab = a;
  ab.merge(b);
  Aggregates left = ab;
  left.merge(c);

  Aggregates bc = b;
  bc.merge(c);
  Aggregates right = a;
  right.merge(bc);

  EXPECT_EQ(left.runs, right.runs);
  EXPECT_EQ(left.ab_runs, right.ab_runs);
  EXPECT_EQ(left.frames_composed, right.frames_composed);
  EXPECT_EQ(left.content_frames, right.content_frames);
  EXPECT_EQ(left.rate_switches, right.rate_switches);
  EXPECT_EQ(left.counter_sums, right.counter_sums);
  EXPECT_EQ(left.power.counts, right.power.counts);
  EXPECT_EQ(left.quality.counts, right.quality.counts);
  EXPECT_EQ(left.savings.counts, right.savings.counts);
  // min/max are associative even over doubles.
  EXPECT_EQ(left.power.min_value, right.power.min_value);
  EXPECT_EQ(left.power.max_value, right.power.max_value);
  // Double sums agree to rounding only.
  EXPECT_NEAR(left.power.sum, right.power.sum,
              1e-9 * std::fabs(left.power.sum));
  EXPECT_NEAR(left.sim_seconds, right.sim_seconds,
              1e-9 * left.sim_seconds);
}

TEST(Aggregates, IntegralFieldsAreOrderIndependent) {
  const auto runs = random_results(3, 50);
  Aggregates forward, backward;
  for (const ResultRecord& r : runs) forward.add(r);
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) backward.add(*it);
  EXPECT_EQ(forward.runs, backward.runs);
  EXPECT_EQ(forward.ab_runs, backward.ab_runs);
  EXPECT_EQ(forward.frames_composed, backward.frames_composed);
  EXPECT_EQ(forward.rate_switches, backward.rate_switches);
  EXPECT_EQ(forward.power.counts, backward.power.counts);
  EXPECT_EQ(forward.power.total, backward.power.total);
  EXPECT_EQ(forward.quality.counts, backward.quality.counts);
  EXPECT_EQ(forward.power.min_value, backward.power.min_value);
  EXPECT_EQ(forward.power.max_value, backward.power.max_value);
}

TEST(Aggregates, FixedFoldOrderGivesByteIdenticalEncodes) {
  // For a given shard layout, folding runs in scenario-index order within
  // each shard and merging shards in shard-index order yields a
  // byte-identical encode no matter when or in what temporal order the
  // shards were computed -- the resume-equals-uninterrupted law (double
  // sums are order-sensitive, so the fold order has to be pinned; the
  // campaign end-to-end version lives in test_campaign.cpp).
  const auto runs = random_results(4, 48);
  auto shard_agg = [&](std::size_t begin, std::size_t end) {
    Aggregates s;
    for (std::size_t i = begin; i < end; ++i) s.add(runs[i]);
    return s;
  };

  Aggregates uninterrupted;
  uninterrupted.merge(shard_agg(0, 16));
  uninterrupted.merge(shard_agg(16, 32));
  uninterrupted.merge(shard_agg(32, 48));

  // "Resumed": shard 1's worker died, so shard 1 is recomputed after the
  // others -- but the coordinator still merges in shard-index order.
  const Aggregates s2 = shard_agg(32, 48);
  const Aggregates s0 = shard_agg(0, 16);
  const Aggregates s1 = shard_agg(16, 32);  // the re-run
  Aggregates resumed;
  resumed.merge(s0);
  resumed.merge(s1);
  resumed.merge(s2);

  EXPECT_EQ(resumed, uninterrupted);
  EXPECT_EQ(resumed.encode(), uninterrupted.encode());

  // A different shard layout re-associates the double sums, so its encode
  // is NOT required (or expected) to match -- resume only guarantees byte
  // identity for the same spec, which pins the shard count.
  Aggregates other_layout;
  other_layout.merge(shard_agg(0, 24));
  other_layout.merge(shard_agg(24, 48));
  EXPECT_EQ(other_layout.runs, uninterrupted.runs);
}

TEST(Aggregates, EncodeDecodeRoundTrips) {
  Aggregates a;
  for (const ResultRecord& r : random_results(5, 30)) a.add(r);
  CountersRecord c;
  c.counters = {{"flinger.frames", 999}, {"meter.evals", 55}};
  a.add_counters(c);

  std::string error;
  const auto decoded = Aggregates::decode(a.encode(), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, a);
  EXPECT_EQ(decoded->encode(), a.encode());
}

TEST(Aggregates, DecodeRejectsTruncatedAndTrailing) {
  Aggregates a;
  for (const ResultRecord& r : random_results(6, 10)) a.add(r);
  const std::string bytes = a.encode();
  std::string error;
  EXPECT_FALSE(
      Aggregates::decode(std::string_view(bytes).substr(0, bytes.size() - 1),
                         &error)
          .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Aggregates::decode(bytes + "x", &error).has_value());
}

TEST(Aggregates, PoolCountersAreExcluded) {
  EXPECT_TRUE(counter_excluded_from_aggregates("pool.acquires"));
  EXPECT_TRUE(counter_excluded_from_aggregates("pool.reuses"));
  EXPECT_FALSE(counter_excluded_from_aggregates("flinger.frames"));
  EXPECT_FALSE(counter_excluded_from_aggregates("meter.pool.x"));

  Aggregates a;
  CountersRecord c;
  c.counters = {{"flinger.frames", 10}, {"pool.acquires", 99}};
  a.add_counters(c);
  EXPECT_EQ(a.counter_sums.count("pool.acquires"), 0u);
  EXPECT_EQ(a.counter_sums.at("flinger.frames"), 10u);
}

TEST(Aggregates, ResidencyAndAbFoldIn) {
  ResultRecord r;
  r.duration_ms = 1000;
  r.mean_power_mw = 500.0;
  r.has_ab = true;
  r.quality_pct = 90.0;
  r.saved_power_pct = 25.0;
  r.residency = {{20, 0.25}, {60, 0.75}};
  Aggregates a;
  a.add(r);
  a.add(r);
  EXPECT_EQ(a.runs, 2u);
  EXPECT_EQ(a.ab_runs, 2u);
  EXPECT_DOUBLE_EQ(a.rung_seconds.at(20), 0.5);
  EXPECT_DOUBLE_EQ(a.rung_seconds.at(60), 1.5);
  EXPECT_DOUBLE_EQ(a.quality.mean(), 90.0);
  EXPECT_DOUBLE_EQ(a.savings.mean(), 25.0);
  EXPECT_DOUBLE_EQ(a.sim_seconds, 2.0);
}

TEST(Aggregates, WritesWellFormedJson) {
  Aggregates a;
  for (const ResultRecord& r : random_results(7, 20)) a.add(r);
  std::ostringstream os;
  harness::JsonWriter w(os);
  a.write_json(w);
  EXPECT_TRUE(w.complete());
  const std::string text = os.str();
  EXPECT_NE(text.find("\"power_mw\""), std::string::npos);
  EXPECT_NE(text.find("\"cdf\""), std::string::npos);
  EXPECT_NE(text.find("\"rung_seconds\""), std::string::npos);
}

}  // namespace
}  // namespace ccdem::campaign
