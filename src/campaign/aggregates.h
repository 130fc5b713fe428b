// Streaming mergeable aggregates: campaign-wide statistics in O(1) memory
// per shard.
//
// A fleet dashboard wants distributions (quality histogram, power CDF,
// per-rung residency) and totals (counter sums, frames) over millions of
// runs; holding per-run results to compute them would make the coordinator
// O(runs).  Instead each worker folds its runs into a fixed-size Aggregates
// as it goes, the shard file carries the folded value, and the coordinator
// merges one Aggregates per shard -- O(shards) state, independent of how
// many runs each shard held.
//
// Merge laws (DESIGN.md section 12, proven by tests/test_aggregates.cpp):
//   * a merge with a default-constructed Aggregates is the identity, and
//     merge is associative on all integral state (double sums re-associate
//     only to rounding, hence the fixed fold order below);
//   * every integral field (bucket counts, totals, counter sums, run
//     counts) is fully order-independent: any merge tree over the same
//     runs yields the same value;
//   * double accumulators (sums, residency seconds) are reduced in a FIXED
//     fold order -- runs in scenario-index order within a shard, shards in
//     shard-index order at the coordinator -- which is what makes a resumed
//     campaign's merged output byte-identical to an uninterrupted run of
//     the same spec (the spec pins the shard layout; a different layout
//     re-associates the sums and may differ in the last ulp).
//
// Scheduling-dependent counters (the pool.* family, whose values depend on
// how runs share a fleet worker's device) are excluded from counter sums,
// mirroring the fleet-vs-serial oracle's "identical modulo pool.*" law.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/bin_format.h"

namespace ccdem::harness {
class JsonWriter;
}

namespace ccdem::campaign {

/// Fixed-bucket histogram with mergeable moments.  Values clamp into the
/// edge buckets, so the shape is total over any input.
struct MergeHistogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::uint64_t> counts;  // size = bucket count
  std::uint64_t total = 0;
  double sum = 0.0;
  double min_value = 0.0;  // valid iff total > 0
  double max_value = 0.0;  // valid iff total > 0

  MergeHistogram() = default;
  MergeHistogram(double lo, double hi, std::size_t buckets);

  void add(double v);
  /// Requires identical lo/hi/bucket-count shape.
  void merge(const MergeHistogram& other);

  [[nodiscard]] double mean() const;
  /// Fraction of samples at or below `v` (bucket-resolution CDF).
  [[nodiscard]] double fraction_below(double v) const;
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;

  [[nodiscard]] bool operator==(const MergeHistogram&) const = default;
};

struct Aggregates {
  std::uint64_t runs = 0;
  std::uint64_t ab_runs = 0;  ///< runs that carried an A/B quality arm
  std::uint64_t frames_composed = 0;
  std::uint64_t content_frames = 0;
  std::uint64_t rate_switches = 0;
  double sim_seconds = 0.0;

  /// Per-run mean power, mW.  fraction_below() is the fleet power CDF.
  MergeHistogram power{0.0, 2000.0, 200};
  /// Display quality %, A/B runs only.
  MergeHistogram quality{0.0, 100.0, 100};
  /// Saved power %, A/B runs only (negative = regression).
  MergeHistogram savings{-50.0, 100.0, 150};
  /// Panel residency: simulated seconds spent at each ladder rung.
  std::map<int, double> rung_seconds;
  /// Summed obs counters (pool.* excluded -- scheduling-dependent).
  std::map<std::string, std::uint64_t> counter_sums;

  void add(const ResultRecord& r);
  void add_counters(const CountersRecord& c);
  void merge(const Aggregates& other);

  /// Canonical binary payload for an AggregateRecord (maps serialize in
  /// key order, so encode() is deterministic).
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static std::optional<Aggregates> decode(
      std::string_view payload, std::string* error = nullptr);

  /// Writes the aggregate as a JSON object (summary scalars, histogram
  /// buckets, CDF points, residency, counter sums) via the given writer.
  void write_json(harness::JsonWriter& w) const;

  [[nodiscard]] bool operator==(const Aggregates&) const = default;
};

/// True for counters excluded from aggregation (currently the pool.*
/// family, whose values depend on fleet scheduling, not on the runs).
[[nodiscard]] bool counter_excluded_from_aggregates(std::string_view name);

}  // namespace ccdem::campaign
