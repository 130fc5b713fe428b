// Output check: one 64-bit fingerprint of everything a run simulated.
//
// Covers every ExperimentResult field (traces point by point, scalars
// bitwise, both frame hashes) and every obs counter and gauge except the
// ones that describe how much work the host did rather than what was
// simulated: pool.* (buffer reuse), meter.pixels_* (damage culling) and
// flinger.memo.* (tile memoization).  Two runs of one config must agree on
// it whatever the kernel table, memo, culling or instrumentation.
#pragma once

#include <cstdint>

#include "harness/experiment.h"
#include "obs/counters.h"

namespace perfbench {

[[nodiscard]] std::uint64_t fingerprint(
    const ccdem::harness::ExperimentResult& r,
    const ccdem::obs::Counters::Snapshot& counters);

}  // namespace perfbench
