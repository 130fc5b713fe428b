// FaultPlan: the declarative description of what goes wrong, and how often.
//
// The paper's control loop works because a kernel patch makes refresh-rate
// switching on the Galaxy S3 land instantly and reliably; real DDICs NAK
// switches, take variable time to settle, get stuck, transiently drop
// capabilities, lose touch IRQs, and return corrupted reads.  A FaultPlan is
// pure data -- per-event probabilities and Poisson episode rates -- that the
// FaultInjector turns into deterministic, RNG-seeded fault streams.  The
// default-constructed plan is empty: no injector is built, no fault.*
// counters register, and every hot path behaves bit-identically to a build
// without the fault layer at all (the zero-cost-when-disabled contract,
// DESIGN.md section 9).
#pragma once

#include "sim/time.h"

namespace ccdem::fault {

struct FaultPlan {
  // --- refresh-switch faults (per set_refresh_rate request) ---------------
  /// Probability the DDIC NAKs a switch request outright.
  double switch_nak_p = 0.0;
  /// Probability an accepted switch needs extra settle time before the
  /// timing generator reprograms (uniform in [min, max]).
  double switch_delay_p = 0.0;
  sim::Duration switch_delay_min = sim::milliseconds(4);
  sim::Duration switch_delay_max = sim::milliseconds(40);

  // --- stuck-at-rate episodes (Poisson arrivals) ---------------------------
  /// Mean episodes per simulated second; while an episode is live the panel
  /// keeps scanning out at its current rate and NAKs every switch request.
  double stuck_per_s = 0.0;
  sim::Duration stuck_duration = sim::milliseconds(600);

  // --- transient capability loss (Poisson arrivals) ------------------------
  /// Mean episodes per second; each revokes one currently-advertised
  /// non-maximum rate from the panel's advertised set for the duration (the
  /// maximum always survives, so a fallback target always exists).
  double capability_loss_per_s = 0.0;
  sim::Duration capability_loss_duration = sim::seconds(2);

  // --- touch-path faults (per delivered event) -----------------------------
  double touch_drop_p = 0.0;
  double touch_dup_p = 0.0;
  /// Probability an event is delivered late -- with its ORIGINAL timestamp,
  /// so downstream listeners see out-of-order times, as a deferred IRQ
  /// produces (uniform delay in [min, max]).
  double touch_delay_p = 0.0;
  sim::Duration touch_delay_min = sim::milliseconds(8);
  sim::Duration touch_delay_max = sim::milliseconds(60);

  // --- meter read corruption (per classified frame) ------------------------
  /// Probability one random bit of one random retained grid sample flips
  /// before the comparison (a bus/readback corruption; makes a redundant
  /// frame look meaningful and vice versa).
  double meter_bitflip_p = 0.0;

  // --- system-pressure episodes (Poisson arrivals, DESIGN.md section 13) ---
  // Unlike the link/sensor faults above, pressure classes model sustained
  // environmental stress: the right response is to *shed quality in order*
  // (core::DegradationLadderStage), not to retry.

  /// Thermal throttle: while an episode is live the modeled die temperature
  /// is over the throttle trip point and the panel's top advertised rate is
  /// revoked (the rate ladder is capped one rung down from hardware max).
  double thermal_per_s = 0.0;
  sim::Duration thermal_duration = sim::milliseconds(1200);

  /// Battery brownout: while an episode is live the modeled state of charge
  /// sags below the brownout thresholds (power::BrownoutThresholds), which
  /// caps max rate and brightness at the ladder's dim rung.
  double brownout_per_s = 0.0;
  sim::Duration brownout_duration = sim::milliseconds(1500);

  /// Vsync jitter/deadline-miss storm: while a storm is live each panel
  /// vsync is independently delivered late (uniform in (0, jitter_late_max])
  /// with probability jitter_late_p, or dropped outright (the frame never
  /// reaches the observers) with probability jitter_drop_p.
  double jitter_per_s = 0.0;
  sim::Duration jitter_duration = sim::milliseconds(800);
  double jitter_late_p = 0.5;
  double jitter_drop_p = 0.2;
  sim::Duration jitter_late_max = sim::milliseconds(6);

  /// Faults stop firing at this simulated time; ticks == 0 means "forever".
  /// Tests point this at mid-run so safe-mode re-arm becomes observable.
  sim::Time active_until{};

  /// Pressure episodes stop *arriving* at this simulated time (episodes
  /// already live drain out over their durations); ticks == 0 = "forever".
  /// Separate from active_until so invariant I8 can watch the ladder return
  /// to rung 0 while link/sensor faults keep their own horizon.
  sim::Time pressure_until{};

  /// True when no fault class can ever fire -- the default, under which the
  /// device skips building an injector entirely.
  [[nodiscard]] bool empty() const;

  /// True when none of the eight link/sensor fault classes can fire.
  [[nodiscard]] bool fault_empty() const;

  /// True when none of the three pressure episode classes can fire -- the
  /// default, under which the degradation ladder stays out of the pipeline
  /// and no pressure.*/degrade.* counters register.
  [[nodiscard]] bool pressure_empty() const;

  /// Whether faults may still fire at `t`.
  [[nodiscard]] bool active(sim::Time t) const {
    return active_until.ticks == 0 || t < active_until;
  }

  /// Whether pressure episodes may still arrive at `t`.
  [[nodiscard]] bool pressure_active(sim::Time t) const {
    return pressure_until.ticks == 0 || t < pressure_until;
  }

  /// The characterized "nominal" envelope the robustness bench sweeps
  /// around: every class on, at rates a real flaky panel could plausibly
  /// show, and within which the self-healing stack holds >= 95 % quality.
  [[nodiscard]] static FaultPlan nominal();

  /// The characterized "nominal" pressure envelope (pressure classes only;
  /// every link/sensor probability stays zero).  bench_pressure_envelope
  /// sweeps multiples of this plan and the ladder must hold >= 95 % quality
  /// at 1x.
  [[nodiscard]] static FaultPlan pressure_nominal();

  /// This plan with every probability and episode rate multiplied by
  /// `factor` (probabilities clamp to 1); durations are unchanged.
  [[nodiscard]] FaultPlan scaled(double factor) const;
};

}  // namespace ccdem::fault
