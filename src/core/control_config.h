// Configuration structs for the control plane (meter, pipeline stages,
// recovery), shared between DisplayPowerManager and FrameRateGovernor.
//
// MeterConfig is the one description of "how the content-rate meter runs";
// GovernorConfig and DpmConfig both embed it instead of duplicating the
// grid / window / cadence / culling fields (they used to drift).
#pragma once

#include "core/grid_sampler.h"
#include "sim/time.h"

namespace ccdem::core {

/// How the content-rate meter samples the screen.  Shared verbatim by the
/// proposed controller (DpmConfig) and the E3 governor (GovernorConfig).
struct MeterConfig {
  GridSpec grid = GridSpec::grid_9k();
  /// Sliding window the content rate is measured over.
  sim::Duration window = sim::seconds(1);
  /// Evaluation cadence of the controller driven by this meter.
  sim::Duration eval_period = sim::milliseconds(100);
  /// Damage-scoped metering (the O(changed-pixels) hot path).  The DST
  /// harness turns it off to run the unculled reference meter as a
  /// differential oracle; classifications must be identical either way.
  bool damage_culling = true;
};

/// Self-healing behaviour against a faulty panel link (DESIGN.md section 9).
/// Disabled by default -- the paper's kernel-patched panel never fails, and
/// with `enabled == false` the controller registers no extra counters and
/// takes no extra branches on the ack path, keeping golden traces
/// bit-identical.  The device layer auto-enables it when a FaultPlan is
/// active.
struct RecoveryConfig {
  bool enabled = false;
  /// A NAK'd switch is retried this many times with exponential backoff
  /// (backoff, 2x, 4x, ...) before the attempt counts as one fault.
  int max_retries = 4;
  sim::Duration retry_backoff = sim::milliseconds(40);
  /// A target unreached for this long (NAK streak or settle stall) counts
  /// as one fault and abandons the retry ladder.
  sim::Duration switch_timeout = sim::milliseconds(400);
  /// Watchdog: content rate persistently above the panel's effective rate
  /// (delivered-quality collapse), or no vsync progress, sustained for this
  /// long forces fallback to the maximum advertised rate.
  sim::Duration watchdog_window = sim::milliseconds(600);
  /// Consecutive faults (retry giveups, switch timeouts, watchdog trips)
  /// without an intervening acknowledged switch before safe mode engages:
  /// content-rate control off, panel pinned to the maximum advertised rate.
  int safe_mode_after = 4;
  /// Safe mode re-arms (section control resumes, fault count resets) after
  /// this cooldown.
  sim::Duration safe_mode_cooldown = sim::seconds(3);
};

/// Controller health, exported as the dpm.degradation_state gauge (only
/// when recovery is enabled).
enum class DegradationState {
  kNormal = 0,    ///< section control, panel acking
  kRetrying = 1,  ///< a NAK'd switch is on the retry/backoff ladder
  kFallback = 2,  ///< watchdog or giveup forced the maximum rate
  kSafeMode = 3,  ///< content control suspended until the cooldown expires
};

/// PredictiveRateStage: exploit frame coherence (Anglada et al., PAPERS.md)
/// to step the rate down *before* the reactive section table would, on a
/// detected stable downtrend -- with asymmetric confirmation in the
/// DynClockVita cooldown idiom (ups immediate, downs confirmed).
struct PredictiveConfig {
  /// Meter samples of history the trend estimate looks back over.
  int window = 8;
  /// Evaluation ticks of lookahead applied to a stable downtrend.
  double lead = 2.0;
  /// Residual standard deviation (fps) around the window's straight-line
  /// trend above which the window is considered unstable and prediction
  /// falls back to the reactive rate.
  double stability_threshold = 2.0;
  /// Consecutive ticks a lower rate must be predicted before it applies
  /// (the asymmetric counterpart of the instant up-step).
  int down_confirmations = 2;
  /// Minimum spacing between applied down-steps.
  sim::Duration down_cooldown = sim::milliseconds(300);
};

/// DvfsCoControlStage: couples the display rung to a modeled GPU clock
/// ladder.  Frametime instability pushes the GPU rung up immediately; a
/// sustained stable streak with capacity headroom steps it down -- and the
/// display target is capped at what the current rung can actually render
/// (no point refreshing faster than the GPU produces frames).
struct DvfsConfig {
  /// Depth of the modeled GPU clock ladder; rung r delivers
  /// max_hz * (r+1)/rungs fps of render capacity.
  int rungs = 5;
  /// Capacity margin required over the observed content rate before the
  /// ladder steps down a rung.  The margin also bounds how hard the
  /// display cap can bite: at 1.6 a burst to `capacity / 1.6` fps still
  /// renders inside the rung, keeping delivered quality above the
  /// experiment gate while the ladder catches up.
  double headroom = 1.6;
  /// Tick-over-tick content-rate change (fps) that counts as instability
  /// and forces an immediate up-rung.
  double instability_fps = 8.0;
  /// Consecutive stable ticks before a down-rung is considered
  /// (FRAMETIME_STABLE_FRAMES_N in DynClockVita's dynamic mode).
  int stable_ticks = 5;
};

/// DegradationLadderStage: the system-pressure safety plane (DESIGN.md
/// section 13).  Disabled by default -- with `enabled == false` the stage is
/// never built, no degrade.* counters register and golden traces stay
/// bit-identical.  The device layer auto-enables it when the FaultPlan
/// carries pressure episode classes.
struct LadderConfig {
  bool enabled = false;
  /// Minimum dwell on a rung before the ladder sheds one more (rungs are
  /// never skipped: pressure severity only sets the shedding *target*).
  sim::Duration step_hold = sim::milliseconds(200);
  /// Hysteretic recovery: after pressure clears, one rung is regained per
  /// cooldown (never faster, never skipping a rung).
  sim::Duration recovery_cooldown = sim::milliseconds(500);
  /// Brightness multiplier applied at the dim rung (rung 3+).
  double dim_factor = 0.6;
  /// Rate cap applied from rung 2 up; 0 = one ladder step below the
  /// hardware maximum.
  int cap_hz = 0;
};

/// What the degradation ladder listens to: the fault layer's modeled
/// environmental pressure (thermal / brownout / vsync jitter).  Severity is
/// the rung the ladder sheds toward -- 0 = no pressure, up to 4 = safe mode.
class PressureSource {
 public:
  virtual ~PressureSource() = default;
  [[nodiscard]] virtual bool under_pressure(sim::Time t) const = 0;
  [[nodiscard]] virtual int severity(sim::Time t) const = 0;
};

/// Configuration of the proposed controller: the meter plus the knobs the
/// policy-pipeline stages are built from (which stages actually run is the
/// PipelineSpec's choice; unused knobs are inert).
struct DpmConfig {
  MeterConfig meter{};
  /// How long the boost pins the maximum rate after the last touch event.
  /// Android-era input boosts hold a few hundred ms; by then the meter has
  /// seen the interaction burst and the section table takes over.
  sim::Duration boost_hold = sim::milliseconds(500);
  /// Rate the booster targets; 0 = the panel's maximum.  On tall ladders
  /// (120 Hz LTPO) boosting all the way to the top wastes power on content
  /// that cannot exceed 60 fps -- cap it at the app-relevant maximum.
  int boost_hz = 0;
  /// Floor below which the controller never parks the panel; 0 = the
  /// ladder's minimum.  Deep floors (1 Hz) amplify any metering miss --
  /// content the sparse grid cannot see (a 3 px cursor) freezes at 1 fps --
  /// so conservative deployments pin a safety floor, as Android's
  /// "minimum refresh rate" setting later did.
  int min_hz = 0;
  /// Threshold placement for the section table (0.5 = paper's Equation (1)).
  double section_alpha = 0.5;
  /// Charge the metering comparison's CPU energy to the power model.  The
  /// comparison is memory-bound and runs on whatever core is already awake
  /// for composition, so the *incremental* power while comparing is well
  /// below a core's peak (the paper calls the cost "almost no overhead").
  bool charge_meter_cost = true;
  double meter_cpu_mw = 100.0;
  /// Minimum time the touch boost stays up after the touch that opened it
  /// (tolerates a lossy input path; 0 = classic behaviour).
  sim::Duration boost_min_hold{};
  /// Consecutive down-decisions the hysteresis stage requires before a
  /// rate decrease applies (increases always pass through immediately).
  int hysteresis_down_confirmations = 3;
  PredictiveConfig predictive{};
  DvfsConfig dvfs{};
  RecoveryConfig recovery{};
  LadderConfig ladder{};
};

}  // namespace ccdem::core
