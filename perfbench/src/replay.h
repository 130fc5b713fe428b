// Outside-in layer timing.  Nothing here changes the program: layers are
// timed through public calls and passive observers the benchmark registers
// itself.
//
// replay() is run_scenario_once() (check/oracles.h) with the device assembly
// of harness::run_experiment_on() spelled out, so that markers can sit
// between its steps.  Within each V-Sync tick the panel runs its kApp
// observers, then its kComposer observers; the composer hook calls the
// flinger, which composes and then calls its frame listeners in
// registration order.  The markers are:
//
//   kApp:       [app_begin] apps render ... [app_end]
//   kComposer:  composer hook: latch + compose, power/recorder listeners,
//               [probe_begin] DPM on_frame (meter) [probe_end] ...
//               [composer_end]
//
// app_begin is registered before install_app, app_end after start_control,
// probe_begin before start_control (so it precedes the DPM's listener) and
// probe_end after it, composer_end after configure() registered the hook.
// Compose is the composer phase outside the meter bracket.  The calls
// outside run_until are timed directly; the rest of run_until is sim.other.
#pragma once

#include <cstdint>

#include "check/oracles.h"
#include "harness/experiment.h"

namespace perfbench {

struct LayerTimes {
  /// The run's fixed cost outside run_until: ObsSink and device
  /// construction, configure, install_app, start_control and script
  /// scheduling before it; finish(), result collection, trace
  /// serialization and teardown after it.
  double setup_ms = 0.0;
  /// kApp phase: every app's render and post.
  double render_ms = 0.0;
  /// The composer phase outside the meter bracket: latch, compose, the
  /// power and recorder listeners before it, the present span after it.
  double compose_ms = 0.0;
  /// The DPM's on_frame bracket (content-rate meter).
  double meter_ms = 0.0;
  /// run_until wall time outside the three phases above: event queue, DPM
  /// evaluation and policy pipeline, input dispatch, Monsoon sampling,
  /// fault and pressure events.
  double other_ms = 0.0;
  /// The whole replay, end to end.
  double wall_ms = 0.0;

  [[nodiscard]] double named_ms() const {
    return setup_ms + render_ms + compose_ms + meter_ms;
  }
  [[nodiscard]] double layers_ms() const { return named_ms() + other_ms; }
  LayerTimes& operator+=(const LayerTimes& o);
};

struct Replay {
  ccdem::check::RunArtifacts artifacts;
  LayerTimes times;
};

/// Runs `cfg` exactly as check::run_scenario_once(cfg, opt) does -- same
/// results, counters, spans and trace bytes -- and times its layers.
[[nodiscard]] Replay replay(ccdem::harness::ExperimentConfig cfg,
                            const ccdem::check::RunOptions& opt);

}  // namespace perfbench
