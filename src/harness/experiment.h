// Experiment harness: one app, one device, one control mode, one seed.
//
// Builds a device::SimulatedDevice around an application profile, replays a
// Monkey script, and collects the traces and scalars the paper's figures
// report.  The A/B runner repeats a run with and without the proposed
// system under the *same* script (same seed), mirroring the paper's
// methodology ("repeated the same script generated by Monkey, and measured
// the device's power consumption with and without the proposed system").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_model.h"
#include "apps/app_profiles.h"
#include "core/display_power_manager.h"
#include "device/device_config.h"
#include "display/refresh_rate.h"
#include "fault/fault_plan.h"
#include "gfx/hash.h"
#include "gfx/surface_flinger.h"
#include "metrics/quality.h"
#include "obs/obs.h"
#include "power/device_power_model.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace ccdem::device {
class SimulatedDevice;
}

namespace ccdem::harness {

// The control-mode vocabulary lives in the device layer; the harness keeps
// the old spelling (harness::ControlMode) for its many users.
using ControlMode = device::ControlMode;
using device::control_mode_name;

struct ExperimentConfig {
  apps::AppSpec app;
  sim::Duration duration = sim::seconds(60);
  std::uint64_t seed = 1;
  ControlMode mode = ControlMode::kBaseline60;
  /// Explicit stage composition; used only when `mode == kPipeline`.
  core::PipelineSpec pipeline{};
  core::DpmConfig dpm{};
  /// Used only when `mode == kE3FrameRate`.
  core::GovernorConfig governor{};
  power::DevicePowerParams power = power::DevicePowerParams::galaxy_s3();
  display::RefreshRateSet rates = display::RefreshRateSet::galaxy_s3();
  gfx::Size screen = apps::kGalaxyS3Screen;
  sim::Duration power_sample = sim::milliseconds(50);
  /// Screen brightness in [0, 1]; the paper measures at 50 %.
  double brightness = 0.5;
  /// Fixed rate of the kBaseline60 arm; 0 = the rate set's maximum.  Set
  /// explicitly (e.g. 60) when comparing across panels whose maxima differ,
  /// so both arms share the same stock baseline.
  int baseline_hz = 0;
  /// Panel "fast exit": rate increases retime the next V-Sync instead of
  /// waiting out the old period.  Off for the paper's Galaxy S3; essential
  /// for LTPO-class ladders with 1-10 Hz floors.
  bool fast_rate_up = false;
  /// Fault injection plan (robustness layer); default empty = no injector,
  /// bit-identical to a clean run.
  fault::FaultPlan fault{};
  /// Ignored.  Read only by perfbench/; removed with the BENCHMARK.json
  /// per_layer follow-up.
  bool tile_memo = true;
  /// When true, fingerprint the full framebuffer after every composed frame
  /// (FrameStreamHasher) and fold the hashes into
  /// ExperimentResult::frame_stream_hash.  Hashing every frame costs real
  /// time, so it is opt-in -- the DST oracles turn it on to prove
  /// frame-stream identity across damage culling, fleet scheduling and span
  /// settings.
  bool hash_frames = false;
  /// Observability sink (optional, not owned; must outlive the run).
  obs::ObsSink* obs = nullptr;
  /// Explicit touch script replayed verbatim instead of generating one from
  /// the Monkey profile + seed.  A `.repro` file embeds its (possibly
  /// shrunk) script here so replay does not depend on the generator.
  std::optional<std::vector<input::TouchGesture>> script;

  /// The device half of this config (everything except the app + duration).
  [[nodiscard]] device::DeviceConfig device_config() const;
};

struct ExperimentResult {
  std::string app_name;
  ControlMode mode = ControlMode::kBaseline60;
  sim::Duration duration{};

  double mean_power_mw = 0.0;
  sim::Trace power{"power_mw"};

  /// Ground-truth per-second rates from the compositor.
  sim::Trace frame_rate{"frame_rate_fps"};
  sim::Trace content_rate{"content_rate_fps"};

  /// The meter's view (empty in baseline mode, which runs no meter).
  sim::Trace measured_content_rate{"measured_content_rate_fps"};
  double meter_error_rate = 0.0;

  /// Number of refresh-rate switches the panel performed.
  std::uint64_t rate_switches = 0;

  /// Touch-response latency (touch-down to first content frame).
  double response_mean_ms = 0.0;
  double response_p95_ms = 0.0;
  double response_max_ms = 0.0;
  std::size_t response_interactions = 0;

  /// Where the energy went (through the end of the run).
  power::EnergyBreakdown energy;

  /// Refresh rate step signal and its time-weighted mean.
  sim::Trace refresh_rate{"refresh_hz"};
  double mean_refresh_hz = 0.0;

  std::uint64_t frames_composed = 0;
  std::uint64_t content_frames = 0;
  std::uint64_t frames_posted = 0;
  std::uint64_t touch_events = 0;

  /// Fingerprint of the final displayed frame (always computed; one hash of
  /// one buffer).  Two runs that end on different pixels cannot agree here.
  std::uint64_t final_frame_hash = 0;
  /// Fold of every composed frame's full-buffer fingerprint
  /// (Framebuffer::fast_hash); 0 unless `hash_frames` was set.  Each frame's
  /// fingerprint covers the whole buffer, not just its damage, so a pixel
  /// written outside the damage still moves the value -- exactly what the
  /// differential oracles compare.  FrameStreamHasher computes it by
  /// rehashing only from each frame's first damaged row on.
  std::uint64_t frame_stream_hash = 0;
};

/// The frame listener behind ExperimentConfig::hash_frames: folds every
/// composed frame's fast_hash() into a stream hash, computing each one from
/// the frame's damage instead of from scratch.
///
/// FrameInfo::damage's contract is that every pixel outside it equals frame
/// N-1, so the hash state over the rows above the first damaged row is
/// unchanged.  The hasher keeps gfx::ResumableHash checkpoints at
/// kCheckpoints evenly spaced 32-byte-aligned offsets, resumes from the last
/// one at or before that row, and refreshes the later ones on the way to the
/// end of the buffer.  Empty damage reuses the previous digest; the first
/// frame and any size change hash the whole buffer.  Debug builds assert
/// digest == fast_hash() on every frame, which checks the damage contract.
///
/// The checkpoints are a member array, so the hasher never touches the heap.
class FrameStreamHasher final : public gfx::FrameListener {
 public:
  /// 20 rows apart on the 720x1280 Galaxy S3 screen.
  static constexpr std::size_t kCheckpoints = 64;

  void on_frame(const gfx::FrameInfo& info,
                const gfx::Framebuffer& fb) override;

  /// Fold of every frame digest so far (the seed before the first frame).
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  /// The latest frame's digest, equal to its fast_hash(); 0 before any.
  [[nodiscard]] std::uint64_t frame_digest() const { return digest_; }
  /// Pixel bytes fed to the hash so far (what damage-scoping saves).
  [[nodiscard]] std::uint64_t bytes_hashed() const { return bytes_hashed_; }

 private:
  /// Hashes from checkpoint `from` to the end of `bytes` (`n` long).
  void rehash(const unsigned char* bytes, std::size_t n, std::size_t from);

  std::array<gfx::ResumableHash, kCheckpoints> checkpoints_{};
  gfx::Size size_{};         ///< the previous frame's size
  std::size_t row_bytes_ = 0;
  std::size_t step_ = 0;     ///< checkpoint spacing, a multiple of 32 bytes
  std::size_t count_ = 0;    ///< checkpoints in use; 0 before the first frame
  std::uint64_t digest_ = 0;
  std::uint64_t hash_ = gfx::kHashSeed;
  std::uint64_t bytes_hashed_ = 0;
};

[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Runs the experiment on an existing device (reconfiguring it), so a
/// long-lived device -- and its buffer pool -- can serve many runs.  The
/// result is bit-identical to run_experiment() on a fresh device; the fleet
/// runner (harness/fleet.h) builds on this.
[[nodiscard]] ExperimentResult run_experiment_on(device::SimulatedDevice& dev,
                                                 const ExperimentConfig& config);

/// An A/B comparison: the controlled arm vs the fixed-60 Hz baseline with
/// the same seed/script.  `config.mode` selects the controlled arm.
struct AbResult {
  ExperimentResult baseline;
  ExperimentResult controlled;
  double saved_power_mw = 0.0;   ///< baseline mean - controlled mean
  double saved_power_pct = 0.0;  ///< relative to baseline mean
  metrics::QualityReport quality;
};

[[nodiscard]] AbResult run_ab(const ExperimentConfig& config);

/// Seed-robustness statistics: the A/B comparison repeated over `runs`
/// consecutive seeds (the paper's ± figures aggregate repeated Monkey
/// sessions the same way).
struct RepeatedAbResult {
  int runs = 0;
  double saved_mean_mw = 0.0;
  double saved_std_mw = 0.0;
  double quality_mean_pct = 0.0;
  double quality_std_pct = 0.0;
};

[[nodiscard]] RepeatedAbResult run_ab_repeated(const ExperimentConfig& config,
                                               int runs);

}  // namespace ccdem::harness
