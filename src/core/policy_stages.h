// The stock policy stages, ported from the monolithic controller classes
// (SectionPolicy / NaivePolicy / HysteresisPolicy / the DPM's inline boost,
// floor and recovery planes) plus the two stages the pipeline seam was
// built to host: the predictive content-rate governor and the GPU-DVFS
// co-control cap.
//
// Port contract: replaying a legacy ControlMode through its canonical
// pipeline spec is byte-identical to the pre-refactor controller (traces,
// counters, spans -- modulo the new policy.* counters and arbiter spans).
// Every behavioural subtlety preserved here is called out inline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/policy_pipeline.h"
#include "core/section_table.h"
#include "core/self_refresh_controller.h"
#include "display/refresh_rate.h"
#include "gfx/surface_flinger.h"
#include "power/device_power_model.h"

namespace ccdem::core {

/// Boost target resolution shared by the boost stage and the controller's
/// immediate on-touch actuation: the configured cap when the DDIC still
/// advertises it, else the advertised maximum.
[[nodiscard]] int resolve_boost_hz(const display::RefreshRateSet& advertised,
                                   int boost_hz);

/// The paper's section table (Equation (1)): rate source.
class SectionStage final : public PolicyStage {
 public:
  explicit SectionStage(SectionTable table) : table_(std::move(table)) {}
  [[nodiscard]] std::string_view name() const override { return "section"; }
  std::optional<RateProposal> propose(const PolicyInput& in) override;
  [[nodiscard]] const SectionTable& table() const { return table_; }

 private:
  SectionTable table_;
};

/// The paper's failed direct mapping (ablation): smallest supported rate
/// >= the measured content rate.  Blind to content the current (low)
/// refresh rate hides, so it ratchets down and sticks.
class NaiveStage final : public PolicyStage {
 public:
  explicit NaiveStage(display::RefreshRateSet rates)
      : rates_(std::move(rates)) {}
  [[nodiscard]] std::string_view name() const override { return "naive"; }
  std::optional<RateProposal> propose(const PolicyInput& in) override;

 private:
  display::RefreshRateSet rates_;
};

/// Asymmetric hysteresis over the upstream rate sources: increases pass
/// through untouched (no proposal -- the source's own proposal already
/// wins), a decrease is let through only after `down_confirmations`
/// consecutive down-decisions; until then this stage proposes the current
/// rate, which out-arbitrates the lower source proposal (exactly the
/// legacy wrapper's "return current_hz").
class HysteresisStage final : public PolicyStage {
 public:
  explicit HysteresisStage(int down_confirmations)
      : down_confirmations_(down_confirmations) {}
  [[nodiscard]] std::string_view name() const override { return "hysteresis"; }
  std::optional<RateProposal> propose(const PolicyInput& in) override;
  [[nodiscard]] int down_confirmations() const { return down_confirmations_; }
  [[nodiscard]] int pending_down() const { return pending_down_; }

 private:
  int down_confirmations_;
  int pending_down_ = 0;
};

/// Touch boost: while the booster's hold window is open (in.boost_active),
/// proposes the boost target.  Non-policy class -- the section-transition
/// counter keeps tracking the underlying policy decision through boosts.
class BoostStage final : public PolicyStage {
 public:
  explicit BoostStage(int boost_hz) : boost_hz_(boost_hz) {}
  [[nodiscard]] std::string_view name() const override { return "boost"; }
  std::optional<RateProposal> propose(const PolicyInput& in) override;

 private:
  int boost_hz_;
};

/// Safety floor: proposes min_hz whenever the hardware ladder supports it
/// (max-rate arbitration turns the unconditional proposal into the legacy
/// "target = max(target, min_hz)" clamp).
class FloorStage final : public PolicyStage {
 public:
  explicit FloorStage(int min_hz) : min_hz_(min_hz) {}
  [[nodiscard]] std::string_view name() const override { return "floor"; }
  std::optional<RateProposal> propose(const PolicyInput& in) override;

 private:
  int min_hz_;
};

/// Predictive content-rate governor (PAPERS.md: Anglada et al.; SNIPPETS.md
/// snippet 1: DynClockVita's asymmetric cooldowns).  Ups are instant, like
/// the reactive table; on a *stable* downtrend the stage extrapolates the
/// content rate `lead` ticks ahead and steps down to the predicted section
/// early -- after `down_confirmations` consecutive confirmations and at
/// most one down-step per cooldown.  The proposed rate is never above the
/// reactive table's own choice, so the stage can only save energy relative
/// to the reactive stack on identical traces.
class PredictiveRateStage final : public PolicyStage {
 public:
  PredictiveRateStage(SectionTable table, PredictiveConfig config);
  [[nodiscard]] std::string_view name() const override { return "predictive"; }
  std::optional<RateProposal> propose(const PolicyInput& in) override;
  void register_obs(obs::ObsSink* obs) override;
  [[nodiscard]] int target_hz() const { return target_hz_; }

 private:
  SectionTable table_;
  PredictiveConfig config_;
  std::vector<double> window_;  // ring of recent content-rate samples
  std::size_t window_head_ = 0;
  std::size_t window_count_ = 0;
  int target_hz_ = 0;  // 0 until the first sample
  int down_streak_ = 0;
  sim::Time last_down_{sim::Time{} - sim::seconds(3600)};
  std::uint64_t* ctr_presteps_ = nullptr;
};

/// GPU-DVFS co-control: models a GPU clock ladder whose rung r delivers
/// max_hz * (r+1)/rungs fps of render capacity.  Content-rate instability
/// up-rungs immediately; a sustained stable streak with headroom down-rungs.
/// The display target is capped at the rung's capacity (no point scanning
/// out faster than the GPU renders) -- except while boosted or preempted,
/// where quality/recovery semantics own the rate.
class DvfsCoControlStage final : public PolicyStage {
 public:
  explicit DvfsCoControlStage(DvfsConfig config, int min_hz)
      : config_(config), min_hz_(min_hz), rung_(config.rungs - 1) {}
  [[nodiscard]] std::string_view name() const override { return "dvfs"; }
  void adjust(const PolicyInput& in, bool preempted, int& target_hz) override;
  void register_obs(obs::ObsSink* obs) override;
  [[nodiscard]] int rung() const { return rung_; }

 private:
  [[nodiscard]] double capacity_fps(int rung, const PolicyInput& in) const;

  DvfsConfig config_;
  int min_hz_;
  int rung_;
  int stable_streak_ = 0;
  double last_fps_ = 0.0;
  bool has_last_ = false;
  std::uint64_t* ctr_caps_ = nullptr;
  double* gauge_rung_ = nullptr;
};

/// Panel self-refresh as a stage: owns a SelfRefreshController, constructed
/// in start() so its frame listener and evaluation series register in the
/// same canonical order the device assembly used (after the controller's
/// own registrations).  Proposes nothing -- PSR acts on composition gaps,
/// not on the rate.
class SelfRefreshStage final : public PolicyStage {
 public:
  SelfRefreshStage(gfx::SurfaceFlinger& flinger, power::DevicePowerModel& power,
                   SelfRefreshConfig config)
      : flinger_(flinger), power_(power), config_(config) {}
  [[nodiscard]] std::string_view name() const override {
    return "self_refresh";
  }
  void start(sim::Simulator& sim) override;
  void stop() override;
  [[nodiscard]] SelfRefreshController* controller() { return ctrl_.get(); }

 private:
  gfx::SurfaceFlinger& flinger_;
  power::DevicePowerModel& power_;
  SelfRefreshConfig config_;
  std::unique_ptr<SelfRefreshController> ctrl_;
};

/// The recovery plane's evaluation side (DESIGN.md section 9), ported from
/// the monolithic controller: safe-mode rearm + pin (preempt), and the
/// advertised-rate revalidation, vsync/underserve watchdog and
/// pending-switch timeout (adjust).  The retry ladder itself stays with the
/// actuation plane, reached through RecoveryHost.
class RecoveryStage final : public PolicyStage {
 public:
  explicit RecoveryStage(RecoveryConfig config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override { return "recovery"; }
  std::optional<int> preempt(const PolicyInput& in) override;
  void adjust(const PolicyInput& in, bool preempted, int& target_hz) override;
  void register_obs(obs::ObsSink* obs) override;
  void set_recovery_host(RecoveryHost* host) override { host_ = host; }

 private:
  RecoveryConfig config_;
  RecoveryHost* host_ = nullptr;

  // Watchdog state (was the DPM's).
  bool underserved_ = false;
  sim::Time underserved_since_{};
  std::uint64_t last_vsync_count_ = 0;
  sim::Time last_vsync_progress_{};

  obs::ObsSink* obs_ = nullptr;
  std::uint64_t* ctr_watchdog_fallbacks_ = nullptr;
  std::uint64_t* ctr_retry_giveups_ = nullptr;
};

/// The system-pressure safety plane (DESIGN.md section 13): a fixed-order
/// graceful-degradation ladder over the modeled environmental pressure
/// (thermal throttle, battery brownout, vsync jitter storms).
///
///   rung 0  normal operation
///   rung 1  drop boost: the target never exceeds the policy's own choice
///   rung 2  cap the max rate (config cap, or one ladder step below max)
///   rung 3  additionally dim the panel (brightness * dim_factor)
///   rung 4  safe mode: pin the minimum advertised rate
///
/// Invariant contract (check/invariants.h, I7/I8): rungs shed one at a time
/// toward the pressure severity -- never skipping -- each after `step_hold`
/// on the previous rung, and never step down while pressure is active.
/// After pressure clears, one rung is regained per `recovery_cooldown`.
/// Every rung change stamps a kDegrade span (frame = change index, arg =
/// the new rung).
class DegradationLadderStage final : public PolicyStage {
 public:
  explicit DegradationLadderStage(LadderConfig config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override { return "degrade"; }
  std::optional<int> preempt(const PolicyInput& in) override;
  void adjust(const PolicyInput& in, bool preempted, int& target_hz) override;
  void register_obs(obs::ObsSink* obs) override;

  /// Late wiring (device assembly): the pressure source the ladder listens
  /// to and the power model whose brightness the dim rung actuates.  Either
  /// may be null (the ladder then idles at rung 0 / skips dimming).
  void bind_pressure(PressureSource* source, power::DevicePowerModel* power) {
    source_ = source;
    power_ = power;
  }

  [[nodiscard]] int rung() const { return rung_; }

 private:
  void update_rung(sim::Time now);
  void set_rung(sim::Time now, int rung, int severity);
  [[nodiscard]] int cap_rate(const PolicyInput& in) const;

  LadderConfig config_;
  PressureSource* source_ = nullptr;
  power::DevicePowerModel* power_ = nullptr;

  int rung_ = 0;
  /// Sentinel "long ago" so the first shed on pressure onset is immediate.
  sim::Time last_change_{sim::Time{} - sim::seconds(3600)};
  sim::Time last_update_{sim::Time{} - sim::seconds(3600)};
  double base_brightness_ = 0.0;  // captured when the dim rung engages
  std::uint64_t changes_ = 0;

  obs::ObsSink* obs_ = nullptr;
  std::uint64_t* ctr_sheds_ = nullptr;
  std::uint64_t* ctr_recoveries_ = nullptr;
  std::uint64_t* ctr_safe_modes_ = nullptr;
  std::uint64_t* ctr_caps_ = nullptr;
  double* gauge_rung_ = nullptr;
};

}  // namespace ccdem::core
