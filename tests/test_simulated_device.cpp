#include "device/simulated_device.h"

#include <gtest/gtest.h>

#include "apps/app_profiles.h"
#include "fault/fault_injector.h"
#include "harness/experiment.h"

namespace ccdem::device {
namespace {

harness::ExperimentConfig experiment(const char* app, ControlMode mode,
                                     std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.app = apps::app_by_name(app);
  c.duration = sim::seconds(5);
  c.seed = seed;
  c.mode = mode;
  return c;
}

TEST(SimulatedDevice, ControllerFollowsMode) {
  SimulatedDevice dev;

  DeviceConfig dc;
  dc.mode = ControlMode::kBaseline60;
  dev.configure(dc);
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  EXPECT_EQ(dev.dpm(), nullptr);
  EXPECT_EQ(dev.governor(), nullptr);

  dc.mode = ControlMode::kSectionWithBoost;
  dev.configure(dc);
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  ASSERT_NE(dev.dpm(), nullptr);
  EXPECT_EQ(dev.governor(), nullptr);

  dc.mode = ControlMode::kE3FrameRate;
  dev.configure(dc);
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  EXPECT_EQ(dev.dpm(), nullptr);
  EXPECT_NE(dev.governor(), nullptr);
}

TEST(SimulatedDevice, MeterAttachesLazilyOnFirstRun) {
  SimulatedDevice dev;
  dev.configure(DeviceConfig{});
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  EXPECT_EQ(dev.meter(), nullptr);
  dev.run_for(sim::seconds(1));
  ASSERT_NE(dev.meter(), nullptr);
  EXPECT_GT(dev.meter()->mean_power_mw(), 0.0);
}

TEST(SimulatedDevice, PanelStartsAtModeRate) {
  SimulatedDevice dev;
  DeviceConfig dc;
  dc.mode = ControlMode::kBaseline60;
  dc.baseline_hz = 40;
  dev.configure(dc);
  EXPECT_EQ(dev.panel().refresh_hz(), 40);

  dc.mode = ControlMode::kSection;
  dev.configure(dc);
  EXPECT_EQ(dev.panel().refresh_hz(), dc.rates.max_hz());
}

TEST(SimulatedDevice, FocusAppSwitchesForeground) {
  SimulatedDevice dev;
  dev.configure(DeviceConfig{});
  dev.start_control();
  dev.install_app(apps::app_by_name("Facebook"), 100, /*foreground=*/false);
  dev.install_app(apps::app_by_name("Naver"), 101, /*foreground=*/false);
  EXPECT_FALSE(dev.app(0).foreground());
  EXPECT_FALSE(dev.app(1).foreground());

  dev.focus_app(0);
  EXPECT_TRUE(dev.app(0).foreground());
  EXPECT_FALSE(dev.app(1).foreground());

  dev.focus_app(1);
  EXPECT_FALSE(dev.app(0).foreground());
  EXPECT_TRUE(dev.app(1).foreground());
}

// The reuse contract: a reconfigured device replays a config bit-identically
// -- pooled storage carries over, but its contents never do.
TEST(SimulatedDevice, ReconfiguredDeviceReplaysIdentically) {
  const harness::ExperimentConfig config =
      experiment("Jelly Splash", ControlMode::kSectionWithBoost, 11);

  SimulatedDevice dev(/*use_buffer_pool=*/true);
  const harness::ExperimentResult first =
      harness::run_experiment_on(dev, config);
  const harness::ExperimentResult second =
      harness::run_experiment_on(dev, config);

  EXPECT_DOUBLE_EQ(first.mean_power_mw, second.mean_power_mw);
  EXPECT_DOUBLE_EQ(first.mean_refresh_hz, second.mean_refresh_hz);
  EXPECT_EQ(first.frames_composed, second.frames_composed);
  EXPECT_EQ(first.content_frames, second.content_frames);
  EXPECT_EQ(first.frames_posted, second.frames_posted);
  EXPECT_EQ(first.touch_events, second.touch_events);
  EXPECT_EQ(first.rate_switches, second.rate_switches);
}

TEST(SimulatedDevice, PooledRunsMatchFreshDevice) {
  const harness::ExperimentConfig config =
      experiment("Facebook", ControlMode::kSection, 3);

  SimulatedDevice pooled(/*use_buffer_pool=*/true);
  // Warm the pool with a different workload first, so the measured run
  // really executes on recycled storage.
  (void)harness::run_experiment_on(
      pooled, experiment("Cookie Run", ControlMode::kBaseline60, 9));
  const harness::ExperimentResult reused =
      harness::run_experiment_on(pooled, config);
  const harness::ExperimentResult fresh = harness::run_experiment(config);

  EXPECT_DOUBLE_EQ(reused.mean_power_mw, fresh.mean_power_mw);
  EXPECT_DOUBLE_EQ(reused.mean_refresh_hz, fresh.mean_refresh_hz);
  EXPECT_EQ(reused.frames_composed, fresh.frames_composed);
  EXPECT_EQ(reused.content_frames, fresh.content_frames);
  EXPECT_EQ(reused.frames_posted, fresh.frames_posted);
  EXPECT_EQ(reused.meter_error_rate, fresh.meter_error_rate);
}

TEST(SimulatedDevice, BufferPoolRecyclesAcrossConfigures) {
  SimulatedDevice dev(/*use_buffer_pool=*/true);
  ASSERT_NE(dev.buffer_pool(), nullptr);

  (void)harness::run_experiment_on(
      dev, experiment("Facebook", ControlMode::kSectionWithBoost, 1));
  const std::uint64_t after_first = dev.buffer_pool()->reuses();

  (void)harness::run_experiment_on(
      dev, experiment("Facebook", ControlMode::kSectionWithBoost, 2));
  // The second assembly's screen buffer, surface and meter snapshots all come
  // out of the pool the first run released into.
  EXPECT_GT(dev.buffer_pool()->reuses(), after_first);
  EXPECT_GT(dev.buffer_pool()->reuses(), 0u);
}

/// Fails the test if any energy component ever shrinks between two touch
/// deliveries or frames.
class EnergyWatch final : public input::TouchListener,
                          public gfx::FrameListener {
 public:
  explicit EnergyWatch(const power::DevicePowerModel& power)
      : power_(power) {}
  void on_touch(const input::TouchEvent&) override { check(); }
  void on_frame(const gfx::FrameInfo&, const gfx::Framebuffer&) override {
    check();
  }
  [[nodiscard]] int checks() const { return checks_; }

 private:
  void check() {
    using B = power::EnergyBreakdown;
    static constexpr double B::*kParts[] = {
        &B::soc_base_mj,    &B::panel_static_mj, &B::refresh_mj,
        &B::link_mj,        &B::auxiliary_mj,    &B::composition_mj,
        &B::render_mj,      &B::touch_mj,        &B::meter_mj,
        &B::rate_switch_mj, &B::other_mj};
    const B& now = power_.breakdown();
    for (double B::*part : kParts) EXPECT_GE(now.*part, last_.*part);
    last_ = now;
    ++checks_;
  }

  const power::DevicePowerModel& power_;
  power::EnergyBreakdown last_;
  int checks_ = 0;
};

// A fault-delayed touch is redelivered late with its original timestamp.
// Its input-pipeline charge lands at delivery time; charging at the stale
// timestamp integrated the power model backwards (an assert in Debug
// builds, shrinking energy components in Release).
TEST(SimulatedDevice, DelayedTouchesNeverRewindEnergy) {
  SimulatedDevice dev;
  DeviceConfig dc;
  dc.mode = ControlMode::kSectionWithBoost;
  dc.seed = 7;
  dc.fault.touch_delay_p = 1.0;
  dev.configure(dc);
  const apps::AppSpec app = apps::app_by_name("Jelly Splash");
  dev.install_app(app);
  dev.start_control();
  EnergyWatch watch(dev.power());
  dev.dispatcher().add_listener(&watch);
  dev.add_frame_listener(&watch);
  dev.schedule_monkey_script(app.monkey, sim::seconds(10));
  dev.run_until(sim::Time{sim::seconds(10).ticks});
  dev.finish();

  ASSERT_NE(dev.fault(), nullptr);
  EXPECT_GT(dev.fault()->touch_delayed(), 0u);
  EXPECT_GT(dev.dispatcher().events_delivered(), 0u);
  EXPECT_GT(dev.power().breakdown().touch_mj, 0.0);
  EXPECT_GT(watch.checks(), 0);
}

TEST(SimulatedDevice, NoPoolByDefault) {
  SimulatedDevice dev;
  EXPECT_EQ(dev.buffer_pool(), nullptr);
}

}  // namespace
}  // namespace ccdem::device
