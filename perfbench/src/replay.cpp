#include "replay.h"

#include <chrono>
#include <memory>
#include <optional>

#include "device/simulated_device.h"
#include "gfx/compare.h"
#include "gfx/hash.h"
#include "obs/obs.h"
#include "obs/trace_export.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Timestamps shared by the markers of one replay.
struct Marks {
  Clock::time_point app_begin{};
  Clock::time_point last{};  // app_end, then each probe_end of the tick
  Clock::time_point probe_begin{};
  Clock::duration render{};
  Clock::duration compose{};
  Clock::duration meter{};
};

class AppBegin final : public ccdem::display::VsyncObserver {
 public:
  explicit AppBegin(Marks& m) : m_(m) {}
  void on_vsync(ccdem::sim::Time, int) override {
    m_.app_begin = Clock::now();
  }

 private:
  Marks& m_;
};

class AppEnd final : public ccdem::display::VsyncObserver {
 public:
  explicit AppEnd(Marks& m) : m_(m) {}
  void on_vsync(ccdem::sim::Time, int) override {
    m_.last = Clock::now();
    m_.render += m_.last - m_.app_begin;
  }

 private:
  Marks& m_;
};

class ProbeBegin final : public ccdem::gfx::FrameListener {
 public:
  explicit ProbeBegin(Marks& m) : m_(m) {}
  void on_frame(const ccdem::gfx::FrameInfo&,
                const ccdem::gfx::Framebuffer&) override {
    m_.probe_begin = Clock::now();
    m_.compose += m_.probe_begin - m_.last;
  }

 private:
  Marks& m_;
};

class ProbeEnd final : public ccdem::gfx::FrameListener {
 public:
  explicit ProbeEnd(Marks& m) : m_(m) {}
  void on_frame(const ccdem::gfx::FrameInfo&,
                const ccdem::gfx::Framebuffer&) override {
    m_.last = Clock::now();
    m_.meter += m_.last - m_.probe_begin;
  }

 private:
  Marks& m_;
};

class ComposerEnd final : public ccdem::display::VsyncObserver {
 public:
  explicit ComposerEnd(Marks& m) : m_(m) {}
  void on_vsync(ccdem::sim::Time, int) override {
    m_.compose += Clock::now() - m_.last;
  }

 private:
  Marks& m_;
};

/// Same fold as run_experiment_on's private frame-stream hasher.
class FrameStreamHasher final : public ccdem::gfx::FrameListener {
 public:
  void on_frame(const ccdem::gfx::FrameInfo&,
                const ccdem::gfx::Framebuffer& fb) override {
    hash_ = ccdem::gfx::hash_combine(hash_, fb.fast_hash());
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = ccdem::gfx::kHashSeed;
};

/// run_experiment_on()'s collection step.
ccdem::harness::ExperimentResult collect(
    ccdem::device::SimulatedDevice& dev,
    const ccdem::harness::ExperimentConfig& config, ccdem::apps::AppModel& app,
    const FrameStreamHasher& stream_hasher) {
  ccdem::harness::ExperimentResult r;
  r.app_name = config.app.name;
  r.mode = config.mode;
  r.duration = config.duration;
  r.mean_power_mw = dev.meter()->mean_power_mw();
  r.power = dev.meter()->trace();
  r.frame_rate = dev.recorder().frame_rate();
  r.content_rate = dev.recorder().content_rate();
  if (ccdem::core::DisplayPowerManager* dpm = dev.dpm()) {
    r.measured_content_rate = dpm->content_rate_trace();
    r.meter_error_rate = dpm->meter().error_rate();
  }
  if (ccdem::core::FrameRateGovernor* governor = dev.governor()) {
    r.meter_error_rate = governor->meter().error_rate();
  }
  r.rate_switches = dev.refresh_trace().size() - 1;
  r.refresh_rate = dev.refresh_trace();
  r.mean_refresh_hz = dev.refresh_trace().time_weighted_mean(
      ccdem::sim::Time{}, dev.sim().now());
  r.frames_composed = dev.flinger().frames_composed();
  r.content_frames = dev.flinger().content_frames();
  r.frames_posted = app.frames_posted();
  r.touch_events = dev.dispatcher().events_delivered();
  r.final_frame_hash = dev.flinger().framebuffer().fast_hash();
  if (config.hash_frames) r.frame_stream_hash = stream_hasher.hash();
  if (ccdem::metrics::ResponseLatencyRecorder* latency = dev.latency()) {
    r.response_mean_ms = latency->mean_ms();
    r.response_p95_ms = latency->percentile_ms(95.0);
    r.response_max_ms = latency->max_ms();
    r.response_interactions = latency->interactions();
  }
  dev.power().add_energy_mj(dev.sim().now(), 0.0);
  r.energy = dev.power().breakdown();
  return r;
}

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  setup_ms += o.setup_ms;
  render_ms += o.render_ms;
  compose_ms += o.compose_ms;
  meter_ms += o.meter_ms;
  other_ms += o.other_ms;
  wall_ms += o.wall_ms;
  return *this;
}

Replay replay(ccdem::harness::ExperimentConfig cfg,
              const ccdem::check::RunOptions& opt) {
  const Clock::time_point t0 = Clock::now();
  // run_scenario_once's option mapping.
  auto sink = std::make_unique<ccdem::obs::ObsSink>();
  sink->spans.set_enabled(opt.spans);
  cfg.obs = sink.get();
  cfg.dpm.meter.damage_culling = opt.damage_culling;
  cfg.governor.meter.damage_culling = opt.damage_culling;
  cfg.tile_memo = opt.tile_memo;
  cfg.hash_frames = opt.hash_frames;
  std::optional<ccdem::gfx::kernels::ScopedKernelOverride> force_scalar;
  if (opt.force_scalar_kernels) {
    force_scalar.emplace(ccdem::gfx::kernels::scalar_kernels());
  }

  Marks marks;
  AppBegin app_begin(marks);
  AppEnd app_end(marks);
  ProbeBegin probe_begin(marks);
  ProbeEnd probe_end(marks);
  ComposerEnd composer_end(marks);
  FrameStreamHasher stream_hasher;

  // run_experiment_on(), with the markers inserted.
  auto dev = std::make_unique<ccdem::device::SimulatedDevice>();
  dev->configure(cfg.device_config());
  dev->panel().add_observer(ccdem::display::VsyncPhase::kApp, &app_begin);
  dev->panel().add_observer(ccdem::display::VsyncPhase::kComposer,
                            &composer_end);
  ccdem::apps::AppModel& app = dev->install_app(cfg.app);
  if (cfg.hash_frames) dev->add_frame_listener(&stream_hasher);
  dev->add_frame_listener(&probe_begin);
  dev->start_control();
  dev->add_frame_listener(&probe_end);
  dev->panel().add_observer(ccdem::display::VsyncPhase::kApp, &app_end);
  if (cfg.script) {
    dev->dispatcher().schedule_script(*cfg.script);
  } else {
    dev->schedule_monkey_script(cfg.app.monkey, cfg.duration);
  }
  const Clock::time_point t_run = Clock::now();
  dev->run_until(ccdem::sim::Time{cfg.duration.ticks});
  const Clock::time_point t_ran = Clock::now();
  dev->finish();

  Replay out;
  out.artifacts.result = collect(*dev, cfg, app, stream_hasher);
  out.artifacts.counters = sink->counters.snapshot();
  out.artifacts.spans = sink->spans.spans();
  out.artifacts.trace_csv = ccdem::obs::trace_csv_to_string(
      out.artifacts.spans, out.artifacts.counters);
  dev.reset();
  sink.reset();
  const Clock::time_point t_end = Clock::now();

  LayerTimes& lt = out.times;
  lt.render_ms = ms(marks.render);
  lt.compose_ms = ms(marks.compose);
  lt.meter_ms = ms(marks.meter);
  lt.other_ms = ms(t_ran - t_run) - lt.render_ms - lt.compose_ms - lt.meter_ms;
  lt.setup_ms = ms(t_run - t0) + ms(t_end - t_ran);
  lt.wall_ms = ms(t_end - t0);
  return out;
}

}  // namespace perfbench
