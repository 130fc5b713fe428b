#include "fingerprint.h"

#include <cstring>
#include <string>
#include <string_view>

#include "campaign/bin_format.h"

namespace perfbench {

namespace {

class Hasher {
 public:
  void bytes(const void* p, std::size_t n) {
    h_ = ccdem::campaign::fnv1a(
        std::string_view(static_cast<const char*>(p), n), h_);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void trace(const ccdem::sim::Trace& t) {
    str(t.name());
    u64(t.size());
    for (const ccdem::sim::TracePoint& p : t.points()) {
      i64(p.t.ticks);
      f64(p.value);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

bool counter_in_fingerprint(std::string_view name) {
  for (std::string_view prefix : {"pool.", "meter.pixels_", "flinger.memo."}) {
    if (name.substr(0, prefix.size()) == prefix) return false;
  }
  return true;
}

}  // namespace

std::uint64_t fingerprint(const ccdem::harness::ExperimentResult& r,
                          const ccdem::obs::Counters::Snapshot& counters) {
  Hasher h;
  h.str(r.app_name);
  h.i64(static_cast<std::int64_t>(r.mode));
  h.i64(r.duration.ticks);
  h.f64(r.mean_power_mw);
  h.trace(r.power);
  h.trace(r.frame_rate);
  h.trace(r.content_rate);
  h.trace(r.measured_content_rate);
  h.f64(r.meter_error_rate);
  h.u64(r.rate_switches);
  h.f64(r.response_mean_ms);
  h.f64(r.response_p95_ms);
  h.f64(r.response_max_ms);
  h.u64(r.response_interactions);
  const ccdem::power::EnergyBreakdown& e = r.energy;
  for (double v : {e.soc_base_mj, e.panel_static_mj, e.refresh_mj, e.link_mj,
                   e.auxiliary_mj, e.composition_mj, e.render_mj, e.touch_mj,
                   e.meter_mj, e.rate_switch_mj, e.other_mj}) {
    h.f64(v);
  }
  h.trace(r.refresh_rate);
  h.f64(r.mean_refresh_hz);
  h.u64(r.frames_composed);
  h.u64(r.content_frames);
  h.u64(r.frames_posted);
  h.u64(r.touch_events);
  h.u64(r.final_frame_hash);
  h.u64(r.frame_stream_hash);
  for (const auto& [name, v] : counters.counters) {
    if (!counter_in_fingerprint(name)) continue;
    h.str(name);
    h.u64(v);
  }
  for (const auto& [name, v] : counters.gauges) {
    if (!counter_in_fingerprint(name)) continue;
    h.str(name);
    h.f64(v);
  }
  return h.value();
}

}  // namespace perfbench
