#include "campaign/campaign.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "campaign/bin_format.h"
#include "campaign/io_util.h"
#include "core/grid_sampler.h"
#include "device/control_mode.h"
#include "sim/kv_text.h"

namespace ccdem::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestSchema = "ccdem-campaign-manifest-v2";
// v1 manifests checkpointed contiguous shard ranges; their done shard files
// hold other indices than the same shard numbers do now.
constexpr const char* kContiguousManifestSchema = "ccdem-campaign-manifest-v1";
// Bound on CampaignSpec::shards, and so on a manifest's shard-row count.
constexpr int kMaxShards = 100000;

using F = sim::kv::Field<CampaignSpec>;

/// A scale axis, written with format_double so existing specs keep their
/// fingerprints.
F scales(std::string_view key, std::vector<double> CampaignSpec::*axis,
         F::When when = nullptr) {
  F f = F::list(key, axis);
  f.emit = [=](const CampaignSpec& c) {
    std::string out;
    for (const double d : c.*axis) {
      out += (out.empty() ? "" : ",") + format_double(d);
    }
    return out;
  };
  f.when = std::move(when);
  return f;
}

const std::vector<F>& fields() {
  static const std::vector<F> kFields = {
      F::schema("ccdem-campaign-v1"),
      F::list("apps", &CampaignSpec::apps),
      F::list("modes", &CampaignSpec::modes),
      F::list("grids", &CampaignSpec::grids),
      scales("fault_scales", &CampaignSpec::fault_scales),
      // Only written when non-trivial so pre-existing specs keep their
      // canonical text (and thus fingerprint) unchanged.
      scales("pressure_scales", &CampaignSpec::pressure_scales,
             [](const CampaignSpec& c) {
               return !(c.pressure_scales.size() == 1 &&
                        c.pressure_scales[0] == 0.0);
             }),
      F::list("seeds", &CampaignSpec::seeds),
      F::num("duration_ms", &CampaignSpec::duration_ms),
      F::num("ab", &CampaignSpec::ab),
      F::num("record_spans", &CampaignSpec::record_spans),
      F::num("oracles", &CampaignSpec::oracles),
      F::num("shards", &CampaignSpec::shards, 1, kMaxShards),
  };
  return kFields;
}

/// Splits a manifest "key = value" line; false when it is not of that shape.
bool split_kv(const std::string& line, std::string* key, std::string* value) {
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) return false;
  *key = sim::kv::trim(std::string_view(line).substr(0, eq));
  *value = sim::kv::trim(std::string_view(line).substr(eq + 1));
  return !key->empty();
}

}  // namespace

std::string format_double(double v) {
  assert(std::isfinite(v));
  char buf[64];
  for (int prec = 1; prec <= std::numeric_limits<double>::max_digits10;
       ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::uint64_t CampaignSpec::size() const {
  return static_cast<std::uint64_t>(apps.size()) * modes.size() *
         grids.size() * fault_scales.size() * pressure_scales.size() *
         seeds.size();
}

check::Scenario CampaignSpec::scenario_at(std::uint64_t i) const {
  assert(i < size());
  const std::uint64_t s = i % seeds.size();
  i /= seeds.size();
  const std::uint64_t f = i % fault_scales.size();
  i /= fault_scales.size();
  const std::uint64_t p = i % pressure_scales.size();
  i /= pressure_scales.size();
  const std::uint64_t g = i % grids.size();
  i /= grids.size();
  const std::uint64_t m = i % modes.size();
  i /= modes.size();
  const std::uint64_t a = i;
  assert(a < apps.size());

  check::Scenario sc;
  sc.app = apps[a];
  const auto mode = device::control_mode_from_keyword(modes[m]);
  assert(mode && "validate() admits known mode keywords only");
  sc.mode = *mode;
  sc.grid = grids[g];
  sc.fault_scale = fault_scales[f];
  sc.pressure_scale = pressure_scales[p];
  sc.seed = seeds[s];
  sc.duration_ms = duration_ms;
  return sc;
}

std::string CampaignSpec::to_string() const {
  return sim::kv::write(fields(), *this);
}

std::optional<CampaignSpec> CampaignSpec::parse(const std::string& text,
                                                std::string* error) {
  CampaignSpec spec;
  if (!sim::kv::parse(text, fields(), spec, error)) return std::nullopt;
  if (const auto why = spec.validate()) {
    if (error != nullptr) *error = *why;
    return std::nullopt;
  }
  return spec;
}

std::optional<std::string> CampaignSpec::validate() const {
  if (apps.empty()) return "apps must not be empty";
  for (const std::string& a : apps) {
    if (!check::find_app(a)) return "unknown app '" + a + "'";
  }
  if (modes.empty()) return "modes must not be empty";
  for (const std::string& m : modes) {
    const auto mode = device::control_mode_from_keyword(m);
    if (!mode) return "unknown mode '" + m + "'";
    if (*mode == device::ControlMode::kPipeline) {
      return "mode 'pipeline' is not a campaign axis (no stage spec)";
    }
    if (ab && *mode == device::ControlMode::kBaseline60) {
      return "mode 'baseline' cannot be an A/B controlled arm";
    }
  }
  if (grids.empty()) return "grids must not be empty";
  for (const std::string& g : grids) {
    if (!core::GridSpec::from_keyword(g)) return "unknown grid '" + g + "'";
  }
  if (fault_scales.empty()) return "fault_scales must not be empty";
  for (const double f : fault_scales) {
    if (f < 0.0) return "fault scale must be >= 0";
  }
  if (pressure_scales.empty()) return "pressure_scales must not be empty";
  for (const double p : pressure_scales) {
    if (p < 0.0) return "pressure scale must be >= 0";
  }
  if (seeds.empty()) return "seeds must not be empty";
  if (duration_ms <= 0) return "duration_ms must be positive";
  if (shards < 1) return "shards must be >= 1";
  if (record_spans && oracles) {
    return "record_spans and oracles are mutually exclusive";
  }
  return std::nullopt;
}

std::uint64_t CampaignSpec::fingerprint() const { return fnv1a(to_string()); }

int shard_of(std::uint64_t index, int shards) {
  assert(shards >= 1);
  const auto s = static_cast<std::uint64_t>(shards);
  return static_cast<int>((index % s + index / s) % s);
}

std::vector<std::uint64_t> shard_indices(const CampaignSpec& spec,
                                         int shard) {
  assert(shard >= 0 && shard < spec.shards);
  const std::uint64_t n = spec.size();
  const auto s = static_cast<std::uint64_t>(spec.shards);
  const auto k = static_cast<std::uint64_t>(shard);
  // Row r = [r*S, (r+1)*S) gives shard k its column (k - r) mod S.
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(n / s + 1));
  for (std::uint64_t row = 0; row * s < n; ++row) {
    const std::uint64_t i = row * s + (k + s - row % s) % s;
    if (i < n) out.push_back(i);
  }
  return out;
}

std::string shard_file_name(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%04d.bin", shard);
  return buf;
}

std::string shard_progress_name(int shard) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "shard_%04d.progress", shard);
  return buf;
}

Manifest Manifest::fresh(const CampaignSpec& spec) {
  Manifest m;
  m.fingerprint = spec.fingerprint();
  m.scenarios = spec.size();
  m.shards = spec.shards;
  m.shard_rows.assign(static_cast<std::size_t>(spec.shards), Shard{});
  m.spec_text = spec.to_string();
  return m;
}

bool Manifest::all_done() const {
  for (const Shard& s : shard_rows) {
    if (!s.done) return false;
  }
  return true;
}

bool Manifest::is_quarantined(std::uint64_t index) const {
  for (const Quarantine& q : quarantined) {
    if (q.index == index) return true;
  }
  return false;
}

std::vector<std::uint64_t> Manifest::quarantined_in(int shard) const {
  std::vector<std::uint64_t> out;
  for (const Quarantine& q : quarantined) {
    if (shard_of(q.index, shards) == shard) out.push_back(q.index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Manifest::to_string() const {
  std::ostringstream os;
  os << "schema = " << kManifestSchema << "\n";
  os << "fingerprint = " << fingerprint << "\n";
  os << "scenarios = " << scenarios << "\n";
  os << "shards = " << shards << "\n";
  os << "begin_spec\n" << spec_text;
  if (!spec_text.empty() && spec_text.back() != '\n') os << "\n";
  os << "end_spec\n";
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    const Shard& s = shard_rows[i];
    os << "shard " << i << " = ";
    if (s.done) {
      os << "done file=" << s.file << " results=" << s.results
         << " bytes=" << s.bytes;
    } else {
      os << "pending";
    }
    os << " attempts=" << s.attempts << "\n";
  }
  for (const Quarantine& q : quarantined) {
    os << "quarantine " << q.index << " = " << q.reason << "\n";
  }
  return os.str();
}

std::optional<Manifest> Manifest::parse(const std::string& text,
                                        std::string* error) {
  auto fail = [&](int line_no, const std::string& why) {
    if (error != nullptr) {
      *error = "manifest line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };

  Manifest m;
  bool saw_schema = false, in_spec = false;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (in_spec) {
      if (line == "end_spec") {
        in_spec = false;
      } else {
        m.spec_text += line;
        m.spec_text += '\n';
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    if (line == "begin_spec") {
      in_spec = true;
      continue;
    }
    std::string key, value;
    if (!split_kv(line, &key, &value)) {
      return fail(line_no, "expected 'key = value'");
    }
    if (key == "schema") {
      if (value == kContiguousManifestSchema) {
        return fail(line_no, "manifest schema '" + value +
                                 "' checkpoints contiguous shard ranges, "
                                 "which this version no longer deals; rerun "
                                 "the campaign in a fresh directory");
      }
      if (value != kManifestSchema) {
        return fail(line_no, "unsupported schema '" + value + "'");
      }
      saw_schema = true;
    } else if (key == "fingerprint") {
      const auto f = sim::kv::parse_as<std::uint64_t>(value);
      if (!f) return fail(line_no, "bad fingerprint");
      m.fingerprint = *f;
    } else if (key == "scenarios") {
      const auto n = sim::kv::parse_as<std::uint64_t>(value);
      if (!n) return fail(line_no, "bad scenario count");
      m.scenarios = *n;
    } else if (key == "shards") {
      const auto n = sim::kv::parse_as<int>(value);
      if (!n || *n < 1 || *n > kMaxShards) {
        return fail(line_no, "bad shard count");
      }
      m.shards = *n;
      m.shard_rows.assign(static_cast<std::size_t>(m.shards), Shard{});
    } else if (key.rfind("shard ", 0) == 0) {
      const auto idx = sim::kv::parse_as<std::uint64_t>(
          sim::kv::trim(std::string_view(key).substr(6)));
      if (!idx || *idx >= m.shard_rows.size()) {
        return fail(line_no, "bad shard index in '" + key + "'");
      }
      Shard s;
      std::istringstream vs(value);
      std::string token;
      bool first = true;
      while (vs >> token) {
        if (first) {
          if (token == "done") {
            s.done = true;
          } else if (token == "pending") {
            s.done = false;
          } else {
            return fail(line_no, "bad shard state '" + token + "'");
          }
          first = false;
          continue;
        }
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
          return fail(line_no, "bad shard field '" + token + "'");
        }
        const std::string k = token.substr(0, eq);
        const std::string v = token.substr(eq + 1);
        if (k == "file") {
          s.file = v;
        } else if (k == "results") {
          const auto n = sim::kv::parse_as<std::uint64_t>(v);
          if (!n) return fail(line_no, "bad results count");
          s.results = *n;
        } else if (k == "bytes") {
          const auto n = sim::kv::parse_as<std::uint64_t>(v);
          if (!n) return fail(line_no, "bad byte count");
          s.bytes = *n;
        } else if (k == "attempts") {
          const auto n = sim::kv::parse_as<std::uint64_t>(v);
          if (!n || *n > static_cast<std::uint64_t>(
                            std::numeric_limits<int>::max())) {
            return fail(line_no, "bad attempts count");
          }
          s.attempts = static_cast<int>(*n);
        } else {
          return fail(line_no, "unknown shard field '" + k + "'");
        }
      }
      if (first) return fail(line_no, "empty shard row");
      m.shard_rows[static_cast<std::size_t>(*idx)] = s;
    } else if (key.rfind("quarantine ", 0) == 0) {
      const auto idx = sim::kv::parse_as<std::uint64_t>(
          sim::kv::trim(std::string_view(key).substr(11)));
      if (!idx) return fail(line_no, "bad quarantine index");
      m.quarantined.push_back(Quarantine{*idx, value});
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (in_spec) return fail(line_no, "unterminated begin_spec block");
  if (!saw_schema) return fail(line_no, "missing 'schema' line");
  if (m.shards == 0) return fail(line_no, "missing 'shards' line");
  return m;
}

bool save_file_atomic(const fs::path& path, const std::string& content,
                      std::string* error) {
  const fs::path tmp = path.string() + ".tmp";
  {
    io::FdOStream os(tmp);
    if (!os) {
      if (error != nullptr) *error = "cannot open " + tmp.string();
      return false;
    }
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
    os.close();
    if (!os) {
      if (error != nullptr) *error = "write failed for " + tmp.string();
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "rename to " + path.string() + " failed: " + ec.message();
    }
    return false;
  }
  return true;
}

std::optional<std::string> load_file(const fs::path& path) {
  return io::read_file(path);
}

}  // namespace ccdem::campaign
