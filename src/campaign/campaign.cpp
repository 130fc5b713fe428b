#include "campaign/campaign.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/bin_format.h"
#include "campaign/io_util.h"
#include "device/control_mode.h"

namespace ccdem::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSpecSchema = "ccdem-campaign-v1";
constexpr const char* kManifestSchema = "ccdem-campaign-manifest-v2";
// v1 manifests checkpointed contiguous shard ranges; their done shard files
// hold other indices than the same shard numbers do now.
constexpr const char* kContiguousManifestSchema = "ccdem-campaign-manifest-v1";
constexpr const char* kGrids[] = {"2k", "4k", "9k", "36k", "full"};

bool known_grid(const std::string& g) {
  for (const char* k : kGrids) {
    if (g == k) return true;
  }
  return false;
}

std::optional<std::uint64_t> parse_u64_strict(const std::string& v) {
  if (v.empty() || v[0] == '-' || v[0] == '+') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return std::nullopt;
  return x;
}

std::optional<std::int64_t> parse_i64_strict(const std::string& v) {
  if (v.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return std::nullopt;
  return x;
}

std::optional<double> parse_double_strict(const std::string& v) {
  if (v.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (errno == ERANGE || end != v.c_str() + v.size()) return std::nullopt;
  if (!std::isfinite(x)) return std::nullopt;
  return x;
}

std::optional<bool> parse_bool_strict(const std::string& v) {
  if (v == "0" || v == "false") return false;
  if (v == "1" || v == "true") return true;
  return std::nullopt;
}

std::string trim_ws(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return std::string();
  const std::size_t b = s.find_last_not_of(" \t");
  return s.substr(a, b - a + 1);
}

// Comma list; elements are trimmed ("a, b" == "a,b") but may contain
// interior spaces (app names like "Jelly Splash").
std::vector<std::string> split_list(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t comma = v.find(',', start);
    const std::size_t end = comma == std::string::npos ? v.size() : comma;
    out.push_back(trim_ws(v.substr(start, end - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out;
}

/// Splits "key = value"; false when the line is not of that shape.
bool split_kv(const std::string& line, std::string* key, std::string* value) {
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) return false;
  *key = trim_ws(line.substr(0, eq));
  *value = trim_ws(line.substr(eq + 1));
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
  std::ostringstream os;
  os << "schema = " << kSpecSchema << "\n";
  os << "apps = " << join(apps) << "\n";
  os << "modes = " << join(modes) << "\n";
  os << "grids = " << join(grids) << "\n";
  std::vector<std::string> scales;
  scales.reserve(fault_scales.size());
  for (const double f : fault_scales) scales.push_back(format_double(f));
  os << "fault_scales = " << join(scales) << "\n";
  // Only emitted when non-trivial so pre-existing specs keep their
  // canonical text (and thus fingerprint) unchanged.
  if (!(pressure_scales.size() == 1 && pressure_scales[0] == 0.0)) {
    std::vector<std::string> pressures;
    pressures.reserve(pressure_scales.size());
    for (const double p : pressure_scales) {
      pressures.push_back(format_double(p));
    }
    os << "pressure_scales = " << join(pressures) << "\n";
  }
  std::vector<std::string> seed_texts;
  seed_texts.reserve(seeds.size());
  for (const std::uint64_t s : seeds) seed_texts.push_back(std::to_string(s));
  os << "seeds = " << join(seed_texts) << "\n";
  os << "duration_ms = " << duration_ms << "\n";
  os << "ab = " << (ab ? 1 : 0) << "\n";
  os << "record_spans = " << (record_spans ? 1 : 0) << "\n";
  os << "oracles = " << (oracles ? 1 : 0) << "\n";
  os << "shards = " << shards << "\n";
  return os.str();
}

std::optional<CampaignSpec> CampaignSpec::parse(const std::string& text,
                                                std::string* error) {
  auto fail = [&](int line_no, const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };

  CampaignSpec spec;
  bool saw_schema = false;
  std::vector<std::string> seen;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::string key, value;
    if (!split_kv(line, &key, &value)) {
      return fail(line_no, "expected 'key = value'");
    }
    for (const std::string& s : seen) {
      if (s == key) return fail(line_no, "duplicate key '" + key + "'");
    }
    seen.push_back(key);

    if (key == "schema") {
      if (value != kSpecSchema) {
        return fail(line_no, "unsupported schema '" + value + "'");
      }
      saw_schema = true;
    } else if (key == "apps") {
      spec.apps = split_list(value);
    } else if (key == "modes") {
      spec.modes = split_list(value);
    } else if (key == "grids") {
      spec.grids = split_list(value);
    } else if (key == "fault_scales") {
      spec.fault_scales.clear();
      for (const std::string& item : split_list(value)) {
        const auto d = parse_double_strict(item);
        if (!d) return fail(line_no, "bad fault scale '" + item + "'");
        spec.fault_scales.push_back(*d);
      }
    } else if (key == "pressure_scales") {
      spec.pressure_scales.clear();
      for (const std::string& item : split_list(value)) {
        const auto d = parse_double_strict(item);
        if (!d) return fail(line_no, "bad pressure scale '" + item + "'");
        spec.pressure_scales.push_back(*d);
      }
    } else if (key == "seeds") {
      spec.seeds.clear();
      for (const std::string& item : split_list(value)) {
        const auto s = parse_u64_strict(item);
        if (!s) return fail(line_no, "bad seed '" + item + "'");
        spec.seeds.push_back(*s);
      }
    } else if (key == "duration_ms") {
      const auto d = parse_i64_strict(value);
      if (!d) return fail(line_no, "bad duration_ms '" + value + "'");
      spec.duration_ms = *d;
    } else if (key == "ab" || key == "record_spans" || key == "oracles") {
      const auto b = parse_bool_strict(value);
      if (!b) return fail(line_no, "bad flag '" + value + "'");
      (key == "ab" ? spec.ab
                   : key == "record_spans" ? spec.record_spans
                                           : spec.oracles) = *b;
    } else if (key == "shards") {
      const auto s = parse_i64_strict(value);
      if (!s || *s < 1 || *s > 100000) {
        return fail(line_no, "bad shards '" + value + "'");
      }
      spec.shards = static_cast<int>(*s);
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_schema) return fail(line_no, "missing 'schema' line");
  if (const auto why = spec.validate()) return fail(line_no, *why);
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
    if (!known_grid(g)) return "unknown grid '" + g + "'";
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
      const auto f = parse_u64_strict(value);
      if (!f) return fail(line_no, "bad fingerprint");
      m.fingerprint = *f;
    } else if (key == "scenarios") {
      const auto n = parse_u64_strict(value);
      if (!n) return fail(line_no, "bad scenario count");
      m.scenarios = *n;
    } else if (key == "shards") {
      const auto n = parse_i64_strict(value);
      if (!n || *n < 1) return fail(line_no, "bad shard count");
      m.shards = static_cast<int>(*n);
      m.shard_rows.assign(static_cast<std::size_t>(m.shards), Shard{});
    } else if (key.rfind("shard ", 0) == 0) {
      const auto idx = parse_u64_strict(key.substr(6));
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
          const auto n = parse_u64_strict(v);
          if (!n) return fail(line_no, "bad results count");
          s.results = *n;
        } else if (k == "bytes") {
          const auto n = parse_u64_strict(v);
          if (!n) return fail(line_no, "bad byte count");
          s.bytes = *n;
        } else if (k == "attempts") {
          const auto n = parse_u64_strict(v);
          if (!n) return fail(line_no, "bad attempts count");
          s.attempts = static_cast<int>(*n);
        } else {
          return fail(line_no, "unknown shard field '" + k + "'");
        }
      }
      if (first) return fail(line_no, "empty shard row");
      m.shard_rows[static_cast<std::size_t>(*idx)] = s;
    } else if (key.rfind("quarantine ", 0) == 0) {
      const auto idx = parse_u64_strict(key.substr(11));
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
