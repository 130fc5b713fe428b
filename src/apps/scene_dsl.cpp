#include "apps/scene_dsl.h"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/kv_text.h"

namespace ccdem::apps {

namespace {

using F = sim::kv::Field<SceneSpec>;
using sim::kv::parse_as;

constexpr int kMaxStates = 16;
constexpr std::int64_t kMaxMs = 600'000;
constexpr double kMaxFps = 240.0;

/// Indexed by UiState::Kind.
constexpr const char* kKinds[] = {"idle",  "menu",    "scroll",
                                  "slide", "marquee", "dialog"};

/// One `name=value` state attribute: in [lo, hi] and not seen before.
template <class V>
bool attribute(std::string_view v, std::type_identity_t<V> lo,
               std::type_identity_t<V> hi, V& out, bool& seen) {
  const auto x = parse_as<V>(v);
  if (!x || *x < lo || *x > hi || seen) return false;
  out = *x;
  return seen = true;
}

/// Parses one `state =` value: `<kind> dwell_ms=<ms> fps=<f> next=<i>
/// touch=<i>`, all four attributes required, any order, no duplicates.
bool parse_state(std::string_view v, UiState& st, std::string& why) {
  const auto bad = [&why](std::string msg) {
    why = std::move(msg);
    return false;
  };
  std::vector<std::string_view> tokens;
  for (std::size_t pos = 0; pos < v.size();) {
    const auto sp = std::min(v.find(' ', pos), v.size());
    if (sp > pos) tokens.push_back(v.substr(pos, sp - pos));
    pos = sp + 1;
  }
  if (tokens.empty()) return bad("empty state line");
  int kind = 0;
  while (kind < 6 && tokens[0] != kKinds[kind]) ++kind;
  if (kind == 6) return bad("unknown state kind: " + std::string(tokens[0]));
  st.kind = static_cast<UiState::Kind>(kind);
  bool have[4] = {};
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string token(tokens[i]);
    const auto eq = token.find('=');
    if (eq == std::string::npos) return bad("bad state attribute: " + token);
    const std::string key = token.substr(0, eq);
    const std::string_view val = tokens[i].substr(eq + 1);
    bool ok = false;
    if (key == "dwell_ms") {
      ok = attribute(val, 0, kMaxMs, st.dwell_ms, have[0]);
    } else if (key == "fps") {
      ok = attribute(val, 0.0, kMaxFps, st.anim_fps, have[1]);
    } else if (key == "next") {
      ok = attribute(val, 0, kMaxStates - 1, st.next, have[2]);
    } else if (key == "touch") {
      ok = attribute(val, -1, kMaxStates - 1, st.touch_next, have[3]);
    } else {
      return bad("unknown state attribute: " + key);
    }
    if (!ok) return bad("bad state attribute: " + token);
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    return bad("state line missing an attribute");
  }
  return true;
}

bool is_ui(const SceneSpec& s) { return s.type == SceneSpec::Type::kUi; }
bool is_burst(const SceneSpec& s) {
  return s.type == SceneSpec::Type::kBurstVideo;
}

const std::vector<F>& fields() {
  static const std::vector<F> kFields = {
      F::schema("ccdem-scene-v1"),
      {"type",
       [](SceneSpec& s, std::string_view v, std::string&) {
         if (v == "ui") s.type = SceneSpec::Type::kUi;
         if (v == "burst_video") s.type = SceneSpec::Type::kBurstVideo;
         return v == "ui" || v == "burst_video";
       },
       [](const SceneSpec& s) {
         return std::string(is_ui(s) ? "ui" : "burst_video");
       },
       nullptr, sim::kv::Kind::kRequired},
      F::num(
          "idle_timeout_ms",
          [](auto& s) -> auto& { return s.ui.idle_timeout_ms; }, 0, kMaxMs,
          is_ui),
      F::num(
          "marquee_px", [](auto& s) -> auto& { return s.ui.marquee_px; }, 1,
          64, is_ui),
      // Ordered: state 0 is the initial state.
      {"state",
       [](SceneSpec& s, std::string_view v, std::string& why) {
         UiState st;
         if (s.ui.states.size() >= kMaxStates) {
           why = "too many states";
           return false;
         }
         if (!parse_state(v, st, why)) return false;
         s.ui.states.push_back(st);
         return true;
       },
       [](const SceneSpec& s) {
         std::ostringstream os;
         for (const UiState& st : s.ui.states) {
           os << kKinds[static_cast<int>(st.kind)]
              << " dwell_ms=" << st.dwell_ms
              << " fps=" << sim::kv::to_text(st.anim_fps)
              << " next=" << st.next << " touch=" << st.touch_next << "\n";
         }
         return os.str();
       },
       is_ui, sim::kv::Kind::kRepeatable},
      F::num(
          "gap_ms", [](auto& s) -> auto& { return s.burst.gap_ms; }, 0, kMaxMs,
          is_burst),
      F::num(
          "burst_frames", [](auto& s) -> auto& { return s.burst.burst_frames; },
          1, 240, is_burst),
      F::num(
          "burst_fps", [](auto& s) -> auto& { return s.burst.burst_fps; },
          std::numeric_limits<double>::denorm_min(), kMaxFps, is_burst),
      {"motion",
       [](SceneSpec& s, std::string_view v, std::string&) {
         const auto m = sim::kv::parse_list(v, 0, 3);
         if (m && m->size() <= 16) s.burst.motion = *m;
         return m && m->size() <= 16;
       },
       [](const SceneSpec& s) { return sim::kv::join(s.burst.motion); },
       is_burst},
  };
  return kFields;
}

}  // namespace

std::string scene_spec_to_string(const SceneSpec& spec) {
  if (!is_ui(spec) && !is_burst(spec)) return "";
  return sim::kv::write(fields(), spec);
}

std::optional<SceneSpec> scene_spec_from_string(const std::string& text,
                                                std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::optional<SceneSpec>();
  };
  SceneSpec s;
  s.ui.states.clear();
  std::vector<bool> seen;
  if (!sim::kv::parse(text, fields(), s, error, &seen)) return std::nullopt;
  // Keys of the other scene type are errors, not silently ignored.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] && fields()[i].when && !fields()[i].when(s)) {
      return fail(std::string(fields()[i].key) + " is not a " +
                  (is_ui(s) ? "ui" : "burst_video") + " scene key");
    }
  }
  if (is_burst(s)) return SceneSpec::burst_video(std::move(s.burst));
  if (s.ui.states.empty()) return fail("ui scene needs at least one state");
  const int n = static_cast<int>(s.ui.states.size());
  for (const UiState& st : s.ui.states) {
    if (st.next >= n) return fail("state next out of range");
    if (st.touch_next >= n) return fail("state touch out of range");
  }
  return SceneSpec::ui_machine(std::move(s.ui));
}

}  // namespace ccdem::apps
