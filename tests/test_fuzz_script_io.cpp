// Randomized round-trip tests for the repo's text formats.  The Monkey
// script serializer: arbitrary gesture streams must survive write -> parse
// without loss, and the parser must reject truncated or corrupted input with
// an error, never a crash (companion to test_fuzz_trace_export for the obs
// formats).  The four key = value formats that share sim/kv_text.h --
// experiment configs, ccdem-repro-v1, ccdem-scene-v1 and ccdem-campaign-v1
// -- get one seeded fuzzer: every truncated or mutated text either errors or
// parses to a value whose canonical text is a fixpoint, and every field
// table row round-trips at both of its bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/scene_dsl.h"
#include "campaign/campaign.h"
#include "check/scenario.h"
#include "check/scenario_gen.h"
#include "input/monkey.h"
#include "harness/config_io.h"
#include "input/script_io.h"
#include "sim/kv_text.h"
#include "sim/rng.h"
#include "sim/time.h"

using namespace ccdem;
using input::TouchGesture;

namespace {

bool gestures_equal(const TouchGesture& a, const TouchGesture& b) {
  return a.kind == b.kind && a.start == b.start && a.duration == b.duration &&
         a.from.x == b.from.x && a.from.y == b.from.y && a.to.x == b.to.x &&
         a.to.y == b.to.y;
}

/// Random script honouring the format's invariants (non-negative swipe
/// duration, non-decreasing start times).  Taps reparse with the parser's
/// canonical 60 ms duration, so the generator uses it too.
std::vector<TouchGesture> random_script(sim::Rng& rng, int count) {
  std::vector<TouchGesture> script;
  sim::Tick start = rng.uniform_int(0, 1'000'000);
  for (int i = 0; i < count; ++i) {
    TouchGesture g;
    g.start = sim::Time{start};
    g.from = {static_cast<int>(rng.uniform_int(-100, 2000)),
              static_cast<int>(rng.uniform_int(-100, 2000))};
    if (rng.chance(0.5)) {
      g.kind = TouchGesture::Kind::kSwipe;
      g.duration = sim::Duration{rng.uniform_int(0, 2'000'000)};
      g.to = {static_cast<int>(rng.uniform_int(-100, 2000)),
              static_cast<int>(rng.uniform_int(-100, 2000))};
    } else {
      g.kind = TouchGesture::Kind::kTap;
      g.duration = sim::milliseconds(60);
      g.to = g.from;
    }
    script.push_back(g);
    start += rng.uniform_int(0, 5'000'000);  // non-decreasing; ties allowed
  }
  return script;
}

TEST(ScriptIoFuzz, RoundTripsArbitraryScripts) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    const auto script =
        random_script(rng, static_cast<int>(rng.uniform_int(0, 40)));
    std::string error;
    const auto back =
        input::script_from_string(input::script_to_string(script), &error);
    ASSERT_TRUE(back.has_value()) << "seed=" << seed << ": " << error;
    ASSERT_EQ(back->size(), script.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < script.size(); ++i) {
      EXPECT_TRUE(gestures_equal((*back)[i], script[i]))
          << "seed=" << seed << " gesture=" << i;
    }
  }
}

TEST(ScriptIoFuzz, RoundTripsGeneratedMonkeyScripts) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::Rng rng(seed);
    const auto script = input::generate_monkey_script(
        rng, input::MonkeyProfile::general_app(), sim::seconds(120),
        {720, 1280});
    const auto back = input::script_from_string(input::script_to_string(script));
    ASSERT_TRUE(back.has_value()) << "seed=" << seed;
    ASSERT_EQ(back->size(), script.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < script.size(); ++i) {
      EXPECT_TRUE(gestures_equal((*back)[i], script[i]))
          << "seed=" << seed << " gesture=" << i;
    }
  }
}

TEST(ScriptIoFuzz, TruncatedInputErrorsNotCrashes) {
  // Chop a valid script at every byte boundary: each prefix must either
  // parse (the cut fell on a line boundary) or error with a message --
  // never crash, never return a gesture the text does not contain.
  sim::Rng rng(7);
  const auto script = random_script(rng, 12);
  const std::string text = input::script_to_string(script);
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    std::string error = "unset";
    const auto parsed =
        input::script_from_string(text.substr(0, cut), &error);
    if (parsed.has_value()) {
      EXPECT_LE(parsed->size(), script.size()) << "cut=" << cut;
    } else {
      EXPECT_NE(error, "unset") << "cut=" << cut;
    }
  }
}

TEST(ScriptIoFuzz, MutatedInputErrorsNotCrashes) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    std::string text = input::script_to_string(random_script(rng, 10));
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.uniform_int(1, 127));
    }
    std::string error = "unset";
    const auto parsed = input::script_from_string(text, &error);
    if (!parsed.has_value()) {
      EXPECT_NE(error, "unset") << "seed=" << seed;
    }
  }
}

TEST(ScriptIoFuzz, RejectsSpecificMalformedLines) {
  const char* kBad[] = {
      "jump 0 10 10\n",              // unknown gesture kind
      "tap 0 10\n",                  // missing coordinate
      "swipe 0 100 1 2 3\n",         // missing destination coordinate
      "swipe 0 -5 1 2 3 4\n",        // negative duration
      "tap 100 1 1\ntap 50 2 2\n",   // non-monotonic start times
      "tap abc 1 1\n",               // non-numeric field
  };
  for (const char* text : kBad) {
    std::string error;
    EXPECT_FALSE(input::script_from_string(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// A scenario carrying every optional plane at once -- embedded script AND
// fault plan AND pressure episodes AND a scene override -- must survive the
// full write -> parse round-trip byte-exactly: the script and scene blocks
// are nested text formats inside the repro format, and this is where their
// markers could collide.
TEST(ScenarioIoFuzz, CombinedPlanesRoundTrip) {
  check::Scenario s;
  s.app = "Menu UI";
  s.mode = device::ControlMode::kSectionWithBoost;
  s.duration_ms = 4000;
  s.seed = 0xfeedULL;
  s.fault_scale = 1.25;
  s.fault_until_ms = 2000;
  s.fault_classes = {true, false, true, true, false};
  s.pressure_scale = 0.75;
  s.pressure_until_ms = 1500;
  s.pressure_classes = {true, false, true};
  s.fleet = true;
  s.scene =
      "schema = ccdem-scene-v1\n"
      "type = ui\n"
      "idle_timeout_ms = 2000\n"
      "marquee_px = 1\n"
      "state = marquee dwell_ms=800 fps=24 next=1 touch=-1\n"
      "state = dialog dwell_ms=600 fps=8 next=0 touch=0\n";
  sim::Rng rng(3);
  s.script = random_script(rng, 6);
  const std::string text = check::scenario_to_string(s);
  std::string error;
  const auto parsed = check::parse_scenario(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
  EXPECT_EQ(check::scenario_to_string(*parsed), text);
}

// Generator-sampled scenarios (scene draws forced on) round-trip across
// seeds: whatever combination of planes the fuzzer can produce, the repro
// file preserves it.
TEST(ScenarioIoFuzz, SampledScenesRoundTripAcrossSeeds) {
  check::ScenarioGen::Options opt;
  opt.scene_p = 1.0;
  check::ScenarioGen gen(23, opt);
  int with_scene = 0;
  for (int i = 0; i < 60; ++i) {
    check::Scenario s = gen.next();
    if (i % 3 == 0) {
      sim::Rng rng(static_cast<std::uint64_t>(i) + 1);
      s.script = random_script(rng, static_cast<int>(rng.uniform_int(0, 8)));
    }
    with_scene += s.scene.empty() ? 0 : 1;
    std::string error;
    const auto parsed = check::parse_scenario(check::scenario_to_string(s),
                                              &error);
    ASSERT_TRUE(parsed) << "scenario " << i << ": " << error;
    EXPECT_EQ(*parsed, s) << "scenario " << i;
  }
  EXPECT_GT(with_scene, 10);  // the scene plane is actually exercised
}

TEST(ScenarioIoFuzz, MutatedScenarioTextErrorsNotCrashes) {
  check::ScenarioGen::Options opt;
  opt.scene_p = 1.0;
  check::ScenarioGen gen(29, opt);
  sim::Rng rng(31);
  for (int i = 0; i < 120; ++i) {
    std::string text = check::scenario_to_string(gen.next());
    const int flips = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.uniform_int(1, 127));
    }
    std::string error = "unset";
    const auto parsed = check::parse_scenario(text, &error);
    if (!parsed.has_value()) {
      EXPECT_NE(error, "unset") << "scenario " << i;
    }
  }
}

TEST(ScriptIoFuzz, AcceptsCommentsAndBlankLines) {
  const auto parsed = input::script_from_string(
      "# header\n\n   \ntap 10 1 2   # inline comment\n\nswipe 20 5 1 2 3 4\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
}

// --- the key = value reader itself ------------------------------------------

struct Demo {
  std::int64_t n = 0;
  std::vector<std::string> notes;
  std::string body;
};

const std::vector<sim::kv::Field<Demo>>& demo_fields() {
  using F = sim::kv::Field<Demo>;
  static const std::vector<F> kFields = {
      F::schema("demo-v1"),
      F::num("n", &Demo::n, -5, 5),
      {"note",
       [](Demo& d, std::string_view v, std::string&) {
         d.notes.emplace_back(v);
         return true;
       },
       [](const Demo& d) {
         std::string out;
         for (const std::string& n : d.notes) out += n + "\n";
         return out;
       },
       nullptr, sim::kv::Kind::kRepeatable},
      {"body",
       [](Demo& d, std::string_view v, std::string&) {
         d.body = v;
         return true;
       },
       [](const Demo& d) { return d.body; },
       [](const Demo& d) { return !d.body.empty(); }, sim::kv::Kind::kBlock},
  };
  return kFields;
}

TEST(KvText, ParsesCommentsRepeatsAndRawBlocks) {
  const std::string text =
      "  # leading comment\n"
      "schema = demo-v1   # trailing comment\n"
      "\tn = -5\r\n"
      "note = a\n"
      "note = b\n"
      "begin_body   # the marker line takes a comment too\n"
      "# kept verbatim\n"
      "  x = 1\n"
      "end_body\n";
  Demo d;
  std::string error;
  ASSERT_TRUE(sim::kv::parse(text, demo_fields(), d, &error)) << error;
  EXPECT_EQ(d.n, -5);
  EXPECT_EQ(d.notes, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d.body, "# kept verbatim\n  x = 1\n");
  EXPECT_EQ(sim::kv::write(demo_fields(), d),
            "schema = demo-v1\nn = -5\nnote = a\nnote = b\nbegin_body\n"
            "# kept verbatim\n  x = 1\nend_body\n");
}

TEST(KvText, ErrorsNameTheRuleKeyAndLine) {
  const std::pair<const char*, const char*> kBad[] = {
      {"schema = demo-v1\nn = 1\nn = 2\n", "line 3: duplicate key 'n'"},
      {"schema = demo-v1\nm = 1\n", "line 2: unknown key 'm'"},
      {"schema = demo-v1\nn = 6\n", "line 2: bad value '6' for key 'n'"},
      {"schema = demo-v1\nn = +1\n", "line 2: bad value '+1' for key 'n'"},
      {"schema = demo-v1\nn = 1 2\n", "line 2: bad value '1 2' for key 'n'"},
      {"schema = demo-v1\nnonsense\n", "line 2: expected 'key = value'"},
      {"schema = demo-v1\nbegin_body\nx\n", "line 2: unterminated begin_body"},
      {"schema = demo-v1\nbegin_other\nend_other\n",
       "line 2: unknown begin_other block"},
      {"schema = demo-v1\nbegin_body\nend_body\nbegin_body\nend_body\n",
       "line 4: duplicate begin_body block"},
      {"n = 1\n", "missing required key 'schema'"},
  };
  for (const auto& [text, want] : kBad) {
    Demo d;
    std::string error;
    EXPECT_FALSE(sim::kv::parse(text, demo_fields(), d, &error)) << text;
    EXPECT_NE(error.find(want), std::string::npos) << text << " -> " << error;
  }
}

TEST(KvText, WholeValueNumbers) {
  using sim::kv::parse_as;
  EXPECT_EQ(parse_as<int>("42"), 42);
  EXPECT_EQ(parse_as<int>("-7"), -7);
  EXPECT_FALSE(parse_as<int>("2147483648"));
  EXPECT_FALSE(parse_as<std::uint64_t>("-1"));
  EXPECT_EQ(parse_as<std::uint64_t>("18446744073709551615"),
            18446744073709551615ULL);
  for (const char* bad : {"", " 1", "1 ", "+1", "0x10", "1e", "nan", "inf",
                          "-inf", "1e999", "0x1p0"}) {
    EXPECT_FALSE(parse_as<double>(bad)) << bad;
  }
  EXPECT_EQ(parse_as<double>("1e-3"), 1e-3);
  EXPECT_EQ(parse_as<bool>("1"), true);
  EXPECT_EQ(parse_as<bool>("0"), false);
  EXPECT_FALSE(parse_as<bool>("true"));
  EXPECT_EQ(sim::kv::to_text(0.1), "0.1");
  EXPECT_EQ(sim::kv::to_text(0.123456789), "0.123456789");
  EXPECT_EQ(sim::kv::split_list(" a , b c ,"),
            (std::vector<std::string>{"a", "b c", ""}));
}

// --- one fuzzer for every key = value format --------------------------------

/// A format under test, erased to text -> canonical text.  `canon` parses
/// and re-serializes (std::nullopt = rejected, with `*error` set); `same`
/// compares two parses of canonical text by value.
struct TextFormat {
  const char* name;
  std::function<std::optional<std::string>(const std::string&, std::string*)>
      canon;
  std::function<bool(const std::string&, const std::string&)> same_value;
};

template <class T, class Parse, class Write>
TextFormat make_format(const char* name, Parse parse, Write write) {
  return {name,
          [=](const std::string& text, std::string* error)
              -> std::optional<std::string> {
            const std::optional<T> v = parse(text, error);
            if (!v) return std::nullopt;
            return write(*v);
          },
          [=](const std::string& a, const std::string& b) {
            const std::optional<T> va = parse(a, nullptr);
            const std::optional<T> vb = parse(b, nullptr);
            if constexpr (std::equality_comparable<T>) {
              return va && vb && *va == *vb;
            } else {
              return va && vb && write(*va) == write(*vb);
            }
          }};
}

const std::vector<TextFormat>& formats() {
  static const std::vector<TextFormat> kFormats = {
      make_format<harness::ExperimentConfig>(
          "config", harness::parse_experiment_config_string,
          harness::experiment_config_to_string),
      make_format<check::Scenario>("repro", check::parse_scenario,
                                   check::scenario_to_string),
      make_format<apps::SceneSpec>("scene", apps::scene_spec_from_string,
                                   apps::scene_spec_to_string),
      make_format<campaign::CampaignSpec>(
          "campaign", campaign::CampaignSpec::parse,
          [](const campaign::CampaignSpec& c) { return c.to_string(); }),
  };
  return kFormats;
}

/// Canonical texts of every format, covering each field's optional forms.
std::map<std::string, std::vector<std::string>> seed_texts() {
  std::map<std::string, std::vector<std::string>> out;
  harness::ExperimentConfig c;
  c.app = apps::app_by_name("Daum Maps");
  out["config"].push_back(harness::experiment_config_to_string(c));
  c.mode = device::ControlMode::kPipeline;
  c.pipeline = *core::PipelineSpec::parse("section,hysteresis,boost", nullptr);
  c.rates = display::RefreshRateSet{30, 60, 90};
  c.baseline_hz = 60;
  c.dpm.min_hz = 30;
  c.dpm.boost_hz = 90;
  c.dpm.section_alpha = 0.123456789;
  out["config"].push_back(harness::experiment_config_to_string(c) +
                          "fault_scale = 1.5\npressure_scale = 0.5\n");

  check::ScenarioGen::Options opt;
  opt.scene_p = 1.0;
  check::ScenarioGen gen(41, opt);
  for (int i = 0; i < 24; ++i) {
    check::Scenario s = gen.next();
    if (i % 2 == 0) {
      sim::Rng rng(static_cast<std::uint64_t>(i) + 5);
      s.script = random_script(rng, static_cast<int>(rng.uniform_int(0, 4)));
    }
    out["repro"].push_back(check::repro_to_string(s, {"seeded: failure"}));
    if (!s.scene.empty()) out["scene"].push_back(s.scene);
  }

  campaign::CampaignSpec k;
  out["campaign"].push_back(k.to_string());
  k.apps = {"Facebook", "Jelly Splash"};
  k.modes = {"section", "naive"};
  k.grids = {"2k", "full"};
  k.fault_scales = {0.0, 0.1, 10.0};
  k.pressure_scales = {0.0, 2.5};
  k.seeds = {1, 18446744073709551615ULL};
  k.ab = true;
  k.shards = 7;
  out["campaign"].push_back(k.to_string());
  return out;
}

/// 1-3 random edits: truncation, byte overwrite or insertion (biased to the
/// format's syntax), or deleting / duplicating a whole line.
std::string mutate(std::string text, sim::Rng& rng) {
  static const std::string kBytes = "0123456789=#,.+- \t\r\nxe_";
  static const char* kTokens[] = {"#", " # c", "+", "0x", "-", "1e400", "nan",
                                  "true", "\r", "  ", "=", ",", "begin_",
                                  "end_", "00", "99999999999"};
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = pos(text.size());
    const std::size_t line = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t start = line == std::string::npos ? 0 : line + 1;
    const std::size_t end = std::min(text.find('\n', at), text.size());
    switch (rng.uniform_int(0, 5)) {
      case 0:
        text.resize(at);
        break;
      case 1:
        if (at < text.size()) text[at] = kBytes[pos(kBytes.size() - 1)];
        break;
      case 2:
        text.insert(at, 1, kBytes[pos(kBytes.size() - 1)]);
        break;
      case 3:
        text.insert(at, kTokens[pos(std::size(kTokens) - 1)]);
        break;
      case 4:
        text.erase(start, std::min(end + 1, text.size()) - start);
        break;
      default:
        text.insert(start, text.substr(start, end - start) + "\n");
        break;
    }
  }
  return text;
}

TEST(TextFormatFuzz, MutantsErrorOrParseToAFixpoint) {
  const auto seeds = seed_texts();
  for (const TextFormat& f : formats()) {
    const std::vector<std::string>& base = seeds.at(f.name);
    sim::Rng rng(std::hash<std::string>{}(f.name) % 1000 + 1);
    int parsed = 0;
    for (int i = 0; i < 1500; ++i) {
      const std::string text =
          mutate(base[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(base.size()) - 1))],
                 rng);
      std::string error;
      const auto canon = f.canon(text, &error);
      if (!canon) {
        EXPECT_FALSE(error.empty()) << f.name << " mutant " << i;
        continue;
      }
      ++parsed;
      // parse -> serialize -> parse returns the same value and bytes.
      std::string again_error;
      const auto again = f.canon(*canon, &again_error);
      ASSERT_TRUE(again) << f.name << " mutant " << i << ": " << again_error
                         << "\n" << *canon;
      EXPECT_EQ(*again, *canon) << f.name << " mutant " << i;
      EXPECT_TRUE(f.same_value(text, *canon)) << f.name << " mutant " << i;
    }
    // Both outcomes are exercised: the mutants are neither all fatal nor
    // all harmless.
    EXPECT_GT(parsed, 100) << f.name;
    EXPECT_LT(parsed, 1400) << f.name;
  }
}

TEST(TextFormatFuzz, EveryTruncationErrorsOrParses) {
  const auto seeds = seed_texts();
  for (const TextFormat& f : formats()) {
    const std::string& text = seeds.at(f.name).back();
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
      std::string error;
      const auto canon = f.canon(text.substr(0, cut), &error);
      if (canon) {
        EXPECT_EQ(f.canon(*canon, nullptr), canon) << f.name << " cut " << cut;
      } else {
        EXPECT_FALSE(error.empty()) << f.name << " cut " << cut;
      }
    }
  }
}

// --- every field-table row at both of its bounds ---------------------------

/// `patch` lines replace every line of their key in `base` (in place of
/// the first one); a value of "-" only removes.  A `begin_<name>` line
/// starts a replacement block that runs to its `end_<name>`.
std::string apply_patch(const std::string& base, const std::string& patch) {
  std::vector<std::string> lines, keys, adds;
  for (std::size_t p = 0; p < base.size();) {
    const std::size_t nl = base.find('\n', p);
    lines.push_back(base.substr(p, nl - p));
    p = nl + 1;
  }
  const auto key_of = [](const std::string& l) {
    return l.substr(0,
                    l.rfind("begin_", 0) == 0 ? l.find('\n') : l.find(" = "));
  };
  for (std::size_t p = 0; p < patch.size();) {
    const std::size_t nl = patch.find('\n', p);
    std::string l = patch.substr(p, nl == std::string::npos ? nl : nl - p);
    p = nl == std::string::npos ? patch.size() : nl + 1;
    if (l.rfind("begin_", 0) == 0) {
      const std::string end = "end_" + l.substr(6);
      const std::size_t close = patch.find(end, p);
      l += "\n" + patch.substr(p, close - p) + end;
      p = close + end.size() + 1;
    }
    keys.push_back(key_of(l));
    if (!l.ends_with(" = -")) adds.push_back(l);
  }
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string k = key_of(lines[i]);
    const bool keep = std::find(keys.begin(), keys.end(), k) == keys.end();
    std::size_t last = i;  // a block is kept or dropped whole
    if (k.rfind("begin_", 0) == 0) {
      while (lines[last] != "end_" + k.substr(6)) ++last;
    }
    for (std::size_t j = i; j <= last && keep; ++j) out += lines[j] + "\n";
    i = last;
  }
  for (const std::string& a : adds) out += a + "\n";
  return out;
}

struct BoundRow {
  const char* format;  ///< config | repro | scene | campaign
  const char* base;    ///< which base text the patches apply to
  const char* key;
  std::vector<std::string> ok;   ///< lower and upper bound
  std::vector<std::string> bad;  ///< just outside them
};

std::vector<BoundRow> bound_rows() {
  std::string states16, motion16;
  for (int i = 0; i < 16; ++i) {
    states16 += "state = menu dwell_ms=1 fps=1 next=" +
                std::to_string((i + 1) % 16) + " touch=15\n";
    motion16 += i == 0 ? "3" : ",3";
  }
  const std::string no_rungs =
      "\nbaseline_hz = -\nmin_hz = -\nboost_hz = -";
  return {
      {"config", "config", "app", {"app = Facebook", "app = Jelly Splash"},
       {"app = Nonexistent"}},
      {"config", "config", "mode",
       {"mode = baseline\npipeline = -", "mode = pipeline"}, {"mode = turbo"}},
      {"config", "config", "pipeline",
       {"pipeline = section", "pipeline = predictive,hysteresis,boost,dvfs"},
       {"pipeline = boost", "pipeline = "}},
      {"config", "config", "seconds", {"seconds = 1", "seconds = 2147483647"},
       {"seconds = 0", "seconds = 2147483648"}},
      {"config", "config", "seed", {"seed = 0", "seed = 18446744073709551615"},
       {"seed = -1", "seed = 18446744073709551616"}},
      {"config", "config", "grid", {"grid = 2k", "grid = full"},
       {"grid = 17k"}},
      {"config", "config", "eval_ms", {"eval_ms = 1", "eval_ms = 2147483647"},
       {"eval_ms = 0", "eval_ms = 2147483648"}},
      {"config", "config", "boost_hold_ms",
       {"boost_hold_ms = 0", "boost_hold_ms = 2147483647"},
       {"boost_hold_ms = -1", "boost_hold_ms = 2147483648"}},
      {"config", "config", "alpha", {"alpha = 0", "alpha = 1"},
       {"alpha = -0.001", "alpha = 1.001"}},
      {"config", "config", "rates",
       {"rates = 1" + no_rungs, "rates = 1000" + no_rungs},
       {"rates = 0", "rates = 1001"}},
      {"config", "config", "baseline_hz",
       {"baseline_hz = 1", "baseline_hz = 1000"},
       {"baseline_hz = 0", "baseline_hz = 1001"}},
      {"config", "config", "min_hz", {"min_hz = 1", "min_hz = 1000"},
       {"min_hz = 0", "min_hz = 1001"}},
      {"config", "config", "boost_hz", {"boost_hz = 1", "boost_hz = 1000"},
       {"boost_hz = 0", "boost_hz = 1001"}},
      {"config", "config", "fault_scale",
       {"fault_scale = 0", "fault_scale = 1.7976931348623157e+308"},
       {"fault_scale = -1", "fault_scale = inf"}},
      {"config", "config", "pressure_scale",
       {"pressure_scale = 0", "pressure_scale = 1.7976931348623157e+308"},
       {"pressure_scale = -1", "pressure_scale = inf"}},

      {"repro", "repro", "schema", {"schema = ccdem-repro-v1"},
       {"schema = ccdem-repro-v2", "schema = -"}},
      {"repro", "repro", "app", {"app = Facebook", "app = Menu UI"},
       {"app = Nonexistent"}},
      {"repro", "repro", "mode",
       {"mode = baseline\npipeline = -", "mode = pipeline"}, {"mode = turbo"}},
      {"repro", "repro", "pipeline",
       {"pipeline = section", "pipeline = predictive,hysteresis,boost,dvfs"},
       {"pipeline = boost"}},
      {"repro", "repro", "duration_ms",
       {"duration_ms = 1", "duration_ms = 600000"},
       {"duration_ms = 0", "duration_ms = 600001"}},
      {"repro", "repro", "seed", {"seed = 0", "seed = 18446744073709551615"},
       {"seed = -1", "seed = 18446744073709551616"}},
      {"repro", "repro", "grid", {"grid = 2k", "grid = full"},
       {"grid = 17k"}},
      {"repro", "repro", "eval_ms", {"eval_ms = 1", "eval_ms = 10000"},
       {"eval_ms = 0", "eval_ms = 10001"}},
      {"repro", "repro", "boost_hold_ms",
       {"boost_hold_ms = 0", "boost_hold_ms = 60000"},
       {"boost_hold_ms = -1", "boost_hold_ms = 60001"}},
      {"repro", "repro", "meter_window_ms",
       {"meter_window_ms = 1", "meter_window_ms = 60000"},
       {"meter_window_ms = 0", "meter_window_ms = 60001"}},
      {"repro", "repro", "alpha", {"alpha = 0", "alpha = 1"},
       {"alpha = -0.001", "alpha = 1.001"}},
      {"repro", "repro", "rates",
       {"rates = 1" + no_rungs, "rates = 1000" + no_rungs},
       {"rates = 0", "rates = 1001"}},
      {"repro", "repro", "baseline_hz",
       {"baseline_hz = 0", "baseline_hz = 1000"},
       {"baseline_hz = -1", "baseline_hz = 1001"}},
      {"repro", "repro", "min_hz", {"min_hz = 0", "min_hz = 1000"},
       {"min_hz = -1", "min_hz = 1001"}},
      {"repro", "repro", "boost_hz", {"boost_hz = 0", "boost_hz = 1000"},
       {"boost_hz = -1", "boost_hz = 1001"}},
      {"repro", "repro", "fast_rate_up",
       {"fast_rate_up = 0", "fast_rate_up = 1"},
       {"fast_rate_up = 2", "fast_rate_up = true"}},
      {"repro", "repro", "fault_scale",
       {"fault_scale = 0", "fault_scale = 100"},
       {"fault_scale = -1", "fault_scale = 100.5"}},
      {"repro", "repro", "fault_until_ms",
       {"fault_until_ms = 0", "fault_until_ms = 600000"},
       {"fault_until_ms = -1", "fault_until_ms = 600001"}},
      {"repro", "repro", "fault_classes",
       {"fault_classes = none",
        "fault_classes = switching,stuck,capability,touch,meter"},
       {"fault_classes = gremlins", "fault_classes = "}},
      {"repro", "repro", "pressure_scale",
       {"pressure_scale = 0", "pressure_scale = 100"},
       {"pressure_scale = -1", "pressure_scale = 100.5"}},
      {"repro", "repro", "pressure_until_ms",
       {"pressure_until_ms = 0", "pressure_until_ms = 600000"},
       {"pressure_until_ms = -1", "pressure_until_ms = 600001"}},
      {"repro", "repro", "pressure_classes",
       {"pressure_classes = none",
        "pressure_classes = thermal,brownout,jitter"},
       {"pressure_classes = heat"}},
      {"repro", "repro", "fleet", {"fleet = 0", "fleet = 1"}, {"fleet = 2"}},
      {"repro", "repro", "begin_scene",
       {"begin_scene\nschema = ccdem-scene-v1\ntype = ui\nidle_timeout_ms = "
        "0\nmarquee_px = 1\nstate = idle dwell_ms=0 fps=0 next=0 "
        "touch=-1\nend_scene",
        "begin_scene\nschema = ccdem-scene-v1\ntype = burst_video\n"
        "gap_ms = 0\nburst_frames = 240\nburst_fps = 240\nmotion = 0\n"
        "end_scene"},
       {"begin_scene\ntype = ui\nend_scene"}},
      {"repro", "repro", "begin_script",
       {"begin_script\nend_script",
        "begin_script\ntap 0 1 1\nswipe 5 0 1 2 3 4\nend_script"},
       {"begin_script\ngarbage\nend_script"}},

      {"scene", "scene_ui", "schema", {"schema = ccdem-scene-v1"},
       {"schema = ccdem-scene-v2", "schema = -"}},
      {"scene", "scene_ui", "type", {"type = ui"},
       {"type = burst_video", "type = movie", "type = -"}},
      {"scene", "scene_burst", "type", {"type = burst_video"},
       {"type = ui"}},
      {"scene", "scene_ui", "idle_timeout_ms",
       {"idle_timeout_ms = 0", "idle_timeout_ms = 600000"},
       {"idle_timeout_ms = -1", "idle_timeout_ms = 600001"}},
      {"scene", "scene_ui", "marquee_px",
       {"marquee_px = 1", "marquee_px = 64"},
       {"marquee_px = 0", "marquee_px = 65"}},
      {"scene", "scene_ui", "state",
       {"state = idle dwell_ms=0 fps=0 next=0 touch=-1",
        "state = dialog dwell_ms=600000 fps=240 next=0 touch=0", states16},
       {"state = -", "state = idle dwell_ms=-1 fps=0 next=0 touch=-1",
        "state = idle dwell_ms=0 fps=240.5 next=0 touch=-1",
        "state = idle dwell_ms=0 fps=1 next=1 touch=-1",
        states16 + "state = idle dwell_ms=0 fps=0 next=0 touch=-1"}},
      {"scene", "scene_burst", "gap_ms", {"gap_ms = 0", "gap_ms = 600000"},
       {"gap_ms = -1", "gap_ms = 600001"}},
      {"scene", "scene_burst", "burst_frames",
       {"burst_frames = 1", "burst_frames = 240"},
       {"burst_frames = 0", "burst_frames = 241"}},
      {"scene", "scene_burst", "burst_fps",
       {"burst_fps = 5e-324", "burst_fps = 240"},
       {"burst_fps = 0", "burst_fps = 240.5"}},
      {"scene", "scene_burst", "motion", {"motion = 0", "motion = " + motion16},
       {"motion = 4", "motion = " + motion16 + ",3"}},

      {"campaign", "campaign", "schema", {"schema = ccdem-campaign-v1"},
       {"schema = ccdem-campaign-v2", "schema = -"}},
      {"campaign", "campaign", "apps",
       {"apps = Facebook", "apps = Facebook,Jelly Splash,MX Player"},
       {"apps = NoSuchApp", "apps = "}},
      {"campaign", "campaign", "modes",
       {"modes = section", "modes = naive,section+boost"},
       {"modes = pipeline", "modes = warp"}},
      {"campaign", "campaign", "grids",
       {"grids = 2k", "grids = 2k,4k,9k,36k,full"}, {"grids = 1k"}},
      {"campaign", "campaign", "fault_scales",
       {"fault_scales = 0", "fault_scales = 1.7976931348623157e+308"},
       {"fault_scales = -1", "fault_scales = 0x1p0", "fault_scales = +1.5"}},
      {"campaign", "campaign", "pressure_scales",
       {"pressure_scales = 0", "pressure_scales = 1.7976931348623157e+308"},
       {"pressure_scales = -0.5"}},
      {"campaign", "campaign", "seeds",
       {"seeds = 0", "seeds = 18446744073709551615"},
       {"seeds = -1", "seeds = 18446744073709551616"}},
      {"campaign", "campaign", "duration_ms",
       {"duration_ms = 1", "duration_ms = 9223372036854775807"},
       {"duration_ms = 0", "duration_ms = 9223372036854775808"}},
      {"campaign", "campaign", "ab", {"ab = 0", "ab = 1"},
       {"ab = 2", "ab = true"}},
      {"campaign", "campaign", "record_spans",
       {"record_spans = 0", "record_spans = 1"}, {"record_spans = 2"}},
      {"campaign", "campaign", "oracles", {"oracles = 0", "oracles = 1"},
       {"oracles = 2"}},
      {"campaign", "campaign", "shards", {"shards = 1", "shards = 100000"},
       {"shards = 0", "shards = 100001"}},
  };
}

std::map<std::string, std::string> bound_bases() {
  return {
      {"config",
       "app = Facebook\nmode = pipeline\npipeline = section\nseconds = 5\n"
       "seed = 1\ngrid = 9k\neval_ms = 100\nboost_hold_ms = 500\n"
       "alpha = 0.5\nrates = 1,20,60,1000\nbaseline_hz = 60\nmin_hz = 20\n"
       "boost_hz = 60\nfault_scale = 1\npressure_scale = 1\n"},
      {"repro",
       "schema = ccdem-repro-v1\napp = Facebook\nmode = pipeline\n"
       "pipeline = section\nduration_ms = 3000\nseed = 1\ngrid = 9k\n"
       "eval_ms = 100\nboost_hold_ms = 500\nmeter_window_ms = 1000\n"
       "alpha = 0.5\nrates = 1,20,60,1000\nbaseline_hz = 60\nmin_hz = 20\n"
       "boost_hz = 60\nfast_rate_up = 0\nfault_scale = 1\n"
       "fault_until_ms = 10\nfault_classes = touch\npressure_scale = 1\n"
       "pressure_until_ms = 10\npressure_classes = jitter\nfleet = 0\n"
       "begin_scene\nschema = ccdem-scene-v1\ntype = ui\n"
       "idle_timeout_ms = 5\nmarquee_px = 2\n"
       "state = menu dwell_ms=1 fps=1 next=0 touch=0\nend_scene\n"
       "begin_script\ntap 0 5 5\nend_script\n"},
      {"scene_ui",
       "schema = ccdem-scene-v1\ntype = ui\nidle_timeout_ms = 5\n"
       "marquee_px = 2\nstate = menu dwell_ms=1 fps=1 next=0 touch=0\n"},
      {"scene_burst",
       "schema = ccdem-scene-v1\ntype = burst_video\ngap_ms = 5\n"
       "burst_frames = 2\nburst_fps = 10\nmotion = 1,2\n"},
      {"campaign",
       "schema = ccdem-campaign-v1\napps = Facebook\nmodes = section\n"
       "grids = 9k\nfault_scales = 0.5\npressure_scales = 0.5\nseeds = 1\n"
       "duration_ms = 400\nab = 0\nrecord_spans = 0\noracles = 0\n"
       "shards = 2\n"},
  };
}

/// The keys a canonical text writes (`begin_<name>` for blocks).
std::set<std::string> written_keys(const std::string& text) {
  std::set<std::string> keys;
  bool in_block = false;
  for (std::size_t p = 0; p < text.size();) {
    const std::size_t nl = text.find('\n', p);
    const std::string l = text.substr(p, nl - p);
    p = nl + 1;
    if (in_block) {
      in_block = l.rfind("end_", 0) != 0;
    } else if (l.rfind("begin_", 0) == 0) {
      keys.insert(l);
      in_block = true;
    } else {
      keys.insert(l.substr(0, l.find(" = ")));
    }
  }
  return keys;
}

TEST(TextFormatFuzz, EveryFieldRoundTripsAtItsBounds) {
  std::map<std::string, const TextFormat*> by_name;
  for (const TextFormat& f : formats()) by_name[f.name] = &f;
  const auto bases = bound_bases();
  std::map<std::string, std::set<std::string>> covered;
  for (const BoundRow& row : bound_rows()) {
    const TextFormat& f = *by_name.at(row.format);
    const std::string& base = bases.at(row.base);
    covered[row.format].insert(row.key);
    for (const std::string& patch : row.ok) {
      const std::string text = apply_patch(base, patch);
      std::string error;
      const auto canon = f.canon(text, &error);
      ASSERT_TRUE(canon) << row.key << ": " << error << "\n" << text;
      EXPECT_EQ(f.canon(*canon, nullptr), canon) << row.key << "\n" << *canon;
      EXPECT_TRUE(f.same_value(text, *canon)) << row.key << "\n" << *canon;
      // A written key carries the bound exactly as the patch spelled it.
      const std::string line = patch.substr(0, patch.find('\n')) + "\n";
      if (patch.rfind("begin_", 0) != 0 &&
          written_keys(*canon).count(row.key) != 0) {
        EXPECT_NE(canon->find(line), std::string::npos)
            << row.key << "\n" << *canon;
      }
    }
    for (const std::string& patch : row.bad) {
      std::string error;
      EXPECT_FALSE(f.canon(apply_patch(base, patch), &error))
          << row.key << ": " << patch;
      EXPECT_FALSE(error.empty()) << row.key;
    }
  }
  // Every key a canonical text can carry has a row.
  for (const auto& [name, text] : bases) {
    const std::string format = name.rfind("scene", 0) == 0 ? "scene" : name;
    for (const std::string& key : written_keys(text)) {
      EXPECT_EQ(covered[format].count(key), 1u) << format << ": " << key;
    }
  }
}

}  // namespace
