// FrameStreamHasher: each frame's digest is rehashed from its damage only,
// yet must equal Framebuffer::fast_hash() bit-for-bit, and the stream fold
// must equal the fold of full-buffer hashes the DST oracles always compared.
//
// The Debug-build assert inside the hasher checks the same thing on every
// frame; these tests check it in Release too, on synthetic damage (edge
// rows, odd row sizes, tiny buffers, stale first frames) and on every
// corpus scenario, serial and through the fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "device/simulated_device.h"
#include "gfx/hash.h"
#include "harness/experiment.h"
#include "harness/fleet.h"
#include "sim/rng.h"

namespace ccdem::harness {
namespace {

// --- ResumableHash ---------------------------------------------------------

TEST(ResumableHash, PiecewiseFeedMatchesHashBytes) {
  std::vector<unsigned char> data(1000);
  sim::Rng rng(3);
  for (unsigned char& b : data) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  for (std::size_t n : {0u, 1u, 7u, 31u, 32u, 33u, 100u, 999u, 1000u}) {
    for (std::size_t cut = 0; cut <= n; cut += gfx::ResumableHash::kBlock) {
      gfx::ResumableHash h;
      h.feed(data.data(), cut);
      const gfx::ResumableHash checkpoint = h;
      h.feed(data.data() + cut, n - cut);
      EXPECT_EQ(h.digest(), gfx::hash_bytes(data.data(), n)) << n << "/" << cut;
      gfx::ResumableHash resumed = checkpoint;
      resumed.feed(data.data() + cut, n - cut);
      EXPECT_EQ(resumed.digest(), h.digest());
    }
  }
}

// --- synthetic frames ------------------------------------------------------

/// Plays frames into a hasher: each frame repaints some rects with fresh
/// noise and reports exactly those rects as its damage.  Checks every
/// digest against fast_hash() and the stream against the full-hash fold.
class Player {
 public:
  explicit Player(gfx::Framebuffer fb) : fb_(std::move(fb)) {}

  void frame(const std::vector<gfx::Rect>& changed) {
    gfx::Region damage;
    for (const gfx::Rect& r : changed) {
      for (int y = r.y; y < r.bottom(); ++y) {
        for (int x = r.x; x < r.right(); ++x) fb_.set(x, y, noise());
      }
      damage.add(r);
    }
    deliver(damage);
  }

  /// Delivers the current pixels with `damage` as reported, unpainted.
  void deliver(const gfx::Region& damage) {
    gfx::FrameInfo info;
    info.seq = ++seq_;
    info.damage = damage;
    info.dirty = damage.bounds();
    hasher_.on_frame(info, fb_);
    const std::uint64_t full = fb_.fast_hash();
    EXPECT_EQ(hasher_.frame_digest(), full) << "frame " << seq_;
    reference_ = gfx::hash_combine(reference_, full);
    EXPECT_EQ(hasher_.hash(), reference_) << "frame " << seq_;
  }

  gfx::Framebuffer& fb() { return fb_; }
  const FrameStreamHasher& hasher() const { return hasher_; }
  [[nodiscard]] std::size_t bytes() const {
    return fb_.pixels().size_bytes();
  }

 private:
  gfx::Rgb888 noise() {
    const auto v = static_cast<std::uint32_t>(rng_.uniform_int(0, 0xFFFFFF));
    return gfx::Rgb888{static_cast<std::uint8_t>(v >> 16),
                       static_cast<std::uint8_t>(v >> 8),
                       static_cast<std::uint8_t>(v)};
  }

  gfx::Framebuffer fb_;
  FrameStreamHasher hasher_;
  sim::Rng rng_{11};
  std::uint64_t seq_ = 0;
  std::uint64_t reference_ = gfx::kHashSeed;
};

constexpr int kW = 720;
constexpr int kH = 1280;

Player screen() {
  Player p(gfx::Framebuffer(kW, kH, gfx::colors::kGray));
  p.frame({gfx::Rect{0, 0, kW, kH}});
  return p;
}

TEST(FrameStreamHasher, FirstRowDamage) {
  Player p = screen();
  p.frame({gfx::Rect{0, 0, kW, 1}});
  p.frame({gfx::Rect{700, 0, 20, 1}});
}

TEST(FrameStreamHasher, MiddleDamage) {
  Player p = screen();
  p.frame({gfx::Rect{100, 640, 50, 30}});
  p.frame({gfx::Rect{0, 659, kW, 2}});  // straddles a 20-row checkpoint
}

TEST(FrameStreamHasher, LastRowDamageRehashesOnlyTheTail) {
  Player p = screen();
  const std::uint64_t before = p.hasher().bytes_hashed();
  p.frame({gfx::Rect{0, kH - 1, 1, 1}});
  // The last checkpoint sits 20 rows from the end; nothing above it is
  // touched.
  const std::uint64_t rehashed = p.hasher().bytes_hashed() - before;
  EXPECT_GT(rehashed, 0u);
  EXPECT_LE(rehashed, p.bytes() / FrameStreamHasher::kCheckpoints);
}

TEST(FrameStreamHasher, EmptyDamageReusesTheDigest) {
  Player p = screen();
  const std::uint64_t digest = p.hasher().frame_digest();
  const std::uint64_t before = p.hasher().bytes_hashed();
  const std::uint64_t stream = p.hasher().hash();
  p.frame({});
  EXPECT_EQ(p.hasher().frame_digest(), digest);
  EXPECT_EQ(p.hasher().bytes_hashed(), before);
  EXPECT_NE(p.hasher().hash(), stream);  // the frame still counts
}

TEST(FrameStreamHasher, MultiRectDamage) {
  Player p = screen();
  p.frame({gfx::Rect{10, 900, 40, 40}, gfx::Rect{600, 300, 30, 10},
           gfx::Rect{0, kH - 3, kW, 3}});
  p.frame({gfx::Rect{5, 5, 2, 2}, gfx::Rect{700, 1200, 20, 20}});
}

TEST(FrameStreamHasher, FullFrameDamage) {
  Player p = screen();
  for (int i = 0; i < 3; ++i) p.frame({gfx::Rect{0, 0, kW, kH}});
}

/// Every damage start row, on buffers whose rows are not whole 32-byte
/// blocks (checkpoints fall mid-row) or are fewer than the checkpoints.
void sweep_rows(int w, int h) {
  SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
  Player p(gfx::Framebuffer(w, h));
  p.frame({gfx::Rect{0, 0, w, h}});
  for (int y = 0; y < h; ++y) {
    p.frame({gfx::Rect{w / 2, y, 1, 1}});
    p.frame({gfx::Rect{0, y, w, h - y}});
  }
}

TEST(FrameStreamHasher, RowBytesNotMultipleOf32) {
  sweep_rows(7, 5);
  sweep_rows(721, 13);
}

TEST(FrameStreamHasher, HeightBelowCheckpointCount) {
  sweep_rows(64, 3);
  sweep_rows(10, 1);
  sweep_rows(1, 1);
}

TEST(FrameStreamHasher, FirstFrameIgnoresDamage) {
  // The first frame lands on pixels the hasher never saw (say, a buffer
  // an earlier run left behind): its damage says nothing about them, so
  // it is hashed in full.
  Player p(gfx::Framebuffer(kW, kH));
  for (int y = 0; y < kH; y += 7) {
    for (int x = 0; x < kW; x += 3) p.fb().set(x, y, gfx::Rgb888{1, 2, 3});
  }
  p.deliver(gfx::Region(gfx::Rect{0, kH - 1, 1, 1}));
  EXPECT_EQ(p.hasher().bytes_hashed(), p.bytes());
  p.frame({gfx::Rect{3, kH - 2, 4, 1}});
}

TEST(FrameStreamHasher, SizeChangeRehashesInFull) {
  FrameStreamHasher hasher;
  gfx::FrameInfo info;
  info.damage = gfx::Region(gfx::Rect{0, 0, 1, 1});
  std::uint64_t reference = gfx::kHashSeed;
  for (const gfx::Size size : {gfx::Size{kW, kH}, gfx::Size{7, 5},
                               gfx::Size{kW, kH}, gfx::Size{721, 13}}) {
    const gfx::Framebuffer fb(size, gfx::Rgb888{9, 8, 7});
    hasher.on_frame(info, fb);
    EXPECT_EQ(hasher.frame_digest(), fb.fast_hash());
    reference = gfx::hash_combine(reference, fb.fast_hash());
  }
  EXPECT_EQ(hasher.hash(), reference);
}

// --- corpus sweep -----------------------------------------------------------

namespace fs = std::filesystem;

const fs::path kCorpusDir = fs::path(CCDEM_REPO_DIR) / "tests" / "corpus";

std::optional<check::Scenario> read_scenario(const fs::path& file) {
  std::ifstream in(file);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  auto s = check::parse_scenario(text.str(), &error);
  EXPECT_TRUE(s) << file.filename().string() << ": " << error;
  return s;
}

std::vector<check::Scenario> corpus() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(kCorpusDir)) {
    if (e.path().extension() == ".repro") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<check::Scenario> out;
  for (const fs::path& p : files) {
    if (auto s = read_scenario(p)) out.push_back(std::move(*s));
  }
  return out;
}

/// Runs after the hasher on every frame and compares its digest with a
/// fresh full-buffer hash.
class FullHashCheck final : public gfx::FrameListener {
 public:
  explicit FullHashCheck(const FrameStreamHasher& hasher) : hasher_(hasher) {}
  void on_frame(const gfx::FrameInfo& info,
                const gfx::Framebuffer& fb) override {
    const std::uint64_t full = fb.fast_hash();
    EXPECT_EQ(hasher_.frame_digest(), full) << "frame " << info.seq;
    stream_ = gfx::hash_combine(stream_, full);
    ++frames_;
  }
  [[nodiscard]] std::uint64_t stream() const { return stream_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

 private:
  const FrameStreamHasher& hasher_;
  std::uint64_t stream_ = gfx::kHashSeed;
  std::uint64_t frames_ = 0;
};

/// run_experiment_on's drive, with the checker behind the hasher; returns
/// the fold of full-buffer hashes.
std::uint64_t checked_stream(const ExperimentConfig& cfg) {
  device::SimulatedDevice dev;
  dev.configure(cfg.device_config());
  (void)dev.install_app(cfg.app);
  FrameStreamHasher hasher;
  FullHashCheck check(hasher);
  dev.add_frame_listener(&hasher);
  dev.add_frame_listener(&check);
  dev.start_control();
  if (cfg.script) {
    dev.dispatcher().schedule_script(*cfg.script);
  } else {
    dev.schedule_monkey_script(cfg.app.monkey, cfg.duration);
  }
  dev.run_until(sim::Time{cfg.duration.ticks});
  dev.finish();
  EXPECT_EQ(check.frames(), dev.flinger().frames_composed());
  EXPECT_EQ(hasher.hash(), check.stream());
  return check.stream();
}

TEST(FrameStreamHasher, CorpusDigestsMatchFullHashSerialAndFleet) {
  std::vector<ExperimentConfig> configs;
  std::vector<std::uint64_t> expected;
  for (const check::Scenario& s : corpus()) {
    SCOPED_TRACE(s.app);
    ExperimentConfig cfg = s.experiment_config();
    cfg.hash_frames = true;
    expected.push_back(checked_stream(cfg));
    EXPECT_EQ(run_experiment(cfg).frame_stream_hash, expected.back());
    configs.push_back(std::move(cfg));
  }
  ASSERT_GE(configs.size(), 14u);
  // Two pooled workers: most runs start on recycled buffers.
  FleetRunner fleet(2);
  const std::vector<ExperimentResult> results = fleet.run(configs);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].frame_stream_hash, expected[i]) << configs[i].app.name;
  }
  EXPECT_GT(fleet.stats().buffer_reuses, 0u);
}

// Recorded before the hasher became damage-scoped, when every frame was
// hashed in full: the stream value must never move.
TEST(FrameStreamHasher, GoldenStreamHash) {
  const auto s = read_scenario(kCorpusDir / "cookierun_hud_memo.repro");
  ASSERT_TRUE(s);
  ExperimentConfig cfg = s->experiment_config();
  cfg.hash_frames = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.frames_composed, 136u);
  EXPECT_EQ(r.frame_stream_hash, 0xef71dde099c557efull);
  EXPECT_EQ(r.final_frame_hash, 0x1c15367a5394c2d5ull);
}

}  // namespace
}  // namespace ccdem::harness
