#include "gfx/framebuffer.h"

#include <gtest/gtest.h>

namespace ccdem::gfx {
namespace {

TEST(Pixel, PackedRoundTrip) {
  const Rgb888 c{0x12, 0x34, 0x56};
  EXPECT_EQ(c.packed(), 0x123456u);
  EXPECT_EQ(Rgb888::from_packed(0x123456u), c);
}

TEST(Pixel, Luma) {
  EXPECT_EQ(colors::kBlack.luma(), 0);
  EXPECT_EQ(colors::kWhite.luma(), 255);
  EXPECT_GT(colors::kGreen.luma(), colors::kBlue.luma());
}

TEST(Framebuffer, ConstructedFilled) {
  const Framebuffer fb(4, 3, colors::kRed);
  EXPECT_EQ(fb.width(), 4);
  EXPECT_EQ(fb.height(), 3);
  EXPECT_EQ(fb.pixel_count(), 12);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) EXPECT_EQ(fb.at(x, y), colors::kRed);
  }
}

TEST(Framebuffer, SetAndGet) {
  Framebuffer fb(4, 4);
  fb.set(2, 3, colors::kGreen);
  EXPECT_EQ(fb.at(2, 3), colors::kGreen);
  EXPECT_EQ(fb.at(3, 2), colors::kBlack);
}

TEST(Framebuffer, AtClampedOutOfRangeIsBlack) {
  Framebuffer fb(2, 2, colors::kWhite);
  EXPECT_EQ(fb.at_clamped(-1, 0), colors::kBlack);
  EXPECT_EQ(fb.at_clamped(0, 2), colors::kBlack);
  EXPECT_EQ(fb.at_clamped(1, 1), colors::kWhite);
}

TEST(Framebuffer, FillRectClips) {
  Framebuffer fb(10, 10);
  fb.fill_rect(Rect{8, 8, 10, 10}, colors::kBlue);
  EXPECT_EQ(fb.at(9, 9), colors::kBlue);
  EXPECT_EQ(fb.at(7, 7), colors::kBlack);
}

TEST(Framebuffer, FillRectNegativeOriginClips) {
  Framebuffer fb(10, 10);
  fb.fill_rect(Rect{-5, -5, 7, 7}, colors::kBlue);
  EXPECT_EQ(fb.at(0, 0), colors::kBlue);
  EXPECT_EQ(fb.at(1, 1), colors::kBlue);
  EXPECT_EQ(fb.at(2, 2), colors::kBlack);
}

TEST(Framebuffer, BlitCopiesRegion) {
  Framebuffer src(4, 4, colors::kRed);
  Framebuffer dst(8, 8);
  dst.blit(src, Rect{0, 0, 4, 4}, Point{2, 2});
  EXPECT_EQ(dst.at(2, 2), colors::kRed);
  EXPECT_EQ(dst.at(5, 5), colors::kRed);
  EXPECT_EQ(dst.at(6, 6), colors::kBlack);
  EXPECT_EQ(dst.at(1, 1), colors::kBlack);
}

TEST(Framebuffer, BlitClipsAtDestinationEdge) {
  Framebuffer src(4, 4, colors::kRed);
  Framebuffer dst(8, 8);
  dst.blit(src, Rect{0, 0, 4, 4}, Point{6, 6});
  EXPECT_EQ(dst.at(7, 7), colors::kRed);
  EXPECT_EQ(dst.at(5, 5), colors::kBlack);
}

TEST(Framebuffer, BlitPartialSourceRect) {
  Framebuffer src(4, 4);
  src.set(3, 3, colors::kGreen);
  Framebuffer dst(8, 8);
  dst.blit(src, Rect{3, 3, 1, 1}, Point{0, 0});
  EXPECT_EQ(dst.at(0, 0), colors::kGreen);
}

TEST(Framebuffer, ScrollUpMovesContent) {
  Framebuffer fb(4, 8);
  fb.fill_rect(Rect{0, 4, 4, 1}, colors::kYellow);  // marker row at y=4
  fb.scroll_up(Rect{0, 0, 4, 8}, 2);
  EXPECT_EQ(fb.at(0, 2), colors::kYellow);
  EXPECT_EQ(fb.at(0, 4), colors::kBlack);
}

TEST(Framebuffer, ScrollUpByRegionHeightIsNoop) {
  Framebuffer fb(4, 4, colors::kRed);
  fb.scroll_up(Rect{0, 0, 4, 4}, 4);
  EXPECT_EQ(fb.at(0, 0), colors::kRed);
}

TEST(Framebuffer, ShiftMovesContentBothAxes) {
  Framebuffer fb(8, 8);
  fb.set(2, 2, colors::kYellow);
  fb.shift(Rect{0, 0, 8, 8}, 3, 4);
  EXPECT_EQ(fb.at(5, 6), colors::kYellow);
}

TEST(Framebuffer, ShiftNegativeOffsets) {
  Framebuffer fb(8, 8);
  fb.set(5, 6, colors::kRed);
  fb.shift(Rect{0, 0, 8, 8}, -3, -4);
  EXPECT_EQ(fb.at(2, 2), colors::kRed);
}

TEST(Framebuffer, ShiftLeavesVacatedBandsUntouched) {
  Framebuffer fb(8, 8, colors::kGray);
  fb.shift(Rect{0, 0, 8, 8}, 2, 0);
  // The left band keeps its old pixels (caller repaints it).
  EXPECT_EQ(fb.at(0, 0), colors::kGray);
  EXPECT_EQ(fb.at(7, 7), colors::kGray);
}

TEST(Framebuffer, ShiftMatchesCopyReference) {
  // Differential check against an out-of-place reference for all four
  // direction combinations.
  for (const auto& [dx, dy] : {std::pair{2, 3}, std::pair{-2, 3},
                              std::pair{2, -3}, std::pair{-2, -3}}) {
    Framebuffer fb(16, 16);
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        fb.set(x, y, Rgb888{static_cast<std::uint8_t>(x * 16),
                            static_cast<std::uint8_t>(y * 16), 7});
      }
    }
    const Framebuffer before = fb;
    fb.shift(Rect{0, 0, 16, 16}, dx, dy);
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const int sx = x - dx, sy = y - dy;
        if (sx >= 0 && sx < 16 && sy >= 0 && sy < 16) {
          ASSERT_EQ(fb.at(x, y), before.at(sx, sy))
              << "dx=" << dx << " dy=" << dy << " at " << x << "," << y;
        }
      }
    }
  }
}

TEST(Framebuffer, ShiftByRegionSizeIsNoop) {
  Framebuffer fb(8, 8, colors::kBlue);
  fb.set(0, 0, colors::kRed);
  fb.shift(Rect{0, 0, 8, 8}, 8, 0);
  EXPECT_EQ(fb.at(0, 0), colors::kRed);  // untouched
}

TEST(Framebuffer, EqualsDetectsDifferences) {
  Framebuffer a(4, 4), b(4, 4);
  EXPECT_TRUE(a.equals(b));
  b.set(1, 1, colors::kRed);
  EXPECT_FALSE(a.equals(b));
}

TEST(Framebuffer, EqualsRequiresSameSize) {
  Framebuffer a(4, 4), b(4, 5);
  EXPECT_FALSE(a.equals(b));
}

TEST(Framebuffer, RegionEqualsIgnoresOutside) {
  Framebuffer a(8, 8), b(8, 8);
  b.set(7, 7, colors::kRed);
  EXPECT_TRUE(a.region_equals(b, Rect{0, 0, 4, 4}));
  EXPECT_FALSE(a.region_equals(b, Rect{4, 4, 4, 4}));
}

TEST(Framebuffer, RowSpanHasWidth) {
  Framebuffer fb(6, 2);
  EXPECT_EQ(fb.row(0).size(), 6u);
  EXPECT_EQ(fb.pixels().size(), 12u);
}

}  // namespace
}  // namespace ccdem::gfx
