#include "gfx/buffer_pool.h"

#include <gtest/gtest.h>

#include "gfx/framebuffer.h"

namespace ccdem::gfx {
namespace {

TEST(BufferPool, FirstAcquireAllocates) {
  BufferPool pool;
  const auto v = pool.acquire(16, colors::kBlack);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(BufferPool, ReleaseThenAcquireReuses) {
  BufferPool pool;
  auto v = pool.acquire(64, colors::kWhite);
  const Rgb888* data = v.data();
  pool.release(std::move(v));
  EXPECT_EQ(pool.free_count(), 1u);

  const auto w = pool.acquire(64, colors::kBlack);
  EXPECT_EQ(w.data(), data);  // same storage came back
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BufferPool, ReusedBufferIsFullyReinitialised) {
  BufferPool pool;
  auto v = pool.acquire(8, colors::kWhite);
  v[3] = Rgb888{1, 2, 3};
  pool.release(std::move(v));

  const auto w = pool.acquire(8, colors::kBlack);
  ASSERT_EQ(w.size(), 8u);
  for (const Rgb888& px : w) EXPECT_EQ(px, colors::kBlack);
}

TEST(BufferPool, ReusedBufferThatGrowsOrShrinksIsFullyRefilled) {
  // Non-grey fills take fill_span's doubling-memcpy path, grey ones its
  // memset; either way every pixel of the reused storage -- the part the
  // buffer held before, the grown tail and nothing past n -- is the fill.
  const Rgb888 fills[] = {Rgb888{7, 99, 201}, colors::kRed, colors::kGray,
                          colors::kBlack};
  const std::size_t sizes[] = {100, 37, 100, 250, 1, 250, 64};
  for (const Rgb888 fill : fills) {
    BufferPool pool(/*max_free=*/1);
    std::vector<Rgb888> v = pool.acquire(sizes[0], colors::kWhite);
    for (const std::size_t n : sizes) {
      // Scribble over every pixel so a stale one would show.
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = Rgb888{static_cast<std::uint8_t>(i), 1, 2};
      }
      pool.release(std::move(v));
      v = pool.acquire(n, fill);
      ASSERT_EQ(v.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(v[i], fill) << "pixel " << i << " of " << n;
      }
    }
    EXPECT_GT(pool.reuses(), 0u);
  }
}

TEST(BufferPool, PrefersBufferWithSufficientCapacity) {
  BufferPool pool;
  auto small = pool.acquire(4, colors::kBlack);
  auto big = pool.acquire(100, colors::kBlack);
  const Rgb888* big_data = big.data();
  pool.release(std::move(small));
  pool.release(std::move(big));

  // Needs 50: the 4-pixel buffer would regrow, the 100-pixel one fits.
  const auto v = pool.acquire(50, colors::kBlack);
  EXPECT_EQ(v.data(), big_data);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, AcquireReservedReturnsEmptyWithCapacity) {
  BufferPool pool;
  auto v = pool.acquire(32, colors::kWhite);
  pool.release(std::move(v));

  const auto w = pool.acquire_reserved(32);
  EXPECT_TRUE(w.empty());  // starts size-0, like a fresh vector
  EXPECT_GE(w.capacity(), 32u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, MaxFreeBounded) {
  BufferPool pool(/*max_free=*/2);
  for (int i = 0; i < 5; ++i) {
    pool.release(pool.acquire(16, colors::kBlack));
  }
  EXPECT_LE(pool.free_count(), 2u);
}

TEST(BufferPool, PooledFramebufferReleasesOnDestruction) {
  BufferPool pool;
  {
    Framebuffer fb(4, 4, &pool, colors::kWhite);
    EXPECT_EQ(fb.width(), 4);
    EXPECT_EQ(pool.free_count(), 0u);
  }
  EXPECT_EQ(pool.free_count(), 1u);

  // A second framebuffer of the same shape recycles the first one's pixels.
  Framebuffer fb2(4, 4, &pool, colors::kBlack);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(fb2.at(0, 0), colors::kBlack);
}

TEST(BufferPool, PooledAndFreshFramebuffersCompareEqual) {
  BufferPool pool;
  // Pollute the pool with a differently-sized dirty buffer first.
  {
    Framebuffer scratch(10, 3, &pool, Rgb888{9, 9, 9});
  }
  Framebuffer pooled(6, 5, &pool, colors::kWhite);
  Framebuffer fresh(6, 5, colors::kWhite);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) {
      EXPECT_EQ(pooled.at(x, y), fresh.at(x, y));
    }
  }
}

TEST(BufferPool, MoveTransfersPoolOwnership) {
  BufferPool pool;
  {
    Framebuffer a(4, 4, &pool, colors::kWhite);
    Framebuffer b = std::move(a);
    EXPECT_EQ(b.width(), 4);
  }  // only b releases; the moved-from a must not double-release
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(BufferPool, CopyIsNeverPoolBacked) {
  BufferPool pool;
  {
    Framebuffer a(4, 4, &pool, colors::kWhite);
    Framebuffer copy = a;
    EXPECT_EQ(copy.at(0, 0), colors::kWhite);
  }  // a releases once; the copy owns plain heap storage
  EXPECT_EQ(pool.free_count(), 1u);
}

}  // namespace
}  // namespace ccdem::gfx
