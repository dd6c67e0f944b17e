// Set-associative LRU cache model with epoch-based (lazy) invalidation and
// its eager (touch_nv/mark_stale) twin used under serialized execution.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "mem/cache_model.hpp"

namespace ptb {
namespace {

TEST(CacheModel, MissThenHit) {
  CacheModel c;
  c.init(64 * 1024, 64, 2);
  EXPECT_FALSE(c.touch(7, 0));
  EXPECT_TRUE(c.touch(7, 0));
}

TEST(CacheModel, EpochBumpInvalidates) {
  CacheModel c;
  c.init(64 * 1024, 64, 2);
  c.touch(7, 0);
  EXPECT_FALSE(c.touch(7, 1));  // stale epoch: coherence miss
  EXPECT_TRUE(c.touch(7, 1));   // refilled at the new epoch
}

TEST(CacheModel, PresentDoesNotFill) {
  CacheModel c;
  c.init(64 * 1024, 64, 2);
  EXPECT_FALSE(c.present(9, 0));
  EXPECT_FALSE(c.touch(9, 0));
  EXPECT_TRUE(c.present(9, 0));
  EXPECT_FALSE(c.present(9, 3));  // wrong epoch
}

TEST(CacheModel, CapacityEviction) {
  // 2 sets x 1 way = 2 blocks capacity: touching many distinct blocks evicts.
  CacheModel c;
  c.init(2 * 64, 64, 1);
  for (std::size_t b = 0; b < 64; ++b) c.touch(b, 0);
  EXPECT_GT(c.evictions(), 0u);
  // With 64 recently-touched blocks and 2 slots, block 0 is long gone.
  EXPECT_FALSE(c.present(0, 0));
}

TEST(CacheModel, LruPrefersRecent) {
  // Force a single set (1 set of 2 ways) to exercise LRU order.
  CacheModel c;
  c.init(2 * 64, 64, 2);
  // Find three blocks mapping to the same set by brute force.
  // With one set, all blocks collide by construction.
  c.touch(1, 0);
  c.touch(2, 0);
  c.touch(1, 0);      // 1 is now most recent
  c.touch(3, 0);      // evicts 2 (LRU), not 1
  EXPECT_TRUE(c.present(1, 0));
  EXPECT_FALSE(c.present(2, 0));
}

TEST(CacheModel, InfiniteModeNeverEvicts) {
  CacheModel c;
  c.init(0, 4096, 1);
  for (std::size_t b = 0; b < 10000; ++b) c.touch(b, 0);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_TRUE(c.present(0, 0));
  EXPECT_FALSE(c.present(0, 1));  // epochs still apply
}

TEST(CacheModel, ClearDropsContents) {
  CacheModel c;
  c.init(64 * 1024, 64, 2);
  c.touch(5, 0);
  c.clear();
  EXPECT_FALSE(c.present(5, 0));
}


TEST(CacheModel, EagerMatchesLazyOnRandomTraffic) {
  // The simulator's fiber backend runs the caches in eager-invalidation mode
  // (touch_nv probes, mark_stale sweeps at epoch bumps) while the parallel
  // backend and the PTB_MEM_SLOWPATH oracle stay on lazy epochs. The two
  // must agree access for access: same hits, same evictions. Drive a pair of
  // per-processor cache sets with identical random traffic — reads by any
  // processor, writes (epoch bump + own refill) by any processor — and
  // compare every outcome.
  constexpr int kProcs = 3;
  constexpr std::size_t kBlocks = 96;  // > capacity: evictions happen
  std::vector<CacheModel> lazy(kProcs);
  std::vector<CacheModel> eager(kProcs);
  for (int q = 0; q < kProcs; ++q) {
    lazy[static_cast<std::size_t>(q)].init(16 * 64, 64, 2);  // 8 sets x 2 ways
    eager[static_cast<std::size_t>(q)].init(16 * 64, 64, 2);
  }
  std::vector<std::uint32_t> epoch(kBlocks, 0);
  std::mt19937 rng(123);
  for (int op = 0; op < 20000; ++op) {
    const auto q = static_cast<std::size_t>(rng() % kProcs);
    const std::size_t b = rng() % kBlocks;
    if (rng() % 4 == 0) {  // write: bump epoch, sweep others, refill own copy
      ++epoch[b];
      lazy[q].touch(b, epoch[b]);
      for (std::size_t o = 0; o < kProcs; ++o)
        if (o != q) eager[o].mark_stale(b);
      eager[q].touch_nv(b);
    } else {
      const bool hl = lazy[q].touch(b, epoch[b]);
      const bool he = eager[q].touch_nv(b);
      ASSERT_EQ(hl, he) << "op " << op << " proc " << q << " block " << b;
    }
  }
  for (std::size_t q = 0; q < kProcs; ++q)
    EXPECT_EQ(lazy[q].evictions(), eager[q].evictions());
}

TEST(CacheModel, EagerMatchesLazyInfiniteMode) {
  CacheModel lazy;
  CacheModel eager;
  lazy.init(0, 64, 2);
  eager.init(0, 64, 2);
  EXPECT_EQ(lazy.touch(5, 0), eager.touch_nv(5));  // miss
  EXPECT_EQ(lazy.touch(5, 0), eager.touch_nv(5));  // hit
  eager.mark_stale(5);                             // epoch bump elsewhere
  EXPECT_EQ(lazy.touch(5, 1), eager.touch_nv(5));  // coherence miss
  EXPECT_EQ(lazy.touch(5, 1), eager.touch_nv(5));  // hit again
}

}  // namespace
}  // namespace ptb
