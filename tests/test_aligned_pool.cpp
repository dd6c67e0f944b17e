// Page-aligned allocation utilities, zero-page arrays and the node pool.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "bh/pool.hpp"
#include "support/aligned.hpp"
#include "support/zero_pages.hpp"

namespace ptb {
namespace {

TEST(Aligned, VectorStorageIsPageAligned) {
  AlignedVec<int> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kRegionAlignment, 0u);
  AlignedVec<double> w;
  w.resize(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kRegionAlignment, 0u);
}

TEST(Aligned, ArrayIsPageAlignedAndValueInitialized) {
  auto arr = make_aligned_array<int>(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr.get()) % kRegionAlignment, 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(arr[static_cast<std::size_t>(i)], 0);
}

TEST(Aligned, ArrayOfAtomicsStartsNull) {
  auto arr = make_aligned_array<std::atomic<void*>>(64);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(arr[static_cast<std::size_t>(i)].load(), nullptr);
}

TEST(Aligned, AllocatorEqualityAndRebind) {
  AlignedAlloc<int> a;
  AlignedAlloc<double> b;
  EXPECT_TRUE(a == AlignedAlloc<int>(b));
  int* p = a.allocate(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kRegionAlignment, 0u);
  a.deallocate(p, 10);
}

TEST(NodePool, TakeBumpAllocates) {
  NodePool pool;
  pool.init(16);
  Node* a = pool.take();
  Node* b = pool.take();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(pool.used(), 2u);
  EXPECT_EQ(pool.capacity(), 16u);
}

TEST(NodePool, ResetReusesStorage) {
  NodePool pool;
  pool.init(8);
  Node* first = pool.take();
  pool.take();
  pool.reset();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(pool.take(), first);
}

TEST(NodePool, CounterSupportsSharedFetchAdd) {
  NodePool pool;
  pool.init(8);
  auto& ctr = pool.counter();
  EXPECT_EQ(ctr.fetch_add(1), 0);
  EXPECT_EQ(pool.at(0), pool.base());
  EXPECT_EQ(pool.used(), 1u);
}

TEST(NodePool, MoveTransfersOwnership) {
  NodePool a;
  a.init(8);
  Node* base = a.base();
  a.take();
  NodePool b = std::move(a);
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(b.used(), 1u);
  EXPECT_EQ(a.capacity(), 0u);
}

// Resident set size of this process, in bytes (second field of statm).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// The fields a builder writes, set away from their defaults.
void scribble(Node* n, int tag) {
  n->mass = 1.0 + tag;
  n->cost = 2.0;
  n->com = Vec3{3.0, 4.0, 5.0};
  n->child[0].store(n, std::memory_order_relaxed);
  n->parent = n;
  n->bodies[0] = 7;
  n->nbodies = 3;
  n->kind.store(NodeKind::kCell, std::memory_order_relaxed);
  n->creator = static_cast<std::int16_t>(tag);
  n->level = 9;
  n->octant = 5;
  n->dead = true;
  n->created_idx = 11;
}

bool is_default(const Node* n) {
  bool children_null = true;
  for (const auto& c : n->child)
    children_null = children_null && c.load(std::memory_order_relaxed) == nullptr;
  return children_null && n->mass == 0.0 && n->cost == 0.0 && n->com.x == 0.0 &&
         n->com.z == 0.0 && n->cube.half == 0.0 && n->parent == nullptr &&
         n->bodies[0] == 0 && n->nbodies == 0 && n->is_leaf(std::memory_order_relaxed) &&
         n->creator == 0 && n->level == 0 && n->octant == 0 && !n->dead &&
         n->created_idx == -1;
}

TEST(NodePool, TakeAfterResetIsDefaultConstructed) {
  NodePool pool;
  pool.init(8);
  Node* a = pool.take();
  Node* b = pool.take();
  EXPECT_TRUE(is_default(a));
  scribble(a, 1);
  scribble(b, 2);
  pool.reset();
  Node* again = pool.take();
  EXPECT_EQ(again, a);
  EXPECT_TRUE(is_default(again));
  EXPECT_TRUE(is_default(pool.take()));
}

TEST(NodePool, InitReservesWithoutTouching) {
  constexpr std::size_t kNodes = std::size_t{1} << 20;  // 224 MB reserved
  NodePool pool;
  const std::size_t before = resident_bytes();
  pool.init(kNodes);
  for (int i = 0; i < 1000; ++i) scribble(pool.take(), i);
  const std::size_t grown = resident_bytes() - before;
  EXPECT_EQ(pool.size_bytes(), kNodes * sizeof(Node));
  EXPECT_LT(grown, pool.size_bytes() / 50) << "resident growth " << grown << " bytes";
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pool.base()) % kRegionAlignment, 0u);
}

TEST(NodePoolDeath, ExhaustionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NodePool pool;
  pool.init(1);
  pool.take();
  EXPECT_DEATH(pool.take(), "node pool exhausted");
}

// ORIG's shared pool: each thread reserves an index with the shared counter
// and constructs only the node it reserved (pthread-backed, so the TSan job
// runs it).
TEST(NodePoolThreads, SharedCounterHandsOutDistinctDefaultNodes) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  NodePool pool;
  pool.init(kThreads * kPerThread);
  // A previous build left every node modified.
  for (int i = 0; i < kThreads * kPerThread; ++i) scribble(pool.take(), i % 100);
  pool.reset();

  std::vector<std::vector<Node*>> got(kThreads);
  std::vector<int> not_default(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Node* n = pool.at(pool.counter().fetch_add(1, std::memory_order_relaxed));
        if (!is_default(n)) ++not_default[static_cast<std::size_t>(t)];
        n->creator = static_cast<std::int16_t>(t);
        n->nbodies = i;
        got[static_cast<std::size_t>(t)].push_back(n);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<int> owner(static_cast<std::size_t>(kThreads * kPerThread), -1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(not_default[static_cast<std::size_t>(t)], 0) << "thread " << t;
    for (int i = 0; i < kPerThread; ++i) {
      Node* n = got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      const auto idx = static_cast<std::size_t>(n - pool.base());
      ASSERT_LT(idx, owner.size());
      EXPECT_EQ(owner[idx], -1) << "node " << idx << " handed out twice";
      owner[idx] = t;
      EXPECT_EQ(n->creator, t);
      EXPECT_EQ(n->nbodies, i);
    }
  }
  EXPECT_EQ(pool.used(), owner.size());
}

TEST(ZeroPages, UnwrittenEntriesReadZero) {
  ZeroPages<std::uint64_t> z;
  EXPECT_EQ(z.size(), 0u);
  z.grow(1000);
  EXPECT_EQ(z.size(), 1000u);
  for (std::size_t i = 0; i < z.size(); ++i) ASSERT_EQ(z[i], 0u) << i;
  z[10] = 42;
  z.clear();
  EXPECT_EQ(z.size(), 0u);
  z.grow(20);
  EXPECT_EQ(z[10], 0u);  // cleared state never resurfaces
}

TEST(ZeroPages, GrowthKeepsWrittenEntries) {
  struct Pair {
    std::uint32_t a;
    std::uint32_t b;
  };
  ZeroPages<Pair> z;
  z.grow(3);
  z[1] = Pair{7, 8};
  // Small steps (within the mapping) and large ones (a remap) alike.
  for (std::size_t n : {std::size_t{4}, std::size_t{600}, std::size_t{1} << 16,
                        std::size_t{1} << 20, (std::size_t{1} << 20) + 1}) {
    z.grow(n);
    ASSERT_EQ(z.size(), n);
    EXPECT_EQ(z[1].a, 7u);
    EXPECT_EQ(z[1].b, 8u);
    EXPECT_EQ(z[n - 1].a, 0u);
    EXPECT_EQ(z[n - 2].b, 0u);
    z[n - 2] = Pair{static_cast<std::uint32_t>(n), 1};
  }
  EXPECT_EQ(z[(std::size_t{1} << 16) - 2].a, std::uint32_t{1} << 16);
  EXPECT_EQ(z[(std::size_t{1} << 20) - 2].a, std::uint32_t{1} << 20);
  z.grow(5);  // never shrinks
  EXPECT_EQ(z.size(), (std::size_t{1} << 20) + 1);
}

}  // namespace
}  // namespace ptb
