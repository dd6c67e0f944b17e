// The batched interaction-list force kernel (src/bh/forcekernel.*) is an
// optimization, not a model change: with PTB_FORCE_SLOWPATH=1 the force
// phase falls back to the reference scalar walk — accelerations accumulated
// inside the tree traversal, one compute charge per interaction — and the
// two paths must agree bit-for-bit on every virtual time, every memory-event
// counter and every interaction count for every algorithm on every platform.
// That oracle is what licenses the gather/evaluate split (docs/PERF.md,
// "The interaction-list oracle").
//
// As in test_mem_equiv.cpp, virtual times are a function of the actual
// addresses of the registered regions, so both runs share one AppState with
// a snapshot/restore between them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bh/forcekernel.hpp"
#include "harness/experiment.hpp"
#include "mem/model.hpp"
#include "prof/profile.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/partree.hpp"
#include "treebuild/radix.hpp"
#include "treebuild/space.hpp"
#include "treebuild/update.hpp"

namespace ptb {
namespace {

/// Scoped PTB_FORCE_SLOWPATH toggle: the flag is sampled per force phase
/// (bh::force_slowpath_enabled is a live getenv), so flipping it between
/// runs in one process selects the path.
struct ScopedForceSlowpath {
  explicit ScopedForceSlowpath(bool on) {
    if (on)
      ::setenv("PTB_FORCE_SLOWPATH", "1", 1);
    else
      ::unsetenv("PTB_FORCE_SLOWPATH");
  }
  ~ScopedForceSlowpath() { ::unsetenv("PTB_FORCE_SLOWPATH"); }
};

struct PathRun {
  RunResult run;
  std::vector<std::uint64_t> clocks;
  std::vector<MemProcStats> mem;
  std::vector<std::uint64_t> cells;
  std::vector<std::uint64_t> bodies;
  std::vector<Vec3> acc;
};

struct StateSnapshot {
  Bodies bodies;
  std::vector<AlignedVec<std::int32_t>> partition;
  std::vector<std::int32_t> body_slot;
};

StateSnapshot take_snapshot(const AppState& st) {
  return StateSnapshot{st.bodies, st.partition, st.body_slot};
}

void restore_snapshot(AppState& st, const StateSnapshot& snap) {
  std::copy(snap.bodies.begin(), snap.bodies.end(), st.bodies.begin());
  for (std::size_t p = 0; p < st.partition.size(); ++p)
    st.partition[p].assign(snap.partition[p].begin(), snap.partition[p].end());
  std::copy(snap.body_slot.begin(), snap.body_slot.end(), st.body_slot.begin());
  st.tree.root = nullptr;
  for (auto& c : st.tree.created) c.clear();
  for (int i = 0; i < st.tree.nbodies; ++i)
    st.tree.body_leaf[static_cast<std::size_t>(i)].store(nullptr, std::memory_order_relaxed);
  std::fill(st.tree.reduce.begin(), st.tree.reduce.end(), ReduceSlot{});
  std::fill(st.interactions.begin(), st.interactions.end(), 0);
  std::fill(st.interactions_cell.begin(), st.interactions_cell.end(), 0);
  std::fill(st.interactions_body.begin(), st.interactions_body.end(), 0);
  st.storage.global.reset();
  for (auto& pool : st.storage.per_proc) pool.reset();
}

struct RunOpts {
  bool race = false;
  bool prof = false;
};

template <class Builder>
std::vector<PathRun> run_paths(const std::string& platform, int n, int nprocs,
                               const RunOpts& opts) {
  BHConfig bh;
  bh.n = n;
  AppState st = make_app_state(bh, nprocs);
  const StateSnapshot snap = take_snapshot(st);
  Builder builder(st);
  const RunConfig rc{/*warmup_steps=*/0, /*measured_steps=*/1};
  std::vector<PathRun> out;
  for (bool slow : {false, true}) {
    ScopedForceSlowpath env(slow);
    restore_snapshot(st, snap);
    SimContext ctx(PlatformSpec::by_name(platform), nprocs, default_sim_backend(),
                   /*race_detect=*/opts.race);
    prof::Recorder rec;
    if (opts.prof) ctx.set_profiler(&rec);
    PathRun r;
    r.run = run_simulation(ctx, st, builder, rc);
    for (int p = 0; p < nprocs; ++p) {
      r.clocks.push_back(ctx.clock_ns(p));
      r.mem.push_back(ctx.mem().proc_stats(p));
      r.cells.push_back(st.interactions_cell[static_cast<std::size_t>(p)]);
      r.bodies.push_back(st.interactions_body[static_cast<std::size_t>(p)]);
    }
    for (const Body& b : st.bodies) r.acc.push_back(b.acc);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<PathRun> run_algorithm(Algorithm alg, const std::string& platform, int n,
                                   int nprocs, const RunOpts& opts = {}) {
  switch (alg) {
    case Algorithm::kOrig:
      return run_paths<OrigBuilder>(platform, n, nprocs, opts);
    case Algorithm::kLocal:
      return run_paths<LocalBuilder>(platform, n, nprocs, opts);
    case Algorithm::kUpdate:
      return run_paths<UpdateBuilder>(platform, n, nprocs, opts);
    case Algorithm::kPartree:
      return run_paths<PartreeBuilder>(platform, n, nprocs, opts);
    case Algorithm::kSpace:
      return run_paths<SpaceBuilder>(platform, n, nprocs, opts);
    case Algorithm::kRadix:
      return run_paths<RadixBuilder>(platform, n, nprocs, opts);
  }
  PTB_CHECK_MSG(false, "unhandled algorithm");
  return {};
}

void expect_identical(const PathRun& fast, const PathRun& slow) {
  EXPECT_EQ(fast.clocks, slow.clocks);
  EXPECT_EQ(fast.run.total_ns, slow.run.total_ns);
  // Interaction counts must be reproduced exactly by the gather walk.
  EXPECT_EQ(fast.cells, slow.cells);
  EXPECT_EQ(fast.bodies, slow.bodies);
  ASSERT_EQ(fast.mem.size(), slow.mem.size());
  for (std::size_t p = 0; p < fast.mem.size(); ++p) {
    SCOPED_TRACE("proc " + std::to_string(p));
    for (const MemCounterDesc& c : kMemCounters) {
      SCOPED_TRACE(c.metric);
      EXPECT_EQ(fast.mem[p].*(c.field), slow.mem[p].*(c.field));
    }
  }
  ASSERT_EQ(fast.run.proc_stats.size(), slow.run.proc_stats.size());
  for (std::size_t p = 0; p < fast.run.proc_stats.size(); ++p) {
    SCOPED_TRACE("proc " + std::to_string(p));
    EXPECT_EQ(fast.run.proc_stats[p].phase_ns, slow.run.proc_stats[p].phase_ns);
    EXPECT_EQ(fast.run.proc_stats[p].lock_acquires, slow.run.proc_stats[p].lock_acquires);
  }
  // Default builds: the sequential fold in evaluate reproduces the walk's
  // accumulation order, so the accelerations themselves match to the bit.
  // (-DPTB_NATIVE_OPT may contract differently; the equivalence tests run on
  // the default build, see docs/PERF.md.)
  ASSERT_EQ(fast.acc.size(), slow.acc.size());
  for (std::size_t i = 0; i < fast.acc.size(); ++i) {
    SCOPED_TRACE("body " + std::to_string(i));
    EXPECT_EQ(fast.acc[i].x, slow.acc[i].x);
    EXPECT_EQ(fast.acc[i].y, slow.acc[i].y);
    EXPECT_EQ(fast.acc[i].z, slow.acc[i].z);
  }
}

constexpr int kBodies = 2048;
constexpr int kProcs = 8;

struct EquivCase {
  Algorithm alg;
  const char* platform;
};

class ForcePathEquivP : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ForcePathEquivP, KernelAndWalkBitIdentical) {
  const EquivCase c = GetParam();
  const auto runs = run_algorithm(c.alg, c.platform, kBodies, kProcs);
  expect_identical(runs[0], runs[1]);
}

std::vector<EquivCase> all_cases() {
  std::vector<EquivCase> cases;
  for (Algorithm alg : all_algorithms())
    for (const char* platform : {"ideal", "challenge", "origin2000", "paragon",
                                 "typhoon0_hlrc", "typhoon0_sc"})
      cases.push_back(EquivCase{alg, platform});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllPlatforms, ForcePathEquivP,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<EquivCase>& info) {
                           return std::string(algorithm_name(info.param.alg)) + "_" +
                                  info.param.platform;
                         });

// Observers must not perturb the equivalence. Under --race the detector
// reads every ordered charge; under --prof spans decay to per-element
// charges — the gather walk must keep matching the scalar oracle through
// both.
TEST(ForcePathEquiv, IdenticalUnderRaceDetector) {
  RunOpts opts;
  opts.race = true;
  const auto runs = run_algorithm(Algorithm::kSpace, "challenge", kBodies, kProcs, opts);
  expect_identical(runs[0], runs[1]);
}

TEST(ForcePathEquiv, IdenticalUnderProfiler) {
  RunOpts opts;
  opts.prof = true;
  const auto runs = run_algorithm(Algorithm::kPartree, "typhoon0_hlrc", kBodies, kProcs,
                                  opts);
  expect_identical(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// Unit-level kernel contract: evaluate must reproduce the scalar two-term
// accumulation exactly, including when the list length is not a multiple of
// the 8-wide block.

Vec3 scalar_reference(const bh::InteractionList& il, const Vec3& pos, double eps2) {
  Vec3 acc{};
  for (std::size_t i = 0; i < il.size(); ++i) {
    const double dx = il.x()[i] - pos.x;
    const double dy = il.y()[i] - pos.y;
    const double dz = il.z()[i] - pos.z;
    const double r2 = dx * dx + dy * dy + dz * dz + eps2;
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    const double s = il.m()[i] * inv;
    acc.x += dx * s;
    acc.y += dy * s;
    acc.z += dz * s;
  }
  return acc;
}

TEST(ForceKernel, EvaluateMatchesScalarForRaggedLengths) {
  bh::InteractionList il;
  const Vec3 pos{0.1, -0.2, 0.3};
  const double eps2 = 0.05 * 0.05;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<double>(rng % 1000) / 500.0 - 1.0;
  };
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    il.clear();
    for (std::size_t i = 0; i < len; ++i)
      il.push_body(Vec3{next(), next(), next()}, 1.0 + 0.5 * next());
    SCOPED_TRACE("len " + std::to_string(len));
    const Vec3 fast = bh::evaluate(il, pos, eps2);
    const Vec3 ref = scalar_reference(il, pos, eps2);
    EXPECT_EQ(fast.x, ref.x);
    EXPECT_EQ(fast.y, ref.y);
    EXPECT_EQ(fast.z, ref.z);
  }
}

TEST(ForceKernel, ClearRetainsCapacityAndSplitsKinds) {
  bh::InteractionList il;
  for (int i = 0; i < 100; ++i) il.push_cell(Vec3{1, 2, 3}, 4.0);
  for (int i = 0; i < 50; ++i) il.push_body(Vec3{5, 6, 7}, 8.0);
  EXPECT_EQ(il.size(), 150u);
  EXPECT_EQ(il.cells(), 100u);
  EXPECT_EQ(il.bodies(), 50u);
  il.clear();
  EXPECT_EQ(il.size(), 0u);
  EXPECT_EQ(il.cells(), 0u);
  EXPECT_EQ(il.bodies(), 0u);
}

}  // namespace
}  // namespace ptb
