// The fiber and parallel scheduler backends implement the same virtual-time
// state machine and must be indistinguishable in every reported number:
// bit-identical virtual clocks, per-phase times, lock-acquire counts and
// wait-time statistics for every algorithm on every platform. This is the
// contract that lets the parallel backend overlap unordered sections on real
// host threads (docs/MODEL.md "The lookahead window"). It also re-checks the
// caches' eager invalidation end to end: fibers run eager, parallel runs
// lazy (docs/PERF.md §4).
//
// The simulator's virtual times are a function of the actual addresses of
// the registered regions (block-grid alignment, lock hashing — see
// RegionTable and AppState::node_lock), so both backends must run over the
// SAME AppState and builder storage. We snapshot the mutable simulation
// state once after setup and restore it between the two runs; allocation
// addresses then match exactly and any remaining difference is the
// scheduler's fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "harness/experiment.hpp"
#include "prof/profile.hpp"
#include "race/race.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/partree.hpp"
#include "treebuild/radix.hpp"
#include "treebuild/space.hpp"
#include "treebuild/update.hpp"

namespace ptb {
namespace {

struct BackendRun {
  RunResult run;
  std::vector<std::uint64_t> clocks;
  std::uint64_t races = 0;
  anatomy::Ledger ledger;
};

/// The pre-run values of everything a timestep mutates. Restoring copies
/// values back into the existing containers (capacities are never exceeded,
/// so data() — and therefore every registered region address — is stable).
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
  bool anatomy = false;
  /// Host workers for kParallel's section pool (0 = backend default). Set
  /// to >1 in the matrix tests so real cross-thread overlap is exercised.
  int workers = 4;
};

template <class Builder>
std::vector<BackendRun> run_backends(const std::string& platform, int n, int nprocs,
                                     const std::vector<SimBackend>& backends,
                                     const RunOpts& opts = {}) {
  BHConfig bh;
  bh.n = n;
  AppState st = make_app_state(bh, nprocs);
  const StateSnapshot snap = take_snapshot(st);
  Builder builder(st);
  const RunConfig rc{/*warmup_steps=*/0, /*measured_steps=*/1};
  std::vector<BackendRun> out;
  for (SimBackend backend : backends) {
    restore_snapshot(st, snap);
    SimContext ctx(PlatformSpec::by_name(platform), nprocs, backend,
                   /*race_detect=*/opts.race);
    if (opts.workers > 0) ctx.set_workers(opts.workers);
    prof::Recorder rec;
    if (opts.prof) ctx.set_profiler(&rec);
    anatomy::Collector col;
    if (opts.anatomy) ctx.set_anatomy(&col);
    BackendRun r;
    r.run = run_simulation(ctx, st, builder, rc);
    for (int p = 0; p < nprocs; ++p) r.clocks.push_back(ctx.clock_ns(p));
    if (const race::RaceReport* rr = ctx.race_report()) r.races = rr->races;
    if (opts.anatomy)
      r.ledger = anatomy::build_ledger(r.run.proc_stats, col, PlatformSpec::by_name(platform));
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<BackendRun> run_algorithm(Algorithm alg, const std::string& platform, int n,
                                      int nprocs, const std::vector<SimBackend>& backends,
                                      const RunOpts& opts = {}) {
  switch (alg) {
    case Algorithm::kOrig:
      return run_backends<OrigBuilder>(platform, n, nprocs, backends, opts);
    case Algorithm::kLocal:
      return run_backends<LocalBuilder>(platform, n, nprocs, backends, opts);
    case Algorithm::kUpdate:
      return run_backends<UpdateBuilder>(platform, n, nprocs, backends, opts);
    case Algorithm::kPartree:
      return run_backends<PartreeBuilder>(platform, n, nprocs, backends, opts);
    case Algorithm::kSpace:
      return run_backends<SpaceBuilder>(platform, n, nprocs, backends, opts);
    case Algorithm::kRadix:
      return run_backends<RadixBuilder>(platform, n, nprocs, backends, opts);
  }
  PTB_CHECK_MSG(false, "unhandled algorithm");
  return {};
}

void expect_identical(const BackendRun& a, const BackendRun& b) {
  // Virtual completion times, per processor, to the nanosecond.
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.run.total_ns, b.run.total_ns);

  ASSERT_EQ(a.run.proc_stats.size(), b.run.proc_stats.size());
  for (std::size_t p = 0; p < a.run.proc_stats.size(); ++p) {
    const ProcStats& x = a.run.proc_stats[p];
    const ProcStats& y = b.run.proc_stats[p];
    SCOPED_TRACE("proc " + std::to_string(p));
    EXPECT_EQ(x.phase_ns, y.phase_ns);
    EXPECT_EQ(x.lock_acquires, y.lock_acquires);
    EXPECT_EQ(x.barrier_wait_ns, y.barrier_wait_ns);
    EXPECT_EQ(x.lock_wait_ns, y.lock_wait_ns);
    EXPECT_EQ(x.barriers, y.barriers);
    EXPECT_EQ(x.fetch_adds, y.fetch_adds);
  }
}

constexpr int kBodies = 2048;
constexpr int kProcs = 8;

// Harness control: restoring the snapshot and re-running the SAME backend
// must reproduce the run exactly. If this fails, the snapshot/restore above
// is incomplete and the cross-backend comparisons prove nothing.
TEST(BackendEquiv, SnapshotRestoreReproducesARun) {
  const auto runs = run_algorithm(Algorithm::kOrig, "paragon", kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kFibers});
  expect_identical(runs[0], runs[1]);
}

TEST(BackendEquiv, FiberBackendReproducesItself) {
  const auto runs = run_algorithm(Algorithm::kPartree, "challenge", kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kFibers});
  expect_identical(runs[0], runs[1]);
}

TEST(BackendEquiv, ParallelBackendReproducesItself) {
  const auto runs = run_algorithm(Algorithm::kSpace, "challenge", kBodies, kProcs,
                                  {SimBackend::kParallel, SimBackend::kParallel});
  expect_identical(runs[0], runs[1]);
}

// A single host worker still goes through the launch/drain machinery; it
// must agree both with the multi-worker pool and with the fiber backend.
TEST(BackendEquiv, ParallelSingleWorkerBitIdentical) {
  RunOpts opts;
  opts.workers = 1;
  const auto runs = run_algorithm(Algorithm::kSpace, "origin2000", kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kParallel}, opts);
  expect_identical(runs[0], runs[1]);
}

// The race detector reads no unordered charges, so kParallel keeps
// overlapping sections under it; the whole run — including the race
// findings — must still match the fiber backend exactly.
TEST(BackendEquiv, ParallelUnderRaceDetectorMatchesFibers) {
  RunOpts opts;
  opts.race = true;
  const auto runs = run_algorithm(Algorithm::kSpace, "challenge", kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kParallel}, opts);
  expect_identical(runs[0], runs[1]);
  EXPECT_EQ(runs[0].races, runs[1].races);
}

// Anatomy also leaves overlap on; its ledger must match the fiber
// backend's cell by cell.
TEST(BackendEquiv, ParallelUnderAnatomyMatchesFibers) {
  RunOpts opts;
  opts.anatomy = true;
  const auto runs = run_algorithm(Algorithm::kOrig, "paragon", kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kParallel}, opts);
  expect_identical(runs[0], runs[1]);
  const anatomy::Ledger& a = runs[0].ledger;
  const anatomy::Ledger& b = runs[1].ledger;
  ASSERT_TRUE(a.enabled && b.enabled);
  EXPECT_EQ(a.total_ns, b.total_ns);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t p = 0; p < a.cells.size(); ++p) {
    for (int ph = 0; ph < kNumPhases; ++ph) {
      for (int c = 0; c < anatomy::kNumCategories; ++c) {
        const auto cat = static_cast<anatomy::Category>(c);
        EXPECT_EQ(a.cell_ns(static_cast<int>(p), static_cast<Phase>(ph), cat),
                  b.cell_ns(static_cast<int>(p), static_cast<Phase>(ph), cat))
            << "proc " << p << " phase " << phase_name(static_cast<Phase>(ph)) << " "
            << anatomy::category_name(cat);
      }
    }
  }
}

TEST(BackendEquiv, ParallelUnderProfilerMatchesFibers) {
  RunOpts opts;
  opts.prof = true;
  const auto runs = run_algorithm(Algorithm::kPartree, "typhoon0_hlrc", kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kParallel}, opts);
  expect_identical(runs[0], runs[1]);
}

struct EquivCase {
  Algorithm alg;
  const char* platform;
};

class BackendEquivP : public ::testing::TestWithParam<EquivCase> {};

// The name predates the removal of the thread backend; it is kept so the
// test IDs stay stable.
TEST_P(BackendEquivP, FiberThreadAndParallelBackendsBitIdentical) {
  const EquivCase c = GetParam();
  const auto runs = run_algorithm(c.alg, c.platform, kBodies, kProcs,
                                  {SimBackend::kFibers, SimBackend::kParallel});
  expect_identical(runs[0], runs[1]);
}

std::vector<EquivCase> all_cases() {
  std::vector<EquivCase> cases;
  for (Algorithm alg : all_algorithms())
    for (const char* platform :
         {"challenge", "origin2000", "paragon", "typhoon0_hlrc", "typhoon0_sc",
          "numa2020", "simt2020"})
      cases.push_back(EquivCase{alg, platform});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllPlatforms, BackendEquivP,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<EquivCase>& info) {
                           return std::string(algorithm_name(info.param.alg)) + "_" +
                                  info.param.platform;
                         });

}  // namespace
}  // namespace ptb
