// The fiber and parallel scheduler backends implement the same virtual-time
// state machine and must be indistinguishable in every reported number: the
// whole RunResult (clocks, per-phase times, lock and wait statistics,
// protocol counters, interaction counts, final bodies) must be bit-identical
// for every algorithm on every platform. This is the contract that lets the
// parallel backend overlap unordered sections on real host threads
// (docs/MODEL.md "The lookahead window"). It also re-checks the caches'
// eager invalidation end to end: fibers run eager, parallel runs lazy
// (docs/PERF.md §4). Both backends run over one AppState (tests/rerun.hpp),
// so any difference is the scheduler's fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "prof/profile.hpp"
#include "race/race.hpp"
#include "rerun.hpp"
#include "sim/sim_rt.hpp"

namespace ptb {
namespace {

constexpr int kBodies = 2048;
constexpr int kProcs = 8;

struct RunOpts {
  bool race = false;
  bool prof = false;
  bool anatomy = false;
  /// Host workers for kParallel's section pool (0 = backend default). Set
  /// to >1 in the matrix tests so real cross-thread overlap is exercised.
  int workers = 4;
};

/// What the race detector and the anatomy collector report besides the run.
struct Reports {
  std::uint64_t races = 0;
  anatomy::Ledger ledger;
};

std::vector<RunResult> run_backends(Algorithm alg, const std::string& platform,
                                    const std::vector<SimBackend>& backends,
                                    const RunOpts& opts = {},
                                    std::vector<Reports>* reports = nullptr) {
  const PlatformSpec spec = PlatformSpec::by_name(platform);
  const RunConfig rc{/*warmup_steps=*/0, /*measured_steps=*/1};
  const auto run = [&](std::size_t i, AppState& st, auto& builder) {
    SimContext ctx(spec, kProcs, backends[i], /*race_detect=*/opts.race);
    if (opts.workers > 0) ctx.set_workers(opts.workers);
    prof::Recorder rec;
    if (opts.prof) ctx.set_profiler(&rec);
    anatomy::Collector col;
    if (opts.anatomy) ctx.set_anatomy(&col);
    RunResult res = run_simulation(ctx, st, builder, rc);
    if (reports != nullptr) {
      Reports r;
      if (const race::RaceReport* rr = ctx.race_report()) r.races = rr->races;
      if (opts.anatomy) r.ledger = anatomy::build_ledger(res.proc_stats, col, spec);
      reports->push_back(std::move(r));
    }
    return res;
  };
  return rerun(alg, kBodies, kProcs, backends.size(), run);
}

// Harness control: restoring the snapshot and re-running the SAME backend
// must reproduce the run exactly. If this fails, tests/rerun.hpp's
// snapshot/restore is incomplete and the cross-backend comparisons prove
// nothing.
TEST(BackendEquiv, SnapshotRestoreReproducesARun) {
  const auto runs =
      run_backends(Algorithm::kOrig, "paragon", {SimBackend::kFibers, SimBackend::kFibers});
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
}

TEST(BackendEquiv, FiberBackendReproducesItself) {
  const auto runs = run_backends(Algorithm::kPartree, "challenge",
                                 {SimBackend::kFibers, SimBackend::kFibers});
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
}

TEST(BackendEquiv, ParallelBackendReproducesItself) {
  const auto runs = run_backends(Algorithm::kSpace, "challenge",
                                 {SimBackend::kParallel, SimBackend::kParallel});
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
}

// A single host worker still goes through the launch/drain machinery; it
// must agree both with the multi-worker pool and with the fiber backend.
TEST(BackendEquiv, ParallelSingleWorkerBitIdentical) {
  RunOpts opts;
  opts.workers = 1;
  const auto runs = run_backends(Algorithm::kSpace, "origin2000",
                                 {SimBackend::kFibers, SimBackend::kParallel}, opts);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
}

// The race detector reads no unordered charges, so kParallel keeps
// overlapping sections under it; the whole run — including the race
// findings — must still match the fiber backend exactly.
TEST(BackendEquiv, ParallelUnderRaceDetectorMatchesFibers) {
  RunOpts opts;
  opts.race = true;
  std::vector<Reports> reports;
  const auto runs = run_backends(
      Algorithm::kSpace, "challenge", {SimBackend::kFibers, SimBackend::kParallel}, opts,
      &reports);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
  EXPECT_EQ(reports[0].races, reports[1].races);
}

// Anatomy also leaves overlap on; its ledger must match the fiber
// backend's cell by cell.
TEST(BackendEquiv, ParallelUnderAnatomyMatchesFibers) {
  RunOpts opts;
  opts.anatomy = true;
  std::vector<Reports> reports;
  const auto runs = run_backends(
      Algorithm::kOrig, "paragon", {SimBackend::kFibers, SimBackend::kParallel}, opts,
      &reports);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
  const anatomy::Ledger& a = reports[0].ledger;
  const anatomy::Ledger& b = reports[1].ledger;
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
  const auto runs = run_backends(Algorithm::kPartree, "typhoon0_hlrc",
                                 {SimBackend::kFibers, SimBackend::kParallel}, opts);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
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
  const auto runs =
      run_backends(c.alg, c.platform, {SimBackend::kFibers, SimBackend::kParallel});
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
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
