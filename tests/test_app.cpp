// End-to-end application runs on the simulated platforms: phase accounting,
// warm-up exclusion, cross-platform cost ordering sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "harness/app.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/space.hpp"

namespace ptb {
namespace {

template <class Builder>
RunResult run_app(const std::string& platform, int n, int np, int warm = 1,
                  int measured = 1) {
  BHConfig cfg;
  cfg.n = n;
  AppState st = make_app_state(cfg, np);
  SimContext ctx(PlatformSpec::by_name(platform), np);
  Builder builder(st);
  return run_simulation(ctx, st, builder, RunConfig{warm, measured});
}

TEST(App, PhasesAllAccounted) {
  const RunResult r = run_app<LocalBuilder>("origin2000", 2000, 4);
  EXPECT_GT(r.phase(Phase::kTreeBuild), 0.0);
  EXPECT_GT(r.phase(Phase::kMoments), 0.0);
  EXPECT_GT(r.phase(Phase::kPartition), 0.0);
  EXPECT_GT(r.phase(Phase::kForces), 0.0);
  EXPECT_GT(r.phase(Phase::kUpdate), 0.0);
  EXPECT_GT(r.total_ns, 0.0);
  // Forces dominate a Barnes-Hut step (paper: >97% sequentially).
  EXPECT_GT(r.phase(Phase::kForces), 0.5 * r.total_ns);
}

TEST(App, WarmupExcludedFromTotals) {
  const RunResult one = run_app<LocalBuilder>("origin2000", 1500, 4, 1, 1);
  const RunResult three = run_app<LocalBuilder>("origin2000", 1500, 4, 3, 1);
  // More warm-up steps must not inflate the measured totals (~equal steps).
  EXPECT_LT(std::abs(one.total_ns - three.total_ns) / one.total_ns, 0.25);
}

TEST(App, MoreMeasuredStepsMoreTime) {
  const RunResult one = run_app<LocalBuilder>("origin2000", 1500, 4, 1, 1);
  const RunResult two = run_app<LocalBuilder>("origin2000", 1500, 4, 1, 2);
  EXPECT_GT(two.total_ns, 1.5 * one.total_ns);
}

TEST(App, SvmTreeBuildShareExplodesForOrig) {
  // The paper's core observation, end to end: on a page-based SVM platform
  // the lock-heavy ORIG build dwarfs everything; SPACE stays modest.
  const RunResult orig = run_app<OrigBuilder>("paragon", 2000, 8);
  const RunResult space = run_app<SpaceBuilder>("paragon", 2000, 8);
  EXPECT_GT(orig.treebuild_fraction(), 0.5);
  EXPECT_LT(space.treebuild_fraction(), 0.35);
  EXPECT_LT(space.total_ns, orig.total_ns / 2);
}

TEST(App, HardwareCoherentPlatformsTolerateOrig) {
  const RunResult orig = run_app<OrigBuilder>("challenge", 2000, 8);
  const RunResult space = run_app<SpaceBuilder>("challenge", 2000, 8);
  // On the Challenge the algorithms are within ~25% of each other.
  EXPECT_LT(orig.total_ns, 1.25 * space.total_ns);
  EXPECT_LT(space.total_ns, 1.25 * orig.total_ns);
}

TEST(App, BarrierWaitTracked) {
  const RunResult r = run_app<OrigBuilder>("origin2000", 2000, 8);
  double wait = 0;
  for (const auto& ps : r.proc_stats) wait += ps.barrier_wait_ns;
  EXPECT_GT(wait, 0.0);
}

TEST(App, DeterministicEndToEnd) {
  const RunResult a = run_app<OrigBuilder>("typhoon0_hlrc", 1200, 4);
  const RunResult b = run_app<OrigBuilder>("typhoon0_hlrc", 1200, 4);
  EXPECT_EQ(first_difference(a, b), "");
}

// first_difference is the one definition of a bit-identical run: the
// smallest change to any part of the outcome must be named, and two fresh
// runs of one configuration must compare equal.
TEST(RunResultDiff, NamesTheSmallestChangeToEachPart) {
  BHConfig cfg;
  cfg.n = 1200;
  AppState st = make_app_state(cfg, 4);
  SimContext ctx(PlatformSpec::typhoon0_hlrc(), 4);
  SpaceBuilder builder(st);
  const RunResult run = run_simulation(ctx, st, builder, RunConfig{1, 1});
  EXPECT_EQ(first_difference(run, run_app<SpaceBuilder>("typhoon0_hlrc", 1200, 4)), "");
  const auto names = [&run](const std::string& want, auto&& change) {
    RunResult changed = run;
    change(changed);
    EXPECT_EQ(first_difference(run, changed), want);
    EXPECT_FALSE(run == changed);
  };
  const auto plus_one = [](std::uint64_t x) {
    return std::to_string(x) + " vs " + std::to_string(x + 1);
  };
  names("proc 1 clock_ns: " + plus_one(run.clock_ns[1]),
        [](RunResult& r) { ++r.clock_ns[1]; });
  names("proc 2 mem[page_faults]: " + plus_one(run.mem[2].page_faults),
        [](RunResult& r) { ++r.mem[2].page_faults; });
  names("proc 3 interactions_cell: " + plus_one(run.interactions_cell[3]),
        [](RunResult& r) { ++r.interactions_cell[3]; });
  // One ulp on one body's acceleration reaches the outcome through the
  // bodies hash.
  double& ax = st.bodies[7].acc.x;
  ax = std::nextafter(ax, std::numeric_limits<double>::infinity());
  const std::string diff = first_difference(run, collect_run_result(ctx, st));
  EXPECT_EQ(diff.rfind("bodies_hash: ", 0), 0u) << diff;
}

}  // namespace
}  // namespace ptb
