// Tests for ptb::prof — recorder event patching, critical-path exactness
// (segments tile the run; p=1 degenerates to one segment), what-if replay
// fidelity (faithful replay == recorded elapsed; locks-free prediction vs a
// real --elide-locks run), cell resolution, profile JSON, and the paper's
// depth-contention claim measured end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "harness/experiment.hpp"
#include "json_checker.hpp"
#include "prof/critical_path.hpp"
#include "prof/prof.hpp"
#include "prof/profile.hpp"
#include "prof/whatif.hpp"
#include "trace/metrics.hpp"

namespace ptb {
namespace {

using prof::Capture;
using prof::CellResolver;
using prof::CriticalPath;
using prof::EvKind;
using prof::Recorder;
using prof::Scenario;
using testutil::JsonChecker;

// Two processors, one contended lock:
//   P0: acquires L at 0 (done 10), works, unlocks at 50 (done 60), finishes 80
//   P1: requests L at 5, blocks, granted 60, acquire done 70, unlocks
//       100..110, finishes 120
int lock_dummy;
Capture lock_handoff_capture() {
  Recorder r;
  r.begin_run(2);
  r.lock_acquired(0, &lock_dummy, 0, 10, Phase::kTreeBuild, 0);
  r.lock_wait_begin(1, &lock_dummy, 5, Phase::kTreeBuild);
  r.unlock(0, &lock_dummy, 50, 60, Phase::kTreeBuild, 0);
  r.lock_grant(/*waiter=*/1, /*granter=*/0, /*grant_ns=*/60);
  r.lock_acquired_end(1, 70, 0);
  r.unlock(1, &lock_dummy, 100, 110, Phase::kTreeBuild, 0);
  r.finish(0, 80, 0);
  r.finish(1, 120, 0);
  return r.take();
}

// Two processors, one barrier; P1 arrives last (release = 22), P0 departs
// and finishes later (50) so the path crosses the barrier edge.
Capture barrier_capture() {
  Recorder r;
  r.begin_run(2);
  r.barrier_arrive(0, 10, 12, Phase::kForces);
  r.barrier_arrive(1, 20, 22, Phase::kForces);
  r.barrier_release(/*release_ns=*/22, /*last=*/1);
  r.barrier_depart(0, 25, 0);
  r.barrier_depart(1, 25, 0);
  r.finish(0, 50, 0);
  r.finish(1, 40, 0);
  return r.take();
}

TEST(Recorder, PatchesGrantIntoThePendingLockEvent) {
  const Capture cap = lock_handoff_capture();
  ASSERT_EQ(cap.nprocs, 2);
  EXPECT_EQ(cap.elapsed_ns(), 120u);
  ASSERT_EQ(cap.log[1].size(), 3u);  // lock, unlock, finish
  const prof::Event& e = cap.log[1][0];
  EXPECT_EQ(e.kind, EvKind::kLock);
  EXPECT_TRUE(e.waited());
  EXPECT_EQ(e.cause, 0);
  EXPECT_EQ(e.t0, 5u);
  EXPECT_EQ(e.t1, 60u);
  EXPECT_EQ(e.t2, 70u);
  // cause_idx points at P0's unlock, the event that resolved the wait.
  EXPECT_EQ(cap.log[0][e.cause_idx].kind, EvKind::kUnlock);
}

TEST(Recorder, BarrierReleasePatchesEveryWaiterButNotTheLastArriver) {
  const Capture cap = barrier_capture();
  const prof::Event& w = cap.log[0][0];
  const prof::Event& last = cap.log[1][0];
  EXPECT_TRUE(w.waited());
  EXPECT_EQ(w.cause, 1);
  EXPECT_EQ(w.t1, 22u);
  EXPECT_FALSE(last.waited());  // the last arriver never blocked on anyone
  EXPECT_EQ(last.t1, 22u);
}

TEST(CriticalPathTest, LockHandoffChainTilesTheRun) {
  const Capture cap = lock_handoff_capture();
  const CriticalPath cp = critical_path(cap);
  EXPECT_EQ(cp.total_ns, 120u);
  EXPECT_EQ(cp.lock_edges, 1u);
  EXPECT_EQ(cp.barrier_edges, 0u);
  ASSERT_EQ(cp.segments.size(), 2u);
  // [0,60] on P0 entered via run start, then [60,120] on P1 via the handoff.
  EXPECT_EQ(cp.segments[0].proc, 0);
  EXPECT_EQ(cp.segments[0].end_ns, 60u);
  EXPECT_EQ(cp.segments[1].proc, 1);
  EXPECT_EQ(cp.segments[1].via, prof::Segment::Via::kLock);
  EXPECT_EQ(cp.via_start_ns + cp.via_lock_ns + cp.via_barrier_ns, cp.total_ns);
  ASSERT_EQ(cp.by_object.size(), 1u);
  EXPECT_EQ(cp.by_object[0].edges, 1u);
  EXPECT_EQ(cp.by_object[0].ns, 60u);
}

TEST(CriticalPathTest, BarrierEdgeHopsToTheLastArriver) {
  const Capture cap = barrier_capture();
  const CriticalPath cp = critical_path(cap);
  EXPECT_EQ(cp.total_ns, 50u);
  EXPECT_EQ(cp.barrier_edges, 1u);
  EXPECT_EQ(cp.lock_edges, 0u);
  ASSERT_EQ(cp.segments.size(), 2u);
  EXPECT_EQ(cp.segments[0].proc, 1);  // last arriver carries the path to 22
  EXPECT_EQ(cp.segments[0].end_ns, 22u);
  EXPECT_EQ(cp.segments[1].proc, 0);
  EXPECT_EQ(cp.segments[1].via, prof::Segment::Via::kBarrier);
  EXPECT_EQ(cp.via_barrier_ns, 28u);
}

TEST(WhatIfTest, FaithfulReplayReproducesTheRecordedElapsedTime) {
  EXPECT_EQ(prof::replay(lock_handoff_capture(), Scenario::kNone), 120u);
  EXPECT_EQ(prof::replay(barrier_capture(), Scenario::kNone), 50u);
}

TEST(WhatIfTest, ZeroingAnEdgeClassOnlyEverHelps) {
  const Capture lk = lock_handoff_capture();
  EXPECT_LT(prof::replay(lk, Scenario::kLocksFree), 120u);
  EXPECT_EQ(prof::replay(lk, Scenario::kBarriersFree), 120u);  // no barriers
  const Capture br = barrier_capture();
  EXPECT_LT(prof::replay(br, Scenario::kBarriersFree), 50u);
  EXPECT_EQ(prof::replay(br, Scenario::kLocksFree), 50u);  // no locks
}

TEST(CellResolverTest, ResolvesInsideRangesAndRejectsOutside) {
  alignas(64) static char arena[256];
  CellResolver cells;
  cells.add(arena, 64, /*depth=*/0, /*octant=*/0);
  cells.add(arena + 128, 64, /*depth=*/3, /*octant=*/5);
  cells.finalize();
  ASSERT_NE(cells.resolve(arena + 10), nullptr);
  EXPECT_EQ(cells.resolve(arena + 10)->depth, 0);
  ASSERT_NE(cells.resolve(arena + 128), nullptr);
  EXPECT_EQ(cells.resolve(arena + 128)->octant, 5);
  EXPECT_EQ(cells.resolve(arena + 64), nullptr);   // gap between cells
  EXPECT_EQ(cells.resolve(arena + 192), nullptr);  // past the end
}

TEST(ProfPath, FlagBeatsEnvAndEnvEnables) {
  ::setenv("PTB_PROF", "/tmp/env_prof.json", 1);
  EXPECT_EQ(prof::prof_path_from("/tmp/flag.json"), "/tmp/flag.json");
  EXPECT_EQ(prof::prof_path_from(""), "/tmp/env_prof.json");
  EXPECT_TRUE(prof::default_prof_enabled());
  ::setenv("PTB_PROF", "0", 1);
  EXPECT_FALSE(prof::default_prof_enabled());
  ::unsetenv("PTB_PROF");
  EXPECT_EQ(prof::prof_path_from(""), "");
  EXPECT_FALSE(prof::default_prof_enabled());
}

// --- end to end over the simulator ---

ExperimentSpec prof_spec(const char* platform, Algorithm alg, int n, int nprocs) {
  ExperimentSpec spec;
  spec.platform = platform;
  spec.algorithm = alg;
  spec.n = n;
  spec.nprocs = nprocs;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;
  spec.prof = true;
  return spec;
}

TEST(ProfEndToEnd, SingleProcCriticalPathIsTheWholeRun) {
  ExperimentRunner runner;
  const ExperimentResult r = runner.run(prof_spec("challenge", Algorithm::kOrig, 600, 1));
  ASSERT_TRUE(r.profile.enabled);
  EXPECT_EQ(r.profile.cp.total_ns, r.profile.elapsed_ns);
  ASSERT_EQ(r.profile.cp.segments.size(), 1u);
  EXPECT_EQ(r.profile.cp.segments[0].via, prof::Segment::Via::kStart);
  EXPECT_EQ(r.profile.cp.via_start_ns, r.profile.elapsed_ns);
  EXPECT_EQ(r.profile.cp.lock_edges, 0u);
  EXPECT_EQ(r.profile.cp.barrier_edges, 0u);
}

TEST(ProfEndToEnd, ProfilingIsBitIdenticalAndThePathTilesTheRun) {
  ExperimentSpec spec = prof_spec("typhoon0_hlrc", Algorithm::kOrig, 1500, 4);

  spec.prof = false;
  ExperimentRunner plain_runner;
  const ExperimentResult plain = plain_runner.run(spec);

  spec.prof = true;
  ExperimentRunner prof_runner;
  const ExperimentResult profiled = prof_runner.run(spec);

  // Profiling must be a pure observer of the virtual execution.
  EXPECT_EQ(first_difference(profiled.run, plain.run), "");
  EXPECT_EQ(profiled.seq_seconds, plain.seq_seconds);
  EXPECT_FALSE(plain.profile.enabled);

  const prof::Profile& p = profiled.profile;
  ASSERT_TRUE(p.enabled);
  EXPECT_GT(p.events, 0u);

  // Exactness: chronological segments tile [0, elapsed] with no gaps.
  EXPECT_EQ(p.cp.total_ns, p.elapsed_ns);
  std::uint64_t sum = 0, cursor = 0;
  for (const prof::Segment& s : p.cp.segments) {
    EXPECT_EQ(s.begin_ns, cursor);
    cursor = s.end_ns;
    sum += s.dur_ns();
  }
  EXPECT_EQ(sum, p.elapsed_ns);
  std::uint64_t phase_sum = 0;
  for (int i = 0; i < kNumPhases; ++i)
    phase_sum += p.cp.phase_ns[static_cast<std::size_t>(i)];
  EXPECT_EQ(phase_sum, p.elapsed_ns);

  // ORIG under contention: locks appear both in the table and on the path.
  EXPECT_FALSE(p.locks.empty());
  EXPECT_GT(p.cp.lock_edges, 0u);
  ASSERT_GE(p.whatifs.size(), 3u);
  for (const prof::WhatIf& w : p.whatifs) {
    EXPECT_LE(w.predicted_ns, p.elapsed_ns) << prof::scenario_name(w.scenario);
    EXPECT_GE(w.speedup, 1.0);
  }

  // The JSON side of the same profile is well-formed and complete.
  const std::string json = prof::profile_json(p);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  for (const char* key : {"critical_path", "locks", "depth_contention", "whatif",
                          "lock_edges", "locks_free"})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  // And the registry carries the same numbers.
  EXPECT_DOUBLE_EQ(profiled.metrics.value("prof.critical_path_ns", {}),
                   static_cast<double>(p.cp.total_ns));
  EXPECT_DOUBLE_EQ(profiled.metrics.value("prof.cp_ns", {{"via", "lock"}}),
                   static_cast<double>(p.cp.via_lock_ns));
}

TEST(ProfEndToEnd, SpaceHasNoLockEdgesOnTheCriticalPath) {
  ExperimentRunner runner;
  const ExperimentResult r = runner.run(prof_spec("challenge", Algorithm::kSpace, 1500, 4));
  ASSERT_TRUE(r.profile.enabled);
  EXPECT_EQ(r.profile.cp.lock_edges, 0u);
  EXPECT_GT(r.profile.cp.barrier_edges, 0u);
  EXPECT_EQ(r.profile.cp.via_lock_ns, 0u);
}

// The paper's root-contention claim, measured directly: under ORIG every
// insertion passes through the root, so lock waiting concentrates at the
// top of the tree and falls off with depth.
TEST(ProfEndToEnd, OrigLockWaitDecreasesWithTreeDepth) {
  ExperimentRunner runner;
  const ExperimentResult r = runner.run(prof_spec("challenge", Algorithm::kOrig, 4096, 8));
  ASSERT_TRUE(r.profile.enabled);
  const auto& depth = r.profile.depth;
  ASSERT_GE(depth.size(), 3u);
  ASSERT_EQ(depth[0].depth, 0);
  ASSERT_EQ(depth[1].depth, 1);
  ASSERT_EQ(depth[2].depth, 2);
  EXPECT_GT(depth[0].contended, 0u);
  EXPECT_GT(depth[0].lock_wait_ns, depth[1].lock_wait_ns);
  EXPECT_GT(depth[1].lock_wait_ns, depth[2].lock_wait_ns);
  // The root also dominates the per-object table.
  ASSERT_FALSE(r.profile.locks.empty());
  EXPECT_EQ(r.profile.locks[0].name, "root");
}

// Validates the causal claim against reality: the locks-free prediction from
// a locked run's capture vs the virtual time of a real --elide-locks run.
// Both profiles cover the same window (warm-up + measured steps), so the
// elapsed times are directly comparable. n=2048/p=4 is the largest challenge
// config where lock elision's genuine tree corruption does not crash the
// run (see docs/ANALYSIS.md); larger ones (e.g. n=4096/p=8) segfault.
TEST(ProfEndToEnd, LocksFreePredictionMatchesRealLockElision) {
  ExperimentSpec spec = prof_spec("challenge", Algorithm::kOrig, 2048, 4);
  ExperimentRunner locked_runner;
  const ExperimentResult locked = locked_runner.run(spec);
  ASSERT_TRUE(locked.profile.enabled);

  spec.bh.elide_locks = true;
  ExperimentRunner elided_runner;
  const ExperimentResult elided = elided_runner.run(spec);
  ASSERT_TRUE(elided.profile.enabled);

  std::uint64_t predicted = 0;
  for (const prof::WhatIf& w : locked.profile.whatifs)
    if (w.scenario == Scenario::kLocksFree) predicted = w.predicted_ns;
  ASSERT_GT(predicted, 0u);
  const double real = static_cast<double>(elided.profile.elapsed_ns);
  const double rel_err = std::abs(static_cast<double>(predicted) - real) / real;
  EXPECT_LE(rel_err, 0.15) << "predicted=" << predicted << " real=" << real;
}

}  // namespace
}  // namespace ptb
