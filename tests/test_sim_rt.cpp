// Discrete-event simulator runtime: virtual clocks, conservative ordering,
// queued locks, barriers, phase attribution, determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "harness/app.hpp"
#include "prof/prof.hpp"
#include "race/race.hpp"
#include "sight/sight.hpp"
#include "sim/sim_rt.hpp"
#include "trace/trace.hpp"

namespace ptb {
namespace {

PlatformSpec ideal() { return PlatformSpec::ideal(); }

TEST(SimRt, ComputeAdvancesClock) {
  PlatformSpec spec = ideal();
  spec.ns_per_work = 2.0;
  SimContext ctx(spec, 1);
  ctx.run([](SimProc& rt) { rt.compute(100.0); });
  EXPECT_EQ(ctx.clock_ns(0), 200u);
}

TEST(SimRt, BarrierAlignsClocks) {
  SimContext ctx(ideal(), 4);
  ctx.run([](SimProc& rt) {
    rt.compute(100.0 * (rt.self() + 1));  // clocks 100..400
    rt.barrier();
  });
  for (int p = 0; p < 4; ++p) EXPECT_EQ(ctx.clock_ns(p), 400u);
  // Barrier wait recorded for the early arrivers.
  EXPECT_DOUBLE_EQ(ctx.stats()[0].barrier_wait_ns, 300.0);
  EXPECT_DOUBLE_EQ(ctx.stats()[3].barrier_wait_ns, 0.0);
}

TEST(SimRt, LockSerializesInVirtualTime) {
  // All four processors arrive at the lock at the same virtual time and hold
  // it for 100 ns of compute each: releases at 100, 200, 300, 400.
  SimContext ctx(ideal(), 4);
  int shared = 0;
  ctx.run([&shared](SimProc& rt) {
    rt.lock(&shared);
    ++shared;
    rt.compute(100.0);
    rt.unlock(&shared);
  });
  EXPECT_EQ(shared, 4);
  std::vector<std::uint64_t> clocks;
  for (int p = 0; p < 4; ++p) clocks.push_back(ctx.clock_ns(p));
  std::sort(clocks.begin(), clocks.end());
  EXPECT_EQ(clocks, (std::vector<std::uint64_t>{100, 200, 300, 400}));
}

TEST(SimRt, LockGrantsFifoByRequestTime) {
  // Proc 0 grabs the lock at t=0 and holds it until 1000. Procs 1..3 request
  // at t = 300, 200, 100: grants must follow request order 3, 2, 1.
  SimContext ctx(ideal(), 4);
  int lock_obj = 0;
  std::vector<int> grant_order;
  ctx.run([&](SimProc& rt) {
    if (rt.self() == 0) {
      rt.lock(&lock_obj);
      rt.compute(1000.0);
      rt.unlock(&lock_obj);
      return;
    }
    rt.compute(100.0 * (4 - rt.self()));  // p1:300 p2:200 p3:100
    rt.lock(&lock_obj);
    grant_order.push_back(rt.self());  // safe: mutual exclusion via the lock
    rt.compute(10.0);
    rt.unlock(&lock_obj);
  });
  EXPECT_EQ(grant_order, (std::vector<int>{3, 2, 1}));
}

TEST(SimRt, LockWaitTimeRecorded) {
  SimContext ctx(ideal(), 2);
  int lock_obj = 0;
  ctx.run([&](SimProc& rt) {
    if (rt.self() == 0) {
      rt.lock(&lock_obj);
      rt.compute(500.0);
      rt.unlock(&lock_obj);
    } else {
      rt.compute(100.0);  // request at 100, granted at 500
      rt.lock(&lock_obj);
      rt.unlock(&lock_obj);
    }
  });
  EXPECT_DOUBLE_EQ(ctx.stats()[1].lock_wait_ns, 400.0);
}

TEST(SimRt, OrderedOpsExecuteInVirtualTimeOrder) {
  // Two processors hit a shared counter at virtual times 50 (proc 1) and 100
  // (proc 0): the min-clock rule must hand proc 1 the first ticket.
  SimContext ctx(ideal(), 2);
  std::atomic<std::int64_t> counter{0};
  std::int64_t ticket[2] = {-1, -1};
  ctx.run([&](SimProc& rt) {
    rt.compute(rt.self() == 0 ? 100.0 : 50.0);
    ticket[rt.self()] = rt.fetch_add(counter, 1);
    rt.barrier();
  });
  EXPECT_EQ(ticket[1], 0);
  EXPECT_EQ(ticket[0], 1);
}

TEST(SimRt, FetchAddReturnsSequencedValues) {
  SimContext ctx(ideal(), 8);
  std::atomic<std::int64_t> counter{0};
  std::vector<std::int64_t> got(8);
  ctx.run([&](SimProc& rt) {
    got[static_cast<std::size_t>(rt.self())] = rt.fetch_add(counter, 1);
  });
  std::sort(got.begin(), got.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(SimRt, PhaseAttribution) {
  SimContext ctx(ideal(), 2);
  ctx.run([](SimProc& rt) {
    rt.begin_phase(Phase::kTreeBuild);
    rt.compute(100.0);
    rt.barrier();
    rt.begin_phase(Phase::kForces);
    rt.compute(200.0);
    rt.barrier();
    rt.begin_phase(Phase::kOther);
  });
  for (int p = 0; p < 2; ++p) {
    EXPECT_DOUBLE_EQ(ctx.stats()[static_cast<std::size_t>(p)]
                         .phase_ns[static_cast<int>(Phase::kTreeBuild)],
                     100.0);
    EXPECT_DOUBLE_EQ(ctx.stats()[static_cast<std::size_t>(p)]
                         .phase_ns[static_cast<int>(Phase::kForces)],
                     200.0);
  }
}

TEST(SimRt, ReadSharedAccumulatesIntoPending) {
  PlatformSpec spec = PlatformSpec::origin2000();
  SimContext ctx(spec, 2);
  static char buf[4096];
  ctx.register_region(buf, sizeof(buf), HomePolicy::kFixed, 0, "buf");
  ctx.run([&](SimProc& rt) {
    if (rt.self() == 1) rt.read_shared(buf, 8);  // remote miss: 703 ns
    rt.barrier();
  });
  EXPECT_GE(ctx.clock_ns(1), 703u);
}

TEST(SimRt, DeterministicAcrossRuns) {
  // A contended mixed workload must produce a bit-identical outcome on
  // repeated runs.
  auto run_once = [] {
    PlatformSpec spec = PlatformSpec::origin2000();
    SimContext ctx(spec, 8);
    static char buf[1 << 16];
    ctx.register_region(buf, sizeof(buf), HomePolicy::kInterleavedBlock, 0, "buf");
    int lock_obj = 0;
    ctx.run([&](SimProc& rt) {
      for (int i = 0; i < 50; ++i) {
        rt.compute(10.0 + rt.self());
        rt.read(buf + (i * 131 + rt.self() * 7) % 60000, 8);
        if (i % 5 == rt.self() % 5) {
          rt.lock(&lock_obj);
          rt.compute(5.0);
          rt.write(buf + (i * 17) % 60000, 8);
          rt.unlock(&lock_obj);
        }
        if (i % 10 == 9) rt.barrier();
      }
      rt.barrier();
    });
    return collect_run_result(ctx, AppState{});  // no bodies: a bare program
  };
  const RunResult a = run_once();
  EXPECT_EQ(first_difference(a, run_once()), "");
  std::uint64_t locks = 0;
  for (const ProcStats& ps : a.proc_stats)
    for (std::uint64_t l : ps.lock_acquires) locks += l;
  EXPECT_GT(locks, 0u);
}

TEST(SimRt, ElapsedIsMaxClock) {
  SimContext ctx(ideal(), 3);
  ctx.run([](SimProc& rt) { rt.compute(100.0 * (rt.self() + 1)); });
  EXPECT_EQ(ctx.elapsed_ns(), 300u);
}

TEST(SimRt, HlrcLockAcquireChargesProtocol) {
  const PlatformSpec spec = PlatformSpec::paragon();
  SimContext ctx(spec, 2);
  int lock_obj = 0;
  ctx.run([&](SimProc& rt) {
    if (rt.self() == 0) {
      rt.lock(&lock_obj);
      rt.unlock(&lock_obj);
    }
    rt.barrier();
  });
  // Acquire cost is the 3-hop SVM lock latency.
  EXPECT_GE(ctx.clock_ns(0), static_cast<std::uint64_t>(spec.svm_lock_ns));
}

TEST(SimRt, CriticalSectionDilationSerializesHlrcLocks) {
  // The paper's key SVM effect: a page fault INSIDE a critical section
  // dilates the lock hold time for everyone queued behind it.
  const PlatformSpec spec = PlatformSpec::paragon();
  SimContext ctx(spec, 4);
  static char page[4096 * 8];
  ctx.register_region(page, sizeof(page), HomePolicy::kFixed, 0, "p");
  int lock_obj = 0;
  ctx.run([&](SimProc& rt) {
    rt.lock(&lock_obj);
    rt.write(page + rt.self() * 16, 8);  // cold fault inside the CS
    rt.unlock(&lock_obj);
    rt.barrier();
  });
  // Last processor's finish time >= 4 acquires + 4 faults, serialized.
  const double serial = 4 * spec.svm_lock_ns + 4 * (spec.page_fault_ns + spec.twin_ns);
  EXPECT_GE(static_cast<double>(ctx.elapsed_ns()), serial * 0.9);
}

// Which observers keep kParallel's overlap: the rule reads each observer's
// UnorderedUse declaration, so an observer that ignores unordered charges
// (anatomy, race) leaves every section on a pool worker, and one that reads
// them (trace, prof, sight) runs every section on the calling thread.
enum class Attached { kAnatomy, kRace, kTracer, kProf, kSight };

std::vector<std::thread::id> section_threads(Attached a) {
  constexpr int kProcs = 4;
  constexpr int kRounds = 3;
  SimContext ctx(PlatformSpec::by_name("challenge"), kProcs, SimBackend::kParallel,
                 /*race_detect=*/a == Attached::kRace, /*sight_observe=*/a == Attached::kSight);
  ctx.set_workers(2);
  trace::Tracer tracer(kProcs);
  prof::Recorder recorder;
  anatomy::Collector collector;
  if (a == Attached::kTracer) ctx.set_tracer(&tracer);
  if (a == Attached::kProf) ctx.set_profiler(&recorder);
  if (a == Attached::kAnatomy) ctx.set_anatomy(&collector);
  alignas(64) static int data[64];
  ctx.register_region(data, sizeof(data), HomePolicy::kInterleavedBlock, 0, "data");
  std::vector<std::thread::id> ids(kProcs * kRounds);
  ctx.run([&](SimProc& rt) {
    for (int round = 0; round < kRounds; ++round) {
      rt.barrier();
      rt.unordered([&] {
        rt.read_shared(&data[rt.self()], sizeof(int));
        rt.compute(10.0);
        ids[static_cast<std::size_t>(rt.self() * kRounds + round)] =
            std::this_thread::get_id();
      });
    }
  });
  return ids;
}

TEST(SimRt, ParallelOverlapKeptUnlessAnObserverReadsUnorderedCharges) {
  const std::thread::id caller = std::this_thread::get_id();
  for (Attached a : {Attached::kAnatomy, Attached::kRace}) {
    for (std::thread::id id : section_threads(a))
      EXPECT_NE(id, caller) << "observer " << static_cast<int>(a);
  }
  for (Attached a : {Attached::kTracer, Attached::kProf, Attached::kSight}) {
    for (std::thread::id id : section_threads(a))
      EXPECT_EQ(id, caller) << "observer " << static_cast<int>(a);
  }
}

}  // namespace
}  // namespace ptb
