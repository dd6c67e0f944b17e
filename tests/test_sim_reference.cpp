// Differential property test for the DES scheduler: random synchronization
// programs (compute / unordered compute / lock / unlock / barrier) are
// executed both by SimContext — on the fiber backend, and on the parallel
// backend with one and with four host workers — and by a simple sequential
// reference implementation of the same virtual-time semantics that shares no
// code with the scheduler; final clocks must agree exactly. The unordered
// sections exercise the parallel backend's section launch/drain and its
// barrier-departure lookahead; to the reference they are plain compute.
#include <gtest/gtest.h>

#include <map>
#include <queue>

#include "sim/sim_rt.hpp"
#include "support/rng.hpp"

namespace ptb {
namespace {

struct Op {
  enum Kind { kCompute, kUnordered, kLock, kUnlock, kBarrier } kind;
  double amount = 0.0;  // compute units
  int lock_id = 0;
};

using Script = std::vector<Op>;

/// Generates one barrier-aligned random program per processor: `rounds`
/// barrier rounds, each with random compute and balanced lock/unlock pairs
/// over `nlocks` locks (critical sections may contain compute). Each compute
/// is a plain or an unordered one at random.
std::vector<Script> random_programs(Rng& rng, int nprocs, int rounds, int nlocks) {
  std::vector<Script> scripts(static_cast<std::size_t>(nprocs));
  const auto compute = [&rng](std::uint64_t max_units) {
    const Op::Kind kind = rng.next_below(2) == 0 ? Op::kCompute : Op::kUnordered;
    return Op{kind, static_cast<double>(1 + rng.next_below(max_units)), 0};
  };
  for (auto& s : scripts) {
    for (int r = 0; r < rounds; ++r) {
      const int actions = 1 + static_cast<int>(rng.next_below(6));
      for (int a = 0; a < actions; ++a) {
        s.push_back(compute(500));
        if (rng.next_below(2) == 0) {
          const int lk = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nlocks)));
          s.push_back(Op{Op::kLock, 0, lk});
          s.push_back(compute(300));
          s.push_back(Op{Op::kUnlock, 0, lk});
        }
      }
      s.push_back(Op{Op::kBarrier, 0, 0});
    }
  }
  return scripts;
}

/// Sequential reference implementation of the scheduler semantics: execute
/// the globally minimum-clock runnable processor's next operation (ties by
/// id); locks grant FIFO-by-request-time; barriers release at the max
/// arrival clock; an unordered section is plain compute. Protocol costs are
/// zero (ideal platform).
std::vector<std::uint64_t> reference_run(const std::vector<Script>& scripts) {
  const int np = static_cast<int>(scripts.size());
  struct LockRef {
    bool held = false;
    std::vector<std::pair<std::uint64_t, int>> waiters;
  };
  std::vector<std::uint64_t> clock(static_cast<std::size_t>(np), 0);
  std::vector<std::size_t> pc(static_cast<std::size_t>(np), 0);
  enum class St { kRun, kLockWait, kBarrier, kDone };
  std::vector<St> state(static_cast<std::size_t>(np), St::kRun);
  std::map<int, LockRef> locks;
  int in_barrier = 0;

  auto alive = [&] {
    int c = 0;
    for (auto s : state)
      if (s != St::kDone) ++c;
    return c;
  };

  for (;;) {
    // Barrier release?
    if (in_barrier > 0 && in_barrier == alive()) {
      std::uint64_t mx = 0;
      for (int q = 0; q < np; ++q)
        if (state[static_cast<std::size_t>(q)] == St::kBarrier)
          mx = std::max(mx, clock[static_cast<std::size_t>(q)]);
      for (int q = 0; q < np; ++q)
        if (state[static_cast<std::size_t>(q)] == St::kBarrier) {
          clock[static_cast<std::size_t>(q)] = mx;
          state[static_cast<std::size_t>(q)] = St::kRun;
        }
      in_barrier = 0;
    }
    // Pick the min-clock runnable processor.
    int p = -1;
    for (int q = 0; q < np; ++q) {
      if (state[static_cast<std::size_t>(q)] != St::kRun) continue;
      if (p < 0 || clock[static_cast<std::size_t>(q)] < clock[static_cast<std::size_t>(p)])
        p = q;
    }
    if (p < 0) break;  // everyone blocked (barrier handled above) or done
    const auto pi = static_cast<std::size_t>(p);
    if (pc[pi] >= scripts[pi].size()) {
      state[pi] = St::kDone;
      continue;
    }
    const Op op = scripts[pi][pc[pi]++];
    switch (op.kind) {
      case Op::kCompute:
      case Op::kUnordered:
        clock[pi] += static_cast<std::uint64_t>(op.amount);  // ns_per_work = 1
        break;
      case Op::kLock: {
        LockRef& l = locks[op.lock_id];
        if (!l.held) {
          l.held = true;
        } else {
          l.waiters.emplace_back(clock[pi], p);
          state[pi] = St::kLockWait;
        }
        break;
      }
      case Op::kUnlock: {
        LockRef& l = locks[op.lock_id];
        if (l.waiters.empty()) {
          l.held = false;
        } else {
          auto best = std::min_element(l.waiters.begin(), l.waiters.end());
          const int w = best->second;
          l.waiters.erase(best);
          clock[static_cast<std::size_t>(w)] =
              std::max(clock[static_cast<std::size_t>(w)], clock[pi]);
          state[static_cast<std::size_t>(w)] = St::kRun;
        }
        break;
      }
      case Op::kBarrier:
        state[pi] = St::kBarrier;
        ++in_barrier;
        break;
    }
  }
  return clock;
}

std::vector<std::uint64_t> simulated_run(const std::vector<Script>& scripts,
                                         SimBackend backend, int workers) {
  const int np = static_cast<int>(scripts.size());
  SimContext ctx(PlatformSpec::ideal(), np, backend);
  ctx.set_workers(workers);
  static int lock_objs[64];
  ctx.run([&](SimProc& rt) {
    for (const Op& op : scripts[static_cast<std::size_t>(rt.self())]) {
      switch (op.kind) {
        case Op::kCompute:
          rt.compute(op.amount);
          break;
        case Op::kUnordered:
          rt.unordered([&rt, &op] { rt.compute(op.amount); });
          break;
        case Op::kLock:
          rt.lock(&lock_objs[op.lock_id]);
          break;
        case Op::kUnlock:
          rt.unlock(&lock_objs[op.lock_id]);
          break;
        case Op::kBarrier:
          rt.barrier();
          break;
      }
    }
  });
  std::vector<std::uint64_t> clocks;
  for (int p = 0; p < np; ++p) clocks.push_back(ctx.clock_ns(p));
  return clocks;
}

class SimReferenceP : public ::testing::TestWithParam<int> {};

struct BackendConfig {
  SimBackend backend;
  int workers;
};

// Each backend is passed explicitly, so the test covers both whatever
// PTB_SIM_BACKEND says. The name predates the removal of the thread backend;
// it is kept so the test IDs stay stable.
TEST_P(SimReferenceP, ThreadedMatchesSequentialReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const int np = 2 + static_cast<int>(rng.next_below(7));
  const int rounds = 1 + static_cast<int>(rng.next_below(4));
  const int nlocks = 1 + static_cast<int>(rng.next_below(5));
  const auto scripts = random_programs(rng, np, rounds, nlocks);
  const auto expect = reference_run(scripts);
  for (const BackendConfig& cfg : {BackendConfig{SimBackend::kFibers, 1},
                                   BackendConfig{SimBackend::kParallel, 1},
                                   BackendConfig{SimBackend::kParallel, 4}}) {
    const auto got = simulated_run(scripts, cfg.backend, cfg.workers);
    EXPECT_EQ(expect, got) << to_string(cfg.backend) << " with " << cfg.workers
                           << " worker(s): np=" << np << " rounds=" << rounds
                           << " nlocks=" << nlocks;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SimReferenceP, ::testing::Range(0, 30));

}  // namespace
}  // namespace ptb
