// The memory system's fast path (sealed dispatch, per-processor line
// lookasides, span-coalesced charging) is an optimization, not a model
// change: with PTB_MEM_SLOWPATH=1 the simulator falls back to the reference
// per-access path — virtual dispatch through the MemModel base, no
// lookasides, spans decayed to per-element calls — and the two must agree
// bit-for-bit on every virtual time and every memory-event counter for every
// algorithm on every platform. That oracle is what licenses the fast path.
//
// As in test_sim_backend_equiv.cpp, virtual times are a function of the
// actual addresses of the registered regions, so both runs share one
// AppState with a snapshot/restore between them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "mem/model.hpp"
#include "prof/profile.hpp"
#include "sim/sim_rt.hpp"
#include "support/aligned.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/partree.hpp"
#include "treebuild/radix.hpp"
#include "treebuild/space.hpp"
#include "treebuild/update.hpp"

namespace ptb {
namespace {

/// Scoped PTB_MEM_SLOWPATH toggle: models sample the flag at construction,
/// so flipping it between SimContext constructions selects the path.
struct ScopedSlowpath {
  explicit ScopedSlowpath(bool on) {
    if (on)
      ::setenv("PTB_MEM_SLOWPATH", "1", 1);
    else
      ::unsetenv("PTB_MEM_SLOWPATH");
  }
  ~ScopedSlowpath() { ::unsetenv("PTB_MEM_SLOWPATH"); }
};

struct PathRun {
  RunResult run;
  std::vector<std::uint64_t> clocks;
  std::vector<MemProcStats> mem;
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
    ScopedSlowpath env(slow);
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
    }
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
}

constexpr int kBodies = 2048;
constexpr int kProcs = 8;

struct EquivCase {
  Algorithm alg;
  const char* platform;
};

class MemPathEquivP : public ::testing::TestWithParam<EquivCase> {};

TEST_P(MemPathEquivP, FastAndSlowPathsBitIdentical) {
  const EquivCase c = GetParam();
  const auto runs = run_algorithm(c.alg, c.platform, kBodies, kProcs);
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

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllPlatforms, MemPathEquivP,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<EquivCase>& info) {
                           return std::string(algorithm_name(info.param.alg)) + "_" +
                                  info.param.platform;
                         });

// The observers must not perturb the equivalence: the race detector reads
// every ordered charge, and the profiler decays spans to per-element charges
// to keep per-access attribution — both still have to match the slow-path
// oracle exactly.
TEST(MemPathEquiv, IdenticalUnderRaceDetector) {
  RunOpts opts;
  opts.race = true;
  const auto runs = run_algorithm(Algorithm::kSpace, "challenge", kBodies, kProcs, opts);
  expect_identical(runs[0], runs[1]);
}

TEST(MemPathEquiv, IdenticalUnderProfiler) {
  RunOpts opts;
  opts.prof = true;
  const auto runs = run_algorithm(Algorithm::kPartree, "typhoon0_hlrc", kBodies, kProcs, opts);
  expect_identical(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// Unit-level span contract: on_read_shared_span must replicate the
// per-element on_read_shared loop — counters, cost, and cache state — on
// every model, including the fallback cases (unregistered memory, runs
// reaching past the end of a region).

struct SpanHarness {
  PlatformSpec spec;
  std::unique_ptr<MemModel> span_m;
  std::unique_ptr<MemModel> scalar_m;
  std::vector<double> arena;  // registered region
  std::vector<double> priv;   // unregistered memory

  explicit SpanHarness(const PlatformSpec& s, int nprocs = 4)
      : spec(s), arena(4096), priv(64) {
    span_m = make_mem_model(spec, nprocs);
    scalar_m = make_mem_model(spec, nprocs);
    for (MemModel* m : {span_m.get(), scalar_m.get()}) {
      m->register_region(arena.data(), arena.size() * sizeof(double),
                         HomePolicy::kInterleavedBlock, 0, "arena");
    }
  }

  /// Charges the same access pattern through both models: span-coalesced on
  /// one, the per-element reference loop on the other.
  void check(const void* p, std::size_t n, std::size_t stride, std::size_t count) {
    const std::uint64_t span_cost = span_m->on_read_shared_span(0, p, n, stride, count);
    std::uint64_t scalar_cost = 0;
    const char* a = static_cast<const char*>(p);
    for (std::size_t i = 0; i < count; ++i)
      scalar_cost += scalar_m->on_read_shared(0, a + i * stride, n);
    EXPECT_EQ(span_cost, scalar_cost);
    for (const MemCounterDesc& c : kMemCounters) {
      SCOPED_TRACE(c.metric);
      EXPECT_EQ(span_m->proc_stats(0).*(c.field), scalar_m->proc_stats(0).*(c.field));
    }
  }
};

class SpanVsScalar : public ::testing::TestWithParam<const char*> {};

TEST_P(SpanVsScalar, InRegionRun) {
  SpanHarness h(PlatformSpec::by_name(GetParam()));
  h.check(h.arena.data() + 7, 48, sizeof(double) * 6, 50);
  // Re-walk the same run: exercises the now-warm cache/lookaside state.
  h.check(h.arena.data() + 7, 48, sizeof(double) * 6, 50);
}

TEST_P(SpanVsScalar, RunCrossingRegionEnd) {
  SpanHarness h(PlatformSpec::by_name(GetParam()));
  // Starts inside the region but the last elements fall off its end: the
  // span path must take the per-element fallback, whose later elements
  // resolve as unregistered, exactly like the scalar loop.
  const std::size_t tail = h.arena.size() - 8;
  h.check(h.arena.data() + tail, sizeof(double), sizeof(double) * 4, 8);
}

TEST_P(SpanVsScalar, UnregisteredRun) {
  SpanHarness h(PlatformSpec::by_name(GetParam()));
  h.check(h.priv.data(), sizeof(double), sizeof(double), 16);
}

TEST_P(SpanVsScalar, SingleElementAndEmpty) {
  SpanHarness h(PlatformSpec::by_name(GetParam()));
  h.check(h.arena.data(), 48, sizeof(double), 1);
  h.check(h.arena.data(), 48, sizeof(double), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, SpanVsScalar,
                         ::testing::Values("ideal", "challenge", "origin2000",
                                           "typhoon0_hlrc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Lookaside invalidation: registering a region must flush every processor's
// lookaside, including cached negative (not-shared) entries.

TEST(LineLookaside, RegisterRegionFlushesNegativeEntries) {
  auto m = make_mem_model(PlatformSpec::challenge(), 2);
  std::vector<double> a(512), b(512);
  m->register_region(a.data(), a.size() * sizeof(double), HomePolicy::kInterleavedBlock,
                     0, "a");
  // Cache a negative entry for b's line: unregistered reads charge nothing.
  EXPECT_EQ(m->on_read_shared(0, b.data(), 8), 0u);
  EXPECT_EQ(m->proc_stats(0).reads, 0u);
  // Now b becomes shared. A stale negative entry would keep reads at 0.
  m->register_region(b.data(), b.size() * sizeof(double), HomePolicy::kInterleavedBlock,
                     0, "b");
  m->on_read_shared(0, b.data(), 8);
  EXPECT_EQ(m->proc_stats(0).reads, 1u);
}

// A flush skips lookasides nobody filled since their last flush; one that
// was filled again after a flush must still be cleared by the next
// registration.
TEST(LineLookaside, RefilledAfterAFlushIsFlushedAgain) {
  auto m = make_mem_model(PlatformSpec::challenge(), 2);
  AlignedVec<double> a(512), b(512), c(512);
  m->register_region(a.data(), a.size() * sizeof(double), HomePolicy::kInterleavedBlock,
                     0, "a");
  EXPECT_EQ(m->on_read_shared(1, b.data(), 8), 0u);  // negative entry for b
  m->register_region(c.data(), c.size() * sizeof(double), HomePolicy::kInterleavedBlock,
                     0, "c");
  EXPECT_EQ(m->on_read_shared(1, b.data(), 8), 0u);  // filled again after the flush
  m->register_region(b.data(), b.size() * sizeof(double), HomePolicy::kInterleavedBlock,
                     0, "b");
  EXPECT_GT(m->on_read_shared(1, b.data(), 8), 0u);
  EXPECT_EQ(m->proc_stats(1).reads, 1u);
  EXPECT_EQ(m->proc_stats(1).read_misses, 1u);
}

TEST(LineLookaside, ResetFlushes) {
  auto m = make_mem_model(PlatformSpec::challenge(), 2);
  std::vector<double> a(512);
  m->register_region(a.data(), a.size() * sizeof(double), HomePolicy::kInterleavedBlock,
                     0, "a");
  m->on_read_shared(0, a.data(), 8);
  EXPECT_EQ(m->proc_stats(0).reads, 1u);
  m->reset();
  // A stale positive entry would index protocol state that no longer exists.
  EXPECT_EQ(m->on_read_shared(0, a.data(), 8), 0u);
  EXPECT_EQ(m->proc_stats(0).reads, 0u);
}

}  // namespace
}  // namespace ptb
