// The memory system's fast path (sealed dispatch, per-processor line
// lookasides, span-coalesced charging) is an optimization, not a model
// change: with PTB_MEM_SLOWPATH=1 the simulator falls back to the reference
// per-access path — virtual dispatch through the MemModel base, no
// lookasides, spans decayed to per-element calls — and the two must agree
// bit-for-bit on the whole RunResult (every virtual time and every
// memory-event counter) for every algorithm on every platform. That oracle
// is what licenses the fast path. Both paths run over one AppState
// (tests/rerun.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/app.hpp"
#include "mem/model.hpp"
#include "prof/profile.hpp"
#include "rerun.hpp"
#include "sim/sim_rt.hpp"
#include "support/aligned.hpp"

namespace ptb {
namespace {

constexpr int kBodies = 2048;
constexpr int kProcs = 8;

struct RunOpts {
  bool race = false;
  bool prof = false;
};

/// The fast path's run and the slow path's, in that order. Models sample
/// PTB_MEM_SLOWPATH at construction, so the flag selects each context's path.
std::vector<RunResult> run_paths(Algorithm alg, const std::string& platform,
                                 const RunOpts& opts = {}) {
  const RunConfig rc{/*warmup_steps=*/0, /*measured_steps=*/1};
  const auto run = [&](std::size_t slow, AppState& st, auto& builder) {
    const ScopedEnvFlag env("PTB_MEM_SLOWPATH", slow == 1);
    SimContext ctx(PlatformSpec::by_name(platform), kProcs, default_sim_backend(),
                   /*race_detect=*/opts.race);
    prof::Recorder rec;
    if (opts.prof) ctx.set_profiler(&rec);
    return run_simulation(ctx, st, builder, rc);
  };
  return rerun(alg, kBodies, kProcs, 2, run);
}

struct EquivCase {
  Algorithm alg;
  const char* platform;
};

class MemPathEquivP : public ::testing::TestWithParam<EquivCase> {};

TEST_P(MemPathEquivP, FastAndSlowPathsBitIdentical) {
  const EquivCase c = GetParam();
  const auto runs = run_paths(c.alg, c.platform);
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
  const auto runs = run_paths(Algorithm::kSpace, "challenge", opts);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
}

TEST(MemPathEquiv, IdenticalUnderProfiler) {
  RunOpts opts;
  opts.prof = true;
  const auto runs = run_paths(Algorithm::kPartree, "typhoon0_hlrc", opts);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
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
