// The batched interaction-list force kernel (src/bh/forcekernel.*) is an
// optimization, not a model change: with PTB_FORCE_SLOWPATH=1 the force
// phase falls back to the reference scalar walk — accelerations accumulated
// inside the tree traversal, one compute charge per interaction — and the
// two paths must agree bit-for-bit on the whole RunResult (every virtual
// time, memory-event counter and interaction count, and the final bodies)
// for every algorithm on every platform. That oracle is what licenses the
// gather/evaluate split (docs/PERF.md, "The interaction-list oracle"). Both
// paths run over one AppState (tests/rerun.hpp).
//
// Default builds: the sequential fold in evaluate reproduces the walk's
// accumulation order, so the accelerations themselves match to the bit.
// (-DPTB_NATIVE_OPT may contract differently; the equivalence tests run on
// the default build, see docs/PERF.md.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bh/forcekernel.hpp"
#include "harness/app.hpp"
#include "prof/profile.hpp"
#include "rerun.hpp"
#include "sim/sim_rt.hpp"

namespace ptb {
namespace {

constexpr int kBodies = 2048;
constexpr int kProcs = 8;

struct RunOpts {
  bool race = false;
  bool prof = false;
};

/// The kernel's run and the scalar walk's, in that order. The flag is
/// sampled per force phase (bh::force_slowpath_enabled is a live getenv).
std::vector<RunResult> run_paths(Algorithm alg, const std::string& platform,
                                 const RunOpts& opts = {}) {
  const RunConfig rc{/*warmup_steps=*/0, /*measured_steps=*/1};
  const auto run = [&](std::size_t slow, AppState& st, auto& builder) {
    const ScopedEnvFlag env("PTB_FORCE_SLOWPATH", slow == 1);
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

class ForcePathEquivP : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ForcePathEquivP, KernelAndWalkBitIdentical) {
  const EquivCase c = GetParam();
  const auto runs = run_paths(c.alg, c.platform);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
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
  const auto runs = run_paths(Algorithm::kSpace, "challenge", opts);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
}

TEST(ForcePathEquiv, IdenticalUnderProfiler) {
  RunOpts opts;
  opts.prof = true;
  const auto runs = run_paths(Algorithm::kPartree, "typhoon0_hlrc", opts);
  EXPECT_EQ(first_difference(runs[0], runs[1]), "");
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
