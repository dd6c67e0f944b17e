// Tests for ptb::anatomy — the exact speedup-loss ledger: the tiling
// invariant sum(categories) == p * T_p across the full algorithm × platform
// matrix, the SPACE zero-lock-loss guarantee, bit-identity of ledgered runs
// (alone and stacked with race + prof + sight), a hand-computed two-processor
// waterfall on the ideal platform, the anatomy JSON, and the metrics bridge.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "anatomy/sweep.hpp"
#include "harness/experiment.hpp"
#include "json_checker.hpp"
#include "platform/spec.hpp"
#include "sim/sim_rt.hpp"

namespace ptb {
namespace {

using anatomy::Category;
using anatomy::Collector;
using anatomy::Ledger;
using anatomy::Waterfall;
using testutil::JsonChecker;

ExperimentSpec anatomy_spec(const char* platform, Algorithm alg, int n, int nprocs) {
  ExperimentSpec spec;
  spec.platform = platform;
  spec.algorithm = alg;
  spec.n = n;
  spec.nprocs = nprocs;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;
  spec.anatomy = true;
  return spec;
}

double cell_sum(const Ledger& led, int p, Phase ph) {
  double t = 0.0;
  for (int c = 0; c < anatomy::kNumCategories; ++c)
    t += led.cell_ns(p, ph, static_cast<Category>(c));
  return t;
}

// --- the exact-ledger invariant over the full matrix ---

// The tentpole guarantee: on every (algorithm, platform) cell, every virtual
// cycle of every processor lands in exactly one category — the ledger tiles
// p * T_p bit-exactly, per phase and in total — and its categories equal the
// metrics registry's time.* / sync.* sums exactly.
TEST(AnatomyLedger, ExactAcrossTheAlgorithmPlatformMatrix) {
  for (const char* platform : {"ideal", "challenge", "origin2000", "paragon",
                               "typhoon0_hlrc", "typhoon0_sc", "numa2020",
                               "simt2020"}) {
    for (Algorithm alg : all_algorithms()) {
      ExperimentRunner runner;
      const ExperimentResult r = runner.run(anatomy_spec(platform, alg, 600, 4));
      const std::string cfg = std::string(platform) + "/" + algorithm_name(alg);
      ASSERT_TRUE(r.anatomy.enabled) << cfg;
      ASSERT_EQ(r.anatomy.nprocs, 4) << cfg;
      // Exact double equality, not near: all terms are integer-valued ns.
      EXPECT_EQ(r.anatomy.total_ns, r.run.total_ns) << cfg;
      EXPECT_EQ(r.anatomy.sum_ns(), 4.0 * r.anatomy.total_ns) << cfg;
      for (int ph = 0; ph < kNumPhases; ++ph) {
        if (ph == static_cast<int>(Phase::kOther)) continue;
        const auto phase = static_cast<Phase>(ph);
        double phase_total = 0.0;
        for (int p = 0; p < 4; ++p) {
          phase_total += cell_sum(r.anatomy, p, phase);
          EXPECT_GE(r.anatomy.cell_ns(p, phase, Category::kBusy), 0.0)
              << cfg << " proc " << p << " " << phase_name(phase);
        }
        EXPECT_EQ(phase_total, 4.0 * r.anatomy.phase_ns[static_cast<std::size_t>(ph)])
            << cfg << " " << phase_name(phase);
      }
      // The ledger and the metrics registry (ingest_run_metrics) read the
      // same per-(proc, phase) accumulators on two code paths, so their
      // busy / memory / lock / barrier totals agree to the last ns.
      double phase_ns = 0.0, mem_ns = 0.0, lock_ns = 0.0, barrier_ns = 0.0;
      for (int ph = 0; ph < kNumPhases; ++ph) {
        if (ph == static_cast<int>(Phase::kOther)) continue;
        const trace::Labels f{{"phase", phase_name(static_cast<Phase>(ph))}};
        phase_ns += r.metrics.sum("time.phase_ns", f);
        mem_ns += r.metrics.sum("time.mem_stall_ns", f);
        lock_ns += r.metrics.sum("sync.lock_wait_ns", f);
        barrier_ns += r.metrics.sum("sync.barrier_wait_ns", f);
      }
      const Ledger& led = r.anatomy;
      const double led_mem_ns =
          led.category_ns(Category::kMemLocal) + led.category_ns(Category::kMemRemote);
      EXPECT_EQ(led_mem_ns, mem_ns) << cfg;
      EXPECT_EQ(led.category_ns(Category::kLockWait), lock_ns) << cfg;
      EXPECT_EQ(led.category_ns(Category::kBarrierWait), barrier_ns) << cfg;
      EXPECT_EQ(led.category_ns(Category::kBusy), phase_ns - mem_ns - lock_ns - barrier_ns)
          << cfg;
    }
  }
}

// --- the SPACE claim ---

// SPACE builds each processor's subtree in its own spatial region without
// tree locks, so its ledger carries zero lock-wait cycles — whole run, every
// phase. ORIG (insertion through the shared upper tree) is the contrast.
TEST(AnatomyLedger, SpaceLedgersZeroLockLossCycles) {
  ExperimentRunner runner;
  const ExperimentResult space =
      runner.run(anatomy_spec("challenge", Algorithm::kSpace, 2048, 4));
  ASSERT_TRUE(space.anatomy.enabled);
  EXPECT_EQ(space.anatomy.category_ns(Category::kLockWait), 0.0);

  const ExperimentResult orig =
      runner.run(anatomy_spec("challenge", Algorithm::kOrig, 2048, 4));
  EXPECT_GT(orig.anatomy.category_ns(Category::kLockWait), 0.0);
}

// RADIX makes the same guarantee by construction — no detail::maybe_lock
// sites at all, only fetch_add — on the 1998 machines AND the 2020s ones.
TEST(AnatomyLedger, RadixLedgersZeroLockLossCycles) {
  ExperimentRunner runner;
  for (const char* platform : {"challenge", "numa2020", "simt2020"}) {
    const ExperimentResult r =
        runner.run(anatomy_spec(platform, Algorithm::kRadix, 2048, 4));
    ASSERT_TRUE(r.anatomy.enabled) << platform;
    EXPECT_EQ(r.anatomy.category_ns(Category::kLockWait), 0.0) << platform;
  }
}

// --- bit-identity ---

// The ledger is a pure observer: the collector only snapshots counters the
// simulator already keeps, so enabling it must not move a single virtual ns.
TEST(AnatomyEndToEnd, BitIdenticalWithTheLedgerAttached) {
  for (const char* platform : {"challenge", "typhoon0_hlrc"}) {
    for (Algorithm alg : all_algorithms()) {
      ExperimentSpec spec = anatomy_spec(platform, alg, 600, 4);
      ExperimentRunner runner;  // shares the cached sequential baseline
      spec.anatomy = false;
      const ExperimentResult plain = runner.run(spec);
      spec.anatomy = true;
      const ExperimentResult ledgered = runner.run(spec);
      const std::string cfg = std::string(platform) + "/" + algorithm_name(alg);
      EXPECT_EQ(first_difference(ledgered.run, plain.run), "") << cfg;
      EXPECT_EQ(ledgered.seq_seconds, plain.seq_seconds) << cfg;
      EXPECT_FALSE(plain.anatomy.enabled);
      EXPECT_TRUE(ledgered.anatomy.enabled) << cfg;
    }
  }
}

// All four observers attached together still perturb nothing, and the
// ledger stays exact with race and sight notified ahead of it.
TEST(AnatomyEndToEnd, CombinedWithRaceProfSightIsBitIdentical) {
  ExperimentSpec spec = anatomy_spec("typhoon0_hlrc", Algorithm::kOrig, 1500, 4);
  spec.anatomy = false;
  ExperimentRunner plain_runner;
  const ExperimentResult plain = plain_runner.run(spec);
  spec.anatomy = true;
  spec.race = true;
  spec.prof = true;
  spec.sight = true;
  ExperimentRunner full_runner;
  const ExperimentResult full = full_runner.run(spec);
  EXPECT_EQ(first_difference(full.run, plain.run), "");
  EXPECT_EQ(full.seq_seconds, plain.seq_seconds);
  ASSERT_TRUE(full.anatomy.enabled);
  EXPECT_EQ(full.anatomy.sum_ns(), 4.0 * full.anatomy.total_ns);
  ASSERT_TRUE(full.race.enabled);
  ASSERT_TRUE(full.profile.enabled);
  ASSERT_TRUE(full.sight.enabled);
}

// --- hand-computed two-processor fixture ---

// On the ideal platform (1 ns per work unit, zero memory/lock/barrier
// charges) the whole ledger is computable by hand. Processor p computes
// 100*(p+1) units, then both hit a barrier:
//   proc 0: 100 ns busy + 100 ns waiting for proc 1 -> 200 ns
//   proc 1: 200 ns busy                              -> 200 ns
// so T_2 = 200, busy = 300, barrier_wait = 100, and the ledger tiles
// 2 * 200 = 400 exactly. Against a one-processor reference (T_1 = 100) the
// waterfall attributes the 2*200 - 100 = 300 ns loss as 200 ns extra
// parallel work + 100 ns imbalance.
TEST(AnatomyTwoProc, HandComputedLedgerAndWaterfall) {
  const auto body = [](SimProc& rt) {
    rt.begin_phase(Phase::kTreeBuild);
    rt.compute(100.0 * (rt.self() + 1));
    rt.barrier();
  };

  SimContext ctx(PlatformSpec::ideal(), 2);
  Collector col;
  ctx.set_anatomy(&col);
  ctx.run(body);
  const Ledger led = anatomy::build_ledger(ctx.stats(), col, PlatformSpec::ideal());

  EXPECT_EQ(led.total_ns, 200.0);
  EXPECT_EQ(led.cell_ns(0, Phase::kTreeBuild, Category::kBusy), 100.0);
  EXPECT_EQ(led.cell_ns(1, Phase::kTreeBuild, Category::kBusy), 200.0);
  EXPECT_EQ(led.cell_ns(0, Phase::kTreeBuild, Category::kBarrierWait), 100.0);
  EXPECT_EQ(led.cell_ns(1, Phase::kTreeBuild, Category::kBarrierWait), 0.0);
  EXPECT_EQ(led.category_ns(Category::kBusy), 300.0);
  EXPECT_EQ(led.category_ns(Category::kMemLocal), 0.0);
  EXPECT_EQ(led.category_ns(Category::kMemRemote), 0.0);
  EXPECT_EQ(led.category_ns(Category::kLockWait), 0.0);
  EXPECT_EQ(led.category_ns(Category::kPhaseSkew), 0.0);
  EXPECT_EQ(led.imbalance_ns(), 100.0);
  EXPECT_EQ(led.sum_ns(), 400.0);

  SimContext ref_ctx(PlatformSpec::ideal(), 1);
  Collector ref_col;
  ref_ctx.set_anatomy(&ref_col);
  ref_ctx.run(body);
  const Ledger ref = anatomy::build_ledger(ref_ctx.stats(), ref_col,
                                           PlatformSpec::ideal());
  EXPECT_EQ(ref.total_ns, 100.0);

  const Waterfall w = anatomy::build_waterfall(ref, led);
  EXPECT_EQ(w.loss_ns, 300.0);
  EXPECT_EQ(w.delta[static_cast<std::size_t>(Category::kBusy)], 200.0);
  EXPECT_EQ(w.delta[static_cast<std::size_t>(Category::kBarrierWait)], 100.0);
  EXPECT_EQ(w.delta[static_cast<std::size_t>(Category::kMemLocal)], 0.0);
  EXPECT_EQ(w.delta[static_cast<std::size_t>(Category::kLockWait)], 0.0);
}

// --- sweep, JSON, metrics bridge, env plumbing ---

TEST(AnatomySweep, JsonIsWellFormedAndWaterfallCoversTheLoss) {
  ExperimentRunner runner;
  ExperimentSpec spec = anatomy_spec("challenge", Algorithm::kLocal, 600, 2);
  const anatomy::SweepResult sr = anatomy::run_anatomy_sweep(runner, spec, {2});
  ASSERT_EQ(sr.points.size(), 2u);  // the p=1 reference is prepended
  ASSERT_NE(sr.reference(), nullptr);
  EXPECT_EQ(sr.reference()->procs, 1);
  EXPECT_EQ(sr.prov.algorithm, "LOCAL");
  EXPECT_EQ(sr.prov.nbodies, 600);

  const Waterfall& w = sr.points.back().waterfall;
  ASSERT_TRUE(w.enabled);
  double delta_sum = 0.0;
  for (double d : w.delta) delta_sum += d;
  EXPECT_EQ(delta_sum, w.loss_ns);
  EXPECT_EQ(w.loss_ns, 2.0 * w.tp_ns - w.t1_ns);

  const std::string json = anatomy::anatomy_json(sr);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"anatomy\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"invariant_exact\": true"), std::string::npos);
  EXPECT_NE(json.find("\"waterfall\""), std::string::npos);
}

TEST(AnatomyMetrics, LedgerLandsInTheRegistry) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(anatomy_spec("challenge", Algorithm::kOrig, 600, 2));
  EXPECT_EQ(r.metrics.value("anatomy.total_ns", {}), r.run.total_ns);
  EXPECT_EQ(r.metrics.value("anatomy.procs", {}), 2.0);
  double total = 0.0;
  for (int c = 0; c < anatomy::kNumCategories; ++c)
    total += r.metrics.value(
        "anatomy.category_ns",
        {{"category", anatomy::category_name(static_cast<Category>(c))}});
  EXPECT_EQ(total, 2.0 * r.run.total_ns);
}

TEST(AnatomyPath, FlagBeatsEnvAndEnvEnables) {
  ::setenv("PTB_ANATOMY", "/tmp/env_anatomy.json", 1);
  EXPECT_EQ(anatomy::anatomy_path_from("/tmp/flag.json"), "/tmp/flag.json");
  EXPECT_EQ(anatomy::anatomy_path_from(""), "/tmp/env_anatomy.json");
  EXPECT_TRUE(anatomy::default_anatomy_enabled());
  ::setenv("PTB_ANATOMY", "0", 1);
  EXPECT_FALSE(anatomy::default_anatomy_enabled());
  ::unsetenv("PTB_ANATOMY");
  EXPECT_EQ(anatomy::anatomy_path_from(""), "");
  EXPECT_FALSE(anatomy::default_anatomy_enabled());
}

}  // namespace
}  // namespace ptb
