// ExperimentRunner: speedups, baselines, caching, and the headline paper
// shapes at test scale.
#include <gtest/gtest.h>

#include <utility>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace ptb {
namespace {

ExperimentSpec spec(const std::string& platform, Algorithm alg, int n, int np) {
  ExperimentSpec s;
  s.platform = platform;
  s.algorithm = alg;
  s.n = n;
  s.nprocs = np;
  s.warmup_steps = 1;
  s.measured_steps = 1;
  return s;
}

TEST(Experiment, SpeedupsPositiveAndBounded) {
  ExperimentRunner runner;
  const ExperimentResult r = runner.run(spec("origin2000", Algorithm::kLocal, 2000, 8));
  EXPECT_GT(r.speedup, 1.0);
  EXPECT_LE(r.speedup, 8.0);
  EXPECT_GT(r.seq_seconds, 0.0);
  EXPECT_GT(r.treebuild_fraction, 0.0);
  EXPECT_LT(r.treebuild_fraction, 1.0);
}

TEST(Experiment, BaselineCachedAcrossAlgorithms) {
  // One p=1 baseline serves every builder and every backend: it always runs
  // on fibers, and its cache key names neither.
  ExperimentRunner runner;
  const auto a = runner.run(spec("origin2000", Algorithm::kLocal, 1500, 4));
  const auto b = runner.run(spec("origin2000", Algorithm::kSpace, 1500, 4));
  ExperimentSpec par = spec("origin2000", Algorithm::kSpace, 1500, 4);
  par.backend = SimBackend::kParallel;
  par.sim_workers = 2;
  const auto c = runner.run(par);
  EXPECT_DOUBLE_EQ(a.seq_seconds, b.seq_seconds);
  EXPECT_DOUBLE_EQ(a.seq_seconds, c.seq_seconds);
}

TEST(Experiment, BaselineCacheKeyCoversSofteningAndTimeStep) {
  // The p=1 run reads the softening length and the time-step, so a spec that
  // differs only in one of them must get its own baseline from a runner that
  // already cached the default spec's. (max_level is keyed too; at this size
  // it cannot change the tree without tripping the leaf-capacity check.)
  const ExperimentSpec base = spec("origin2000", Algorithm::kSpace, 1000, 4);
  ExperimentSpec dt = base;
  dt.bh.dt = 0.05;
  ExperimentSpec eps = base;
  eps.bh.eps = 0.2;
  ExperimentRunner shared;
  shared.run(base);
  for (const auto& [name, s] : {std::pair{"dt", dt}, std::pair{"eps", eps}}) {
    SCOPED_TRACE(name);
    const ExperimentResult cached = shared.run(s);
    ExperimentRunner fresh;
    const ExperimentResult alone = fresh.run(s);
    EXPECT_EQ(cached.seq_seconds, alone.seq_seconds);
    EXPECT_EQ(cached.treebuild_seq_seconds, alone.treebuild_seq_seconds);
  }
}

TEST(Experiment, OverlappedBaselineChangesNoVirtualNumber) {
  // run() simulates the p=1 baseline on a second host thread while the
  // parallel run proceeds. Any process-global state the two simulations
  // shared would show as a difference from the same run whose baseline was
  // cached beforehand, i.e. ran alone. Covers both backends, bare and with
  // every observer attached.
  struct Case {
    SimBackend backend;
    bool observed;
  };
  for (const Case c :
       {Case{SimBackend::kFibers, false}, Case{SimBackend::kFibers, true},
        Case{SimBackend::kParallel, false}, Case{SimBackend::kParallel, true}}) {
    SCOPED_TRACE(testing::Message() << to_string(c.backend)
                                    << (c.observed ? " observed" : " bare"));
    ExperimentSpec s = spec("paragon", Algorithm::kOrig, 512, 4);
    s.backend = c.backend;
    s.sim_workers = 2;
    s.race = s.prof = s.sight = s.anatomy = c.observed;
    trace::Tracer overlapped_trace(s.nprocs);
    trace::Tracer alone_trace(s.nprocs);

    ExperimentRunner fresh;
    if (c.observed) s.tracer = &overlapped_trace;
    const ExperimentResult overlapped = fresh.run(s);

    ExperimentRunner primed;
    primed.sequential_seconds(s.platform, s.n, s.bh, s.warmup_steps, s.measured_steps);
    if (c.observed) s.tracer = &alone_trace;
    const ExperimentResult alone = primed.run(s);

    EXPECT_EQ(overlapped.seq_seconds, alone.seq_seconds);
    EXPECT_EQ(overlapped.treebuild_seq_seconds, alone.treebuild_seq_seconds);
    EXPECT_EQ(overlapped.par_seconds, alone.par_seconds);
    EXPECT_EQ(overlapped.run.phase_ns, alone.run.phase_ns);
    for (const MemCounterDesc& m : kMemCounters)
      EXPECT_EQ(overlapped.mem.*m.field, alone.mem.*m.field) << m.metric;
    EXPECT_EQ(overlapped.treebuild_locks_per_proc, alone.treebuild_locks_per_proc);
    EXPECT_EQ(overlapped.treebuild_locks_total, alone.treebuild_locks_total);
    EXPECT_GT(overlapped.treebuild_locks_total, 0u);
    if (c.observed) {
      EXPECT_EQ(overlapped_trace.chrome_json(), alone_trace.chrome_json());
      EXPECT_TRUE(overlapped.race.enabled);
      EXPECT_EQ(overlapped.race.races, alone.race.races);
      EXPECT_EQ(overlapped.race.checked_reads, alone.race.checked_reads);
      EXPECT_EQ(prof::profile_json(overlapped.profile), prof::profile_json(alone.profile));
      EXPECT_EQ(sight::sight_json(overlapped.sight), sight::sight_json(alone.sight));
      EXPECT_EQ(overlapped.anatomy.total_ns, alone.anatomy.total_ns);
    }
  }
}

TEST(Experiment, SequentialTimeScalesSuperlinearly) {
  // O(N log N): doubling N should more than double the time.
  ExperimentRunner runner;
  BHConfig bh;
  const double t1 = runner.sequential_seconds("origin2000", 1000, bh, 1, 1);
  const double t2 = runner.sequential_seconds("origin2000", 2000, bh, 1, 1);
  EXPECT_GT(t2, 2.0 * t1);
  EXPECT_LT(t2, 4.0 * t1);
}

TEST(Experiment, SequentialPlatformOrdering) {
  // Paper Table 1: Origin < Challenge < Typhoon-0 < Paragon.
  ExperimentRunner runner;
  BHConfig bh;
  const double origin = runner.sequential_seconds("origin2000", 1000, bh, 1, 1);
  const double challenge = runner.sequential_seconds("challenge", 1000, bh, 1, 1);
  const double typhoon = runner.sequential_seconds("typhoon0_hlrc", 1000, bh, 1, 1);
  const double paragon = runner.sequential_seconds("paragon", 1000, bh, 1, 1);
  EXPECT_LT(origin, challenge);
  EXPECT_LT(challenge, typhoon);
  EXPECT_LT(typhoon, paragon);
}

TEST(Experiment, LockCountsFallAcrossAlgorithms) {
  // Paper Fig. 15: ORIG -> LOCAL -> UPDATE -> PARTREE -> SPACE lock counts
  // fall off "very quickly". (UPDATE's advantage needs slow motion and
  // multiple steps, so here we check the rebuild algorithms + SPACE == 0.)
  ExperimentRunner runner;
  std::vector<std::uint64_t> locks;
  for (Algorithm alg :
       {Algorithm::kOrig, Algorithm::kLocal, Algorithm::kPartree, Algorithm::kSpace}) {
    locks.push_back(runner.run(spec("origin2000", alg, 2000, 8)).treebuild_locks_total);
  }
  // ORIG and LOCAL both lock per inserted particle, so they are near-equal;
  // PARTREE locks per merged subtree; SPACE never locks.
  EXPECT_NEAR(static_cast<double>(locks[0]), static_cast<double>(locks[1]),
              0.05 * static_cast<double>(locks[0]));
  EXPECT_GT(locks[1], 2 * locks[2]);
  EXPECT_GT(locks[2], locks[3]);
  EXPECT_EQ(locks[3], 0u);
}

TEST(Experiment, SvmRankingSpaceFirstPartreeSecond) {
  // Paper Figs 12/13: the SVM ranking is SPACE > PARTREE > (ORIG slowdown).
  // Use a paper-scale-ish size: at toy sizes SPACE's fixed partitioning
  // cost is not yet amortized.
  ExperimentRunner runner;
  const auto orig = runner.run(spec("typhoon0_hlrc", Algorithm::kOrig, 8192, 16));
  const auto local = runner.run(spec("typhoon0_hlrc", Algorithm::kLocal, 8192, 16));
  const auto partree = runner.run(spec("typhoon0_hlrc", Algorithm::kPartree, 8192, 16));
  const auto space = runner.run(spec("typhoon0_hlrc", Algorithm::kSpace, 8192, 16));
  // SPACE and PARTREE trade the lead within ~1% at 8k (SPACE pulls ahead as
  // n grows — see bench_fig13); both must clearly beat the
  // lock-per-particle algorithms, and ORIG must be last.
  EXPECT_GT(space.speedup, 0.97 * partree.speedup);
  EXPECT_GT(space.speedup, 1.2 * local.speedup);
  EXPECT_GT(partree.speedup, 1.2 * local.speedup);
  EXPECT_GT(local.speedup, orig.speedup);
  // And the paper's headline: the lock-heavy build makes ORIG's tree-build
  // share explode while SPACE's stays small.
  EXPECT_GT(orig.treebuild_fraction, 2.0 * space.treebuild_fraction);
}

TEST(Experiment, MemStatsPopulated) {
  ExperimentRunner runner;
  const auto r = runner.run(spec("paragon", Algorithm::kLocal, 1000, 4));
  EXPECT_GT(r.mem.page_faults, 0u);
  EXPECT_GT(r.mem.twins, 0u);
  EXPECT_GT(r.mem.diffs, 0u);
  EXPECT_GT(r.mem.notices_received, 0u);
  const auto d = runner.run(spec("origin2000", Algorithm::kLocal, 1000, 4));
  EXPECT_GT(d.mem.read_misses, 0u);
  EXPECT_GT(d.mem.invalidations_sent, 0u);
}

TEST(Experiment, ForceInteractionMetricsLabeled) {
  // forces.interactions{kind=cell|body,proc=p}: every processor gets both
  // kind cells, their per-kind sums match the headline interaction total
  // (st.interactions = cells + bodies per proc), and summarize() surfaces
  // the split.
  ExperimentRunner runner;
  const ExperimentSpec s = spec("origin2000", Algorithm::kSpace, 2000, 8);
  const auto r = runner.run(s);
  double cells = 0.0;
  double bodies = 0.0;
  for (int p = 0; p < s.nprocs; ++p) {
    trace::Labels lc = trace::proc_label(p);
    lc.emplace_back("kind", "cell");
    trace::Labels lb = trace::proc_label(p);
    lb.emplace_back("kind", "body");
    const double c = r.metrics.value("forces.interactions", lc);
    const double b = r.metrics.value("forces.interactions", lb);
    EXPECT_GT(c, 0.0) << "proc " << p;
    EXPECT_GT(b, 0.0) << "proc " << p;
    cells += c;
    bodies += b;
  }
  EXPECT_EQ(cells, r.metrics.sum("forces.interactions", {{"kind", "cell"}}));
  EXPECT_EQ(bodies, r.metrics.sum("forces.interactions", {{"kind", "body"}}));
  EXPECT_GT(bodies, 0.0);
  const std::string line = summarize(s, r);
  EXPECT_NE(line.find("interactions[cell="), std::string::npos);
}

TEST(Report, FormattersProduceReadableCells) {
  EXPECT_EQ(fmt_speedup(12.345), "12.35");
  EXPECT_EQ(fmt_percent(0.5), "50.0%");
  EXPECT_EQ(fmt_seconds(1.5), "1.500s");
  EXPECT_EQ(fmt_seconds(0.0021), "2.10ms");
  EXPECT_EQ(fmt_seconds(2e-5), "20.0us");
}

TEST(Report, FormatterUnitBoundaries) {
  // Exactly at the s/ms and ms/us switch points.
  EXPECT_EQ(fmt_seconds(1.0), "1.000s");
  EXPECT_EQ(fmt_seconds(0.9999), "999.90ms");
  EXPECT_EQ(fmt_seconds(1e-3), "1.00ms");
  EXPECT_EQ(fmt_seconds(0.99e-3), "990.0us");
  EXPECT_EQ(fmt_seconds(0.0), "0.0us");
  EXPECT_EQ(fmt_speedup(0.0), "0.00");
  EXPECT_EQ(fmt_percent(0.0), "0.0%");
  EXPECT_EQ(fmt_percent(1.0), "100.0%");
}

TEST(Report, BreakdownFromRegistry) {
  trace::MetricsRegistry m;
  // Two procs, one measured phase: 100ns total each, of which proc0 stalls
  // 30ns and waits 10ns at the barrier; warm-up ("other") must be ignored.
  m.add("time.phase_ns", trace::proc_phase_label(0, "forces"), 100.0);
  m.add("time.phase_ns", trace::proc_phase_label(1, "forces"), 100.0);
  m.add("time.phase_ns", trace::proc_phase_label(0, "other"), 1e9);
  m.add("time.mem_stall_ns", trace::proc_phase_label(0, "forces"), 30.0);
  m.add("sync.barrier_wait_ns", trace::proc_phase_label(0, "forces"), 10.0);
  const Breakdown b = breakdown_from(m, 2);
  EXPECT_DOUBLE_EQ(b.total_s, 100e-9);
  EXPECT_DOUBLE_EQ(b.mem_stall_s, 15e-9);
  EXPECT_DOUBLE_EQ(b.barrier_wait_s, 5e-9);
  EXPECT_DOUBLE_EQ(b.lock_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(b.busy_s, 80e-9);
  EXPECT_DOUBLE_EQ(b.frac(b.busy_s), 0.8);
}

TEST(Report, WaitFormatting) {
  WaitSummary none;
  EXPECT_EQ(fmt_wait(none), "none");
  WaitSummary w;
  w.events = 12;
  w.mean_s = 2e-3;
  w.max_s = 1.5;
  w.p50_s = 0.1e-3;
  w.p95_s = 0.5e-3;
  w.p99_s = 1e-3;
  EXPECT_EQ(fmt_wait(w),
            "mean=2.00ms p50=100.0us p95=500.0us p99=1.00ms max=1.500s (x12)");
}

}  // namespace
}  // namespace ptb
