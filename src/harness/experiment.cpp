#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "prof/prof.hpp"
#include "sim/sim_rt.hpp"
#include "support/check.hpp"
#include "treebuild/dispatch.hpp"

namespace ptb {
namespace {

BHConfig effective_bh(const ExperimentSpec& spec) {
  BHConfig bh = spec.bh;
  bh.n = spec.n;
  return bh;
}

/// Every input the p=1 run reads, doubles in full precision.
std::string baseline_key(const ExperimentSpec& spec) {
  const BHConfig bh = effective_bh(spec);
  std::ostringstream os;
  os.precision(17);
  os << spec.platform << '/' << bh.n << '/' << bh.theta << '/' << bh.eps << '/' << bh.dt
     << '/' << bh.leaf_cap << '/' << bh.max_level << '/' << bh.seed << '/'
     << spec.warmup_steps << '/' << spec.measured_steps << '/'
     << static_cast<int>(bh.partitioner) << '/' << bh.lock_buckets;
  return os.str();
}

/// Sequential baseline platform: same processor speed and LOCAL memory
/// behaviour (cache size + memory latency), but no coherence protocol — a
/// uniprocessor pays cache misses to its own memory and nothing else.
PlatformSpec sequential_variant(const PlatformSpec& spec) {
  PlatformSpec s = PlatformSpec::ideal();
  s.name = spec.name + "-seq";
  s.ns_per_work = spec.ns_per_work;
  s.protocol = Protocol::kBus;  // uniform-miss machine
  s.block_bytes = 64;
  s.read_hit_ns = spec.read_hit_ns;
  s.local_miss_ns = spec.local_miss_ns;
  s.remote_miss_ns = spec.local_miss_ns;
  s.dirty_miss_ns = spec.local_miss_ns;
  s.cache_bytes = spec.cache_bytes;
  s.cache_ways = spec.cache_ways;
  return s;
}

}  // namespace

void ingest_run_metrics(trace::MetricsRegistry& reg, const std::vector<ProcStats>& stats,
                        const MemModel* mem) {
  for (int p = 0; p < static_cast<int>(stats.size()); ++p) {
    const ProcStats& ps = stats[static_cast<std::size_t>(p)];
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const trace::Labels l = trace::proc_phase_label(p, phase_name(static_cast<Phase>(ph)));
      reg.add("time.phase_ns", l, ps.phase_ns[ph]);
      reg.add("time.mem_stall_ns", l, ps.mem_stall_ns[ph]);
      reg.add("sync.lock_wait_ns", l, ps.lock_wait_phase_ns[ph]);
      reg.add("sync.barrier_wait_ns", l, ps.barrier_wait_phase_ns[ph]);
      reg.add("sync.lock_acquires", l, static_cast<double>(ps.lock_acquires[ph]));
    }
    const trace::Labels lp = trace::proc_label(p);
    reg.add("sync.barriers", lp, static_cast<double>(ps.barriers));
    reg.add("sync.fetch_adds", lp, static_cast<double>(ps.fetch_adds));
    reg.record_all("sync.lock_wait_event_ns", lp, ps.lock_wait_events);
    reg.record_all("sync.barrier_wait_event_ns", lp, ps.barrier_wait_events);
    if (mem != nullptr) {
      const MemProcStats& ms = mem->proc_stats(p);
      for (const MemCounterDesc& c : kMemCounters)
        reg.add(std::string("mem.") + c.metric, lp, static_cast<double>(ms.*c.field));
    }
  }
}

WaitSummary wait_summary(const Distribution& d) {
  WaitSummary w;
  w.events = d.count();
  if (w.events == 0) return w;
  w.mean_s = d.stat().mean() * 1e-9;
  w.max_s = d.stat().max() * 1e-9;
  w.p50_s = d.p50() * 1e-9;
  w.p95_s = d.p95() * 1e-9;
  w.p99_s = d.p99() * 1e-9;
  return w;
}

std::shared_future<ExperimentRunner::Baseline> ExperimentRunner::baseline(
    const ExperimentSpec& spec) {
  const std::string key = baseline_key(spec);
  auto it = baseline_cache_.find(key);
  if (it != baseline_cache_.end()) return it->second;

  // The closure owns copies of its inputs and builds its own state, so the
  // simulation shares nothing with the caller's thread. Virtual results are
  // identical across backends, so the one-processor baseline always runs on
  // fibers: no worker pool for a single processor, and one cache entry
  // however many backends a sweep mixes. No observer runs on it, whatever
  // PTB_RACE / PTB_SIGHT say: one processor cannot race, and nothing reads
  // the baseline's sight report.
  const PlatformSpec platform = sequential_variant(PlatformSpec::by_name(spec.platform));
  const BHConfig bh = effective_bh(spec);
  const RunConfig rc{spec.warmup_steps, spec.measured_steps};
  auto simulate = [platform, bh, rc] {
    AppState st = make_app_state(bh, 1);
    SimContext ctx(platform, 1, SimBackend::kFibers, /*race_detect=*/false,
                   /*sight_observe=*/false);
    SeqBuilder builder(st);
    const RunResult res = run_simulation(ctx, st, builder, rc);
    return Baseline{res.total_ns * 1e-9, res.phase(Phase::kTreeBuild) * 1e-9};
  };
  std::shared_future<Baseline> b =
      std::async(std::launch::async, std::move(simulate)).share();
  baseline_cache_.emplace(key, b);
  return b;
}

double ExperimentRunner::sequential_seconds(const std::string& platform, int n,
                                            const BHConfig& bh, int warmup_steps,
                                            int measured_steps) {
  ExperimentSpec spec;
  spec.platform = platform;
  spec.n = n;
  spec.bh = bh;
  spec.warmup_steps = warmup_steps;
  spec.measured_steps = measured_steps;
  return baseline(spec).get().total_s;
}

ExperimentResult ExperimentRunner::run(const ExperimentSpec& spec) {
  // Started first, so the baseline overlaps the parallel run's set-up too.
  const std::shared_future<Baseline> base_future = baseline(spec);
  const PlatformSpec platform = PlatformSpec::by_name(spec.platform);

  AppState st = make_app_state(effective_bh(spec), spec.nprocs);
  SimContext ctx(platform, spec.nprocs, spec.backend,
                 spec.race || default_race_detection(),
                 spec.sight || sight::default_sight_enabled());
  if (spec.sim_workers > 0) ctx.set_workers(spec.sim_workers);
  if (sight::SightModel* sm = ctx.sight_model()) {
    // Opt the element-structured regions into false-sharing detection; the
    // remaining regions (counts, index buffers, globals) have no object
    // identity finer than the region itself and are never flagged.
    sm->set_object_granule("bodies", sizeof(Body));
    sm->set_object_granule("reduce", sizeof(ReduceSlot));
    for (const char* pool : {"seq.cells", "orig.cells", "local.cells",
                             "partree.cells", "space.cells", "update.cells",
                             "radix.cells"})
      sm->set_object_granule(pool, sizeof(Node));
    sm->set_object_granule("radix.spos", sizeof(Vec3));
    // ALOCK bucket words are scheduler objects the protocol never charges;
    // register them observer-only so contended lock lines still classify.
    if (!st.lock_table.empty())
      sm->add_observed_region(st.lock_table.data(), st.lock_table.size(), "locks");
  }
  if (spec.tracer != nullptr) {
    spec.tracer->set_clock_domain("virtual");
    ctx.set_tracer(spec.tracer);
  }
  prof::Recorder recorder;
  const bool profiling = spec.prof || prof::default_prof_enabled();
  if (profiling) ctx.set_profiler(&recorder);
  anatomy::Collector collector;
  const bool ledgering = spec.anatomy || anatomy::default_anatomy_enabled();
  if (ledgering) ctx.set_anatomy(&collector);

  ExperimentResult out;
  {
    const RunConfig rc{spec.warmup_steps, spec.measured_steps};
    with_builder(spec.algorithm, st,
                 [&](auto& b) { out.run = run_simulation(ctx, st, b, rc); });
  }

  const Baseline& base = base_future.get();
  out.seq_seconds = base.total_s;
  out.par_seconds = out.run.total_ns * 1e-9;
  out.speedup = out.par_seconds > 0.0 ? out.seq_seconds / out.par_seconds : 0.0;
  out.treebuild_seconds = out.run.phase(Phase::kTreeBuild) * 1e-9;
  out.treebuild_seq_seconds = base.treebuild_s;
  out.treebuild_speedup =
      out.treebuild_seconds > 0.0 ? out.treebuild_seq_seconds / out.treebuild_seconds : 0.0;
  out.treebuild_fraction = out.run.treebuild_fraction();
  if (const race::RaceReport* rr = ctx.race_report()) out.race = *rr;

  // Everything below is *derived* from the metrics registry — the scalar
  // fields are conveniences over the same data benches can query directly.
  ingest_run_metrics(out.metrics, out.run.proc_stats, &ctx.mem());
  if (ledgering) {
    out.anatomy = anatomy::build_ledger(out.run.proc_stats, collector, platform);
    // The ledger's phase-max sum must reproduce the run's measured total —
    // both are exact sums of the same integer-valued clocks.
    PTB_CHECK_MSG(out.anatomy.total_ns == out.run.total_ns,
                  "anatomy: ledger T_p disagrees with RunResult::total_ns");
    anatomy::ingest_anatomy_metrics(out.metrics, out.anatomy);
  }
  // Force-phase interaction counts (last measured step), split by partner
  // kind: cell = subtree approximated by its center of mass, body = direct.
  for (int p = 0; p < spec.nprocs; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    trace::Labels lc = trace::proc_label(p);
    lc.emplace_back("kind", "cell");
    out.metrics.add("forces.interactions", lc,
                    static_cast<double>(st.interactions_cell[pi]));
    trace::Labels lb = trace::proc_label(p);
    lb.emplace_back("kind", "body");
    out.metrics.add("forces.interactions", lb,
                    static_cast<double>(st.interactions_body[pi]));
  }
  const char* tb = phase_name(Phase::kTreeBuild);
  for (int p = 0; p < static_cast<int>(out.run.proc_stats.size()); ++p) {
    const double acq =
        out.metrics.value("sync.lock_acquires", trace::proc_phase_label(p, tb));
    out.treebuild_locks_per_proc.push_back(static_cast<std::uint64_t>(acq));
    out.treebuild_locks_total += static_cast<std::uint64_t>(acq);
  }
  const double np = static_cast<double>(out.run.proc_stats.size());
  out.barrier_wait_seconds_avg = out.metrics.sum("sync.barrier_wait_ns") * 1e-9 / np;
  out.lock_wait_seconds_avg = out.metrics.sum("sync.lock_wait_ns") * 1e-9 / np;
  out.lock_wait = wait_summary(out.metrics.merged("sync.lock_wait_event_ns"));
  out.barrier_wait = wait_summary(out.metrics.merged("sync.barrier_wait_event_ns"));
  for (const MemCounterDesc& c : kMemCounters)
    out.mem.*c.field = static_cast<std::uint64_t>(
        out.metrics.sum(std::string("mem.") + c.metric));

  if (spec.tracer != nullptr) {
    std::uint64_t dropped_total = 0;
    for (int p = 0; p < spec.tracer->nprocs(); ++p) {
      const std::uint64_t d = spec.tracer->dropped(p);
      dropped_total += d;
      out.metrics.add("trace.dropped_events", trace::proc_label(p), static_cast<double>(d));
    }
    if (dropped_total != 0)
      std::fprintf(stderr,
                   "trace: %llu events dropped (buffers full) — the trace is a "
                   "chronological prefix; raise capacity_per_proc for long runs\n",
                   static_cast<unsigned long long>(dropped_total));
  }

  if (profiling || ctx.sight_model() != nullptr) {
    // Resolve tree-cell addresses from the builders' allocation bookkeeping.
    // The lists describe the final step's tree; pools refill deterministically
    // each step, so addresses keep their role across the measured steps.
    CellResolver cells;
    for (const auto& lst : st.tree.created) {
      for (const Node* nd : lst)
        cells.add(nd, sizeof(Node), nd->level, nd->octant);
    }
    cells.finalize();
    if (profiling) {
      prof::ProfileOptions popts;
      if (platform.remote_miss_ns > platform.local_miss_ns)
        popts.remote_extra_ns = static_cast<std::uint64_t>(
            std::llround(platform.remote_miss_ns - platform.local_miss_ns));
      out.profile = prof::build_profile(recorder.capture(), cells, popts);
      prof::ingest_profile_metrics(out.metrics, out.profile);
    }
    if (sight::SightModel* sm = ctx.sight_model()) {
      out.sight = sm->build_report(cells);
      out.sight.platform = spec.platform;
      out.sight.algorithm = algorithm_name(spec.algorithm);
      out.sight.nbodies = effective_bh(spec).n;
      out.sight.nprocs = spec.nprocs;
      sight::ingest_sight_metrics(out.metrics, out.sight);
    }
  }
  return out;
}

}  // namespace ptb
