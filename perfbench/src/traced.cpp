#include "traced.hpp"

#include <cmath>

#include "anatomy/sweep.hpp"
#include "harness/orb.hpp"
#include "sight/sight.hpp"
#include "support/cell_resolver.hpp"
#include "support/check.hpp"
#include "treebuild/dispatch.hpp"

namespace perfbench {

using namespace ptb;

const char* layer_name(Layer l) {
  switch (l) {
    case kSimOutside: return "sim.outside_phases";
    case kBuild: return "treebuild.build";
    case kMoments: return "harness.moments";
    case kPartition: return "harness.partition";
    case kGather: return "bh.gather";
    case kEvaluate: return "bh.evaluate";
    case kWriteback: return "bh.writeback";
    case kIntegrate: return "harness.integrate";
    case kSetup: return "harness.setup";
    case kBaseline: return "harness.baseline";
    case kResults: return "harness.results";
    case kReports: return "observers.reports";
    case kNumLayers: break;
  }
  return "?";
}

void LayerClock::start_run(int nprocs) {
  cur_.assign(static_cast<std::size_t>(nprocs), kSimOutside);
  last_ = run_start_ = wall_now();
}

void LayerClock::charge(int proc, Layer next) {
  const double now = wall_now();
  auto& cur = cur_[static_cast<std::size_t>(proc)];
  s_[cur] += now - last_;
  last_ = now;
  cur = next;
}

void LayerClock::end_run() {
  const double now = wall_now();
  s_[kSimOutside] += now - last_;
  last_ = now;
  run_s_ += now - run_start_;
}

PlatformSpec sequential_platform(const PlatformSpec& spec) {
  // Copy of ExperimentRunner's sequential_variant (experiment.cpp).
  PlatformSpec s = PlatformSpec::ideal();
  s.name = spec.name + "-seq";
  s.ns_per_work = spec.ns_per_work;
  s.protocol = Protocol::kBus;
  s.block_bytes = 64;
  s.read_hit_ns = spec.read_hit_ns;
  s.local_miss_ns = spec.local_miss_ns;
  s.remote_miss_ns = spec.local_miss_ns;
  s.dirty_miss_ns = spec.local_miss_ns;
  s.cache_bytes = spec.cache_bytes;
  s.cache_ways = spec.cache_ways;
  return s;
}

void attach_observers(ExperimentSpec& spec, bool on) {
  spec.race = spec.prof = spec.sight = spec.anatomy = on;
}

std::unique_ptr<SimContext> make_context(const ExperimentSpec& spec,
                                         const PlatformSpec& platform, AppState& st,
                                         Observers& obs) {
  auto ctx = std::make_unique<SimContext>(platform, spec.nprocs, spec.backend,
                                          spec.race || default_race_detection(),
                                          spec.sight || sight::default_sight_enabled());
  if (spec.sim_workers > 0) ctx->set_workers(spec.sim_workers);
  if (sight::SightModel* sm = ctx->sight_model()) {
    sm->set_object_granule("bodies", sizeof(Body));
    sm->set_object_granule("reduce", sizeof(ReduceSlot));
    for (const char* pool : {"seq.cells", "orig.cells", "local.cells", "partree.cells",
                             "space.cells", "update.cells", "radix.cells"})
      sm->set_object_granule(pool, sizeof(Node));
    sm->set_object_granule("radix.spos", sizeof(Vec3));
    if (!st.lock_table.empty())
      sm->add_observed_region(st.lock_table.data(), st.lock_table.size(), "locks");
  }
  if (spec.tracer != nullptr) {
    spec.tracer->set_clock_domain("virtual");
    ctx->set_tracer(spec.tracer);
  }
  obs.profiling = spec.prof || prof::default_prof_enabled();
  if (obs.profiling) ctx->set_profiler(&obs.recorder);
  obs.ledgering = spec.anatomy || anatomy::default_anatomy_enabled();
  if (obs.ledgering) ctx->set_anatomy(&obs.collector);
  return ctx;
}

void write_reports(std::FILE* sink, const ExperimentSpec& spec, const ExperimentResult& r) {
  if (spec.tracer != nullptr) spec.tracer->write_chrome_json(sink);
  if (r.profile.enabled) prof::write_profile_json(r.profile, sink);
  if (r.sight.enabled) sight::write_sight_json(r.sight, sink);
  if (r.anatomy.enabled) {
    anatomy::SweepResult sr;
    sr.prov.platform = spec.platform;
    sr.prov.algorithm = algorithm_name(spec.algorithm);
    sr.prov.nbodies = spec.n;
    sr.prov.nprocs = spec.nprocs;
    anatomy::SweepPoint pt;
    pt.procs = spec.nprocs;
    pt.speedup = r.speedup;
    pt.ledger = r.anatomy;
    sr.points.push_back(std::move(pt));
    anatomy::write_anatomy_json(sr, sink);
  }
  if (r.race.enabled) std::fputs(race::format_race_report(r.race).c_str(), sink);
  std::fflush(sink);
}

namespace {

/// Positions the final tree was built from: each processor records its own
/// bodies just before it integrates them in the last time-step.
struct BuiltFrom {
  std::vector<Vec3> pos;
  std::vector<std::uint8_t> have;
};

/// Copy of forces_phase (src/harness/phases.hpp) with gather / evaluate /
/// write-back spans. The PTB_FORCE_SLOWPATH walk is not copied: the
/// benchmark refuses to run with PTB_* variables set.
void traced_forces(SimProc& rt, AppState& st, LayerClock& lc, LayerCounts& cnt) {
  const int self = rt.self();
  const auto pi = static_cast<std::size_t>(self);
  const double theta2 = st.cfg.theta * st.cfg.theta;
  const double eps2 = st.cfg.eps * st.cfg.eps;
  std::uint64_t cells = 0;
  std::uint64_t bodies = 0;
  Node* root = st.tree.root;
  bh::InteractionList& il = st.force_ilist[pi];
  trace::Tracer* const tr = rt.tracer();
  rt.unordered([&] {
    for (std::int32_t bi : st.partition[pi]) {
      Body& b = st.bodies[static_cast<std::size_t>(bi)];
      lc.enter(self, kGather);
      rt.read_shared(st.body_charge(bi), 48);
      Vec3 acc{};
      std::uint64_t nc = 0;
      std::uint64_t nb = 0;
      il.clear();
      if (tr == nullptr) {
        detail::gather_walk(rt, st, root, b.pos, bi, theta2, il);
        lc.enter(self, kEvaluate);
        nc = il.cells();
        nb = il.bodies();
        rt.compute_n(work::kBodyCellInteraction, nc);
        rt.compute_n(work::kBodyBodyInteraction, nb);
        acc = bh::evaluate(il, b.pos, eps2);
      } else {
        const std::uint64_t t0 = rt.trace_now();
        detail::gather_walk(rt, st, root, b.pos, bi, theta2, il);
        const std::uint64_t t1 = rt.trace_now();
        lc.enter(self, kEvaluate);
        nc = il.cells();
        nb = il.bodies();
        rt.compute_n(work::kBodyCellInteraction, nc);
        rt.compute_n(work::kBodyBodyInteraction, nb);
        acc = bh::evaluate(il, b.pos, eps2);
        const std::uint64_t t2 = rt.trace_now();
        tr->span(rt.self(), trace::kCatPhase, "force-gather", t0, t1);
        tr->span(rt.self(), trace::kCatPhase, "force-evaluate", t1, t2);
      }
      lc.leave(self);
      cnt.interactions += nc + nb;
      b.acc = acc;
      b.cost = static_cast<double>(nc + nb);
      cells += nc;
      bodies += nb;
    }
  });
  lc.enter(self, kWriteback);
  for (std::int32_t bi : st.partition[pi]) rt.write(st.body_charge(bi), 32);
  lc.leave(self);
  st.interactions[pi] = cells + bodies;
  st.interactions_cell[pi] = cells;
  st.interactions_body[pi] = bodies;
}

/// Copy of timestep (src/harness/app.hpp) with a span around every layer
/// call. Host-side bookkeeping (cell counts, the final positions) sits
/// outside the spans and charges no virtual time.
template <class Builder>
void traced_timestep(SimProc& rt, AppState& st, Builder& builder, bool measured,
                     LayerClock& lc, LayerCounts& cnt, BuiltFrom* built_from) {
  const int self = rt.self();
  rt.begin_phase(measured ? Phase::kTreeBuild : Phase::kOther);
  lc.enter(self, kBuild);
  builder.build(rt);
  lc.leave(self);
  rt.barrier();
  cnt.cells += st.tree.created[static_cast<std::size_t>(self)].size();
  rt.begin_phase(measured ? Phase::kMoments : Phase::kOther);
  lc.enter(self, kMoments);
  moments_phase(rt, st);
  lc.leave(self);
  rt.begin_phase(measured ? Phase::kPartition : Phase::kOther);
  lc.enter(self, kPartition);
  if (st.cfg.partitioner == Partitioner::kOrb)
    partition_orb_phase(rt, st);
  else
    partition_phase(rt, st);
  lc.leave(self);
  rt.begin_phase(measured ? Phase::kForces : Phase::kOther);
  traced_forces(rt, st, lc, cnt);
  rt.barrier();
  if (built_from != nullptr) {
    for (std::int32_t bi : st.partition[static_cast<std::size_t>(self)]) {
      built_from->pos[static_cast<std::size_t>(bi)] = st.bodies[static_cast<std::size_t>(bi)].pos;
      built_from->have[static_cast<std::size_t>(bi)] = 1;
    }
  }
  rt.begin_phase(measured ? Phase::kUpdate : Phase::kOther);
  lc.enter(self, kIntegrate);
  integrate_phase(rt, st);
  lc.leave(self);
  rt.barrier();
  rt.begin_phase(Phase::kOther);
}

/// Copy of run_simulation's run and result derivation (registration is
/// part of the caller's set-up span).
template <class Builder>
RunResult traced_run(SimContext& ctx, AppState& st, Builder& builder, const RunConfig& rc,
                     LayerClock& lc, LayerCounts& cnt, BuiltFrom& built_from) {
  const int steps = rc.warmup_steps + rc.measured_steps;
  lc.start_run(ctx.nprocs());
  ctx.run([&](SimProc& rt) {
    for (int s = 0; s < steps; ++s)
      traced_timestep(rt, st, builder, s >= rc.warmup_steps, lc, cnt,
                      s == steps - 1 ? &built_from : nullptr);
  });
  lc.end_run();

  const double t_derive = wall_now();
  RunResult res;
  res.proc_stats = ctx.stats();
  for (int ph = 0; ph < kNumPhases; ++ph) {
    double mx = 0.0;
    for (const auto& ps : res.proc_stats) mx = std::max(mx, ps.phase_ns[ph]);
    res.phase_ns[static_cast<std::size_t>(ph)] = mx;
    if (ph != static_cast<int>(Phase::kOther)) res.total_ns += mx;
  }
  lc.add(kResults, wall_now() - t_derive);
  return res;
}

/// Copy of ExperimentRunner::run's derivation of an ExperimentResult from a
/// finished run (experiment.cpp), minus the p=1 baseline, which the caller
/// gets from the public API.
void derive_result(const ExperimentSpec& spec, const PlatformSpec& platform, SimContext& ctx,
                   AppState& st, Observers& obs, double seq_s, ExperimentResult& out) {
  out.seq_seconds = seq_s;
  out.par_seconds = out.run.total_ns * 1e-9;
  out.speedup = out.par_seconds > 0.0 ? out.seq_seconds / out.par_seconds : 0.0;
  out.treebuild_seconds = out.run.phase(Phase::kTreeBuild) * 1e-9;
  out.treebuild_fraction = out.run.treebuild_fraction();
  if (const race::RaceReport* rr = ctx.race_report()) out.race = *rr;

  ingest_run_metrics(out.metrics, out.run.proc_stats, &ctx.mem());
  if (obs.ledgering) {
    out.anatomy = anatomy::build_ledger(out.run.proc_stats, obs.collector, platform);
    PTB_CHECK_MSG(out.anatomy.total_ns == out.run.total_ns,
                  "anatomy: ledger T_p disagrees with RunResult::total_ns");
    anatomy::ingest_anatomy_metrics(out.metrics, out.anatomy);
  }
  for (int p = 0; p < spec.nprocs; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    trace::Labels lc = trace::proc_label(p);
    lc.emplace_back("kind", "cell");
    out.metrics.add("forces.interactions", lc, static_cast<double>(st.interactions_cell[pi]));
    trace::Labels lb = trace::proc_label(p);
    lb.emplace_back("kind", "body");
    out.metrics.add("forces.interactions", lb, static_cast<double>(st.interactions_body[pi]));
  }
  for (const MemCounterDesc& c : kMemCounters)
    out.mem.*c.field =
        static_cast<std::uint64_t>(out.metrics.sum(std::string("mem.") + c.metric));

  if (obs.profiling || ctx.sight_model() != nullptr) {
    CellResolver cells;
    for (const auto& lst : st.tree.created) {
      for (const Node* nd : lst) cells.add(nd, sizeof(Node), nd->level, nd->octant);
    }
    cells.finalize();
    if (obs.profiling) {
      prof::ProfileOptions popts;
      if (platform.remote_miss_ns > platform.local_miss_ns)
        popts.remote_extra_ns = static_cast<std::uint64_t>(
            std::llround(platform.remote_miss_ns - platform.local_miss_ns));
      out.profile = prof::build_profile(obs.recorder.capture(), cells, popts);
      prof::ingest_profile_metrics(out.metrics, out.profile);
    }
    if (sight::SightModel* sm = ctx.sight_model()) {
      out.sight = sm->build_report(cells);
      out.sight.platform = spec.platform;
      out.sight.algorithm = algorithm_name(spec.algorithm);
      out.sight.nbodies = spec.n;
      out.sight.nprocs = spec.nprocs;
      sight::ingest_sight_metrics(out.metrics, out.sight);
    }
  }
}

/// One simulation of the traced pass. Returns the host seconds spent in
/// output checks, which the caller excludes from the traced wall time.
double traced_simulation(ExperimentRunner& runner, const Workload& w, Algorithm alg,
                         std::uint64_t seed, TracedRep& rep) {
  double check_s = 0.0;
  LayerClock& lc = rep.clock;
  const double t0 = wall_now();
  double t_reports_end = 0.0;
  {
    ExperimentSpec spec = spec_for(w, alg, seed);
    attach_observers(spec, w.observers);
    const PlatformSpec platform = PlatformSpec::by_name(spec.platform);
    BHConfig bh = spec.bh;
    bh.n = spec.n;
    AppState st = make_app_state(bh, spec.nprocs);
    Observers obs;
    if (w.observers) obs.tracer = std::make_unique<trace::Tracer>(spec.nprocs);
    spec.tracer = obs.tracer.get();
    std::unique_ptr<SimContext> ctx = make_context(spec, platform, st, obs);
    PTB_CHECK_MSG(ctx->backend() != SimBackend::kParallel,
                  "perfbench: the traced pass needs a serial scheduler backend");
    BuiltFrom built_from;
    built_from.pos.assign(st.bodies.size(), Vec3{});
    built_from.have.assign(st.bodies.size(), 0);

    ExperimentResult out;
    double t_run_end = 0.0;
    with_builder(alg, st, [&](auto& b) {
      register_common_regions(*ctx, st);
      b.register_regions(*ctx);
      b.reset();
      ctx->reset_stats();
      const double t_run = wall_now();
      lc.add(kSetup, t_run - t0);
      const RunConfig rc{spec.warmup_steps, spec.measured_steps};
      out.run = traced_run(*ctx, st, b, rc, lc, rep.counts, built_from);
      t_run_end = wall_now();
    });
    const double t_base = wall_now();
    lc.add(kResults, t_base - t_run_end);  // builder teardown
    const double seq_s = runner.sequential_seconds(spec.platform, spec.n, spec.bh,
                                                   spec.warmup_steps, spec.measured_steps);
    const double t_derive = wall_now();
    lc.add(kBaseline, t_derive - t_base);
    derive_result(spec, platform, *ctx, st, obs, seq_s, out);
    const double t_reports = wall_now();
    lc.add(kResults, t_reports - t_derive);
    if (w.observers) write_reports(discard_sink(), spec, out);
    t_reports_end = wall_now();
    lc.add(kReports, t_reports_end - t_reports);

    rep.virt.push_back(virtual_of(out));
    Bodies final_tree_bodies = st.bodies;
    for (std::size_t i = 0; i < final_tree_bodies.size(); ++i)
      if (built_from.have[i] != 0) final_tree_bodies[i].pos = built_from.pos[i];
    CheckResult cr = check_final_step(st, final_tree_bodies, seed);
    cr.races = out.race.races;
    rep.checks.push_back(cr);
    check_s = wall_now() - t_reports_end;
  }
  // Context, state and observer teardown.
  lc.add(kResults, wall_now() - t_reports_end - check_s);
  return check_s;
}

}  // namespace

TracedRep run_traced(const Workload& w, std::uint64_t seed) {
  TracedRep rep;
  double check_s = 0.0;
  const double t0 = wall_now();
  {
    ExperimentRunner runner;
    for (Algorithm alg : w.algorithms) check_s += traced_simulation(runner, w, alg, seed, rep);
  }
  rep.wall_s = wall_now() - t0 - check_s;
  return rep;
}

ObserverCosts measure_observers(const Workload& w, std::uint64_t seed) {
  ObserverCosts oc;
  ExperimentRunner runner;
  const ExperimentSpec plain = spec_for(w, w.algorithms.front(), seed);
  // Fill the runner's baseline cache so no timed run below pays it.
  runner.sequential_seconds(plain.platform, plain.n, plain.bh, plain.warmup_steps,
                            plain.measured_steps);
  const auto timed = [&](const ExperimentSpec& spec) {
    const double t = wall_now();
    ExperimentResult r = runner.run(spec);
    const double dt = wall_now() - t;
    const double tr = wall_now();
    write_reports(discard_sink(), spec, r);
    oc.report_s += wall_now() - tr;
    return dt;
  };
  const double plain_s = timed(plain);
  {
    ExperimentSpec s = plain;
    trace::Tracer tracer(s.nprocs);
    s.tracer = &tracer;
    oc.trace_s = timed(s) - plain_s;
  }
  ExperimentSpec s = plain;
  s.race = true;
  oc.race_s = timed(s) - plain_s;
  s = plain;
  s.prof = true;
  oc.prof_s = timed(s) - plain_s;
  s = plain;
  s.sight = true;
  oc.sight_s = timed(s) - plain_s;
  s = plain;
  s.anatomy = true;
  oc.anatomy_s = timed(s) - plain_s;
  return oc;
}

}  // namespace perfbench
