#include "workloads.hpp"

#include <time.h>

#include <chrono>
#include <unordered_map>

#include "traced.hpp"
#include "treebuild/dispatch.hpp"

namespace perfbench {

using namespace ptb;

bool workload_by_name(const std::string& name, bool tiny, Workload& w) {
  w = Workload{};
  w.name = name;
  if (name == "gate") {
    // One cold single-experiment call: the p=1 baseline plus one parallel
    // run on the bus model.
    w.platform = "challenge";
    w.algorithms = {Algorithm::kSpace};
    w.n = tiny ? 512 : 2048;
    w.nprocs = tiny ? 4 : 16;
  } else if (name == "sweep") {
    // A figure bench: six builders share one baseline on the HLRC model.
    w.platform = "typhoon0_hlrc";
    w.algorithms = all_algorithms();
    w.n = tiny ? 512 : 1024;
    w.nprocs = tiny ? 4 : 16;
  } else if (name == "observed") {
    // Every observer attached, every report serialized.
    w.platform = "paragon";
    w.algorithms = {Algorithm::kOrig};
    w.n = 512;
    w.nprocs = tiny ? 4 : 8;
    w.observers = true;
  } else {
    return false;
  }
  if (tiny) w.warmup_steps = w.measured_steps = 1;
  return true;
}

ExperimentSpec spec_for(const Workload& w, Algorithm alg, std::uint64_t seed) {
  ExperimentSpec spec;
  spec.platform = w.platform;
  spec.algorithm = alg;
  spec.n = w.n;
  spec.nprocs = w.nprocs;
  spec.warmup_steps = w.warmup_steps;
  spec.measured_steps = w.measured_steps;
  spec.bh.seed = seed;
  return spec;
}

double body_steps(const Workload& w) {
  const double sims = static_cast<double>(w.algorithms.size()) + 1.0;  // + baseline
  return sims * w.n * (w.warmup_steps + w.measured_steps);
}

bool VirtualResult::operator==(const VirtualResult& o) const {
  if (seq_s != o.seq_s || par_s != o.par_s || speedup != o.speedup ||
      treebuild_s != o.treebuild_s || phase_ns != o.phase_ns ||
      lock_acquires != o.lock_acquires || barriers != o.barriers ||
      fetch_adds != o.fetch_adds || interactions != o.interactions || races != o.races)
    return false;
  for (const MemCounterDesc& c : kMemCounters)
    if (mem.*c.field != o.mem.*c.field) return false;
  return true;
}

VirtualResult virtual_of(const ExperimentResult& r) {
  VirtualResult v;
  v.seq_s = r.seq_seconds;
  v.par_s = r.par_seconds;
  v.speedup = r.speedup;
  v.treebuild_s = r.treebuild_seconds;
  v.phase_ns = r.run.phase_ns;
  v.mem = r.mem;
  for (const ProcStats& ps : r.run.proc_stats) {
    for (std::uint64_t a : ps.lock_acquires) v.lock_acquires += a;
    v.barriers += ps.barriers;
    v.fetch_adds += ps.fetch_adds;
  }
  v.interactions = static_cast<std::uint64_t>(r.metrics.sum("forces.interactions"));
  v.races = r.race.races;
  return v;
}

std::FILE* discard_sink() {
  static const cookie_io_functions_t kDiscard = {
      nullptr,
      [](void*, const char*, std::size_t size) -> ssize_t {
        return static_cast<ssize_t>(size);
      },
      nullptr, nullptr};
  static std::FILE* const sink = fopencookie(nullptr, "w", kDiscard);
  return sink;
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double calibration_seconds() {
  const double t0 = wall_now();
  for (int pass = 0; pass < 3; ++pass) {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    table.reserve(1 << 16);
    std::uint64_t x = 7;
    for (std::uint64_t i = 0; i < 300000; ++i) {
      x = x * 6364136223846793005ULL + 1;
      table[(x >> 40) & 0xffff] += i;
    }
    std::size_t size = table.size();
    asm volatile("" : : "g"(size) : "memory");  // keeps the table's work observable
  }
  return wall_now() - t0;
}

UntracedRep run_untraced(const Workload& w, std::uint64_t seed) {
  UntracedRep rep;
  std::vector<ExperimentResult> results;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  {
    ExperimentRunner runner;
    for (Algorithm alg : w.algorithms) {
      ExperimentSpec spec = spec_for(w, alg, seed);
      std::unique_ptr<trace::Tracer> tracer;
      attach_observers(spec, w.observers);
      if (w.observers) {
        tracer = std::make_unique<trace::Tracer>(spec.nprocs);
        spec.tracer = tracer.get();
      }
      ExperimentResult r = runner.run(spec);
      if (w.observers) write_reports(discard_sink(), spec, r);
      results.push_back(std::move(r));
    }
  }
  rep.cpu_s = cpu_now() - c0;
  rep.wall_s = wall_now() - w0;

  for (const ExperimentResult& r : results) {
    const VirtualResult v = virtual_of(r);
    if (w.observers && !r.race.enabled) rep.error = "race detector was not attached";
    if (v.races != 0) rep.error = "data races reported";
    if (!(v.par_s > 0.0 && v.seq_s > 0.0 && v.speedup > 0.0))
      rep.error = "non-positive virtual time";
    rep.virt.push_back(v);
  }
  return rep;
}

double measure_setup(const Workload& w, std::uint64_t seed) {
  double total = 0.0;
  double t0 = wall_now();
  { ExperimentRunner runner; }
  total += wall_now() - t0;
  for (Algorithm alg : w.algorithms) {
    ExperimentSpec spec = spec_for(w, alg, seed);
    attach_observers(spec, w.observers);
    const PlatformSpec platform = PlatformSpec::by_name(spec.platform);
    BHConfig bh = spec.bh;
    bh.n = spec.n;
    t0 = wall_now();
    AppState st = make_app_state(bh, spec.nprocs);
    Observers obs;
    if (w.observers) obs.tracer = std::make_unique<trace::Tracer>(spec.nprocs);
    spec.tracer = obs.tracer.get();
    std::unique_ptr<SimContext> ctx = make_context(spec, platform, st, obs);
    with_builder(alg, st, [&](auto& b) {
      register_common_regions(*ctx, st);
      b.register_regions(*ctx);
      b.reset();
      ctx->reset_stats();
      total += wall_now() - t0;
    });
  }
  // The p=1 baseline, set up once per repetition like the runner's cache.
  {
    const ExperimentSpec spec = spec_for(w, w.algorithms.front(), seed);
    BHConfig bh = spec.bh;
    bh.n = spec.n;
    t0 = wall_now();
    AppState st = make_app_state(bh, 1);
    SimContext ctx(sequential_platform(PlatformSpec::by_name(spec.platform)), 1,
                   spec.backend);
    SeqBuilder b(st);
    register_common_regions(ctx, st);
    b.register_regions(ctx);
    b.reset();
    ctx.reset_stats();
    total += wall_now() - t0;
  }
  return total;
}

}  // namespace perfbench
