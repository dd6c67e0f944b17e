// The traced pass: a benchmark-side copy of ExperimentRunner::run's
// simulation path (run_simulation / timestep / forces_phase of
// src/harness/) with host-clock spans around the calls into each layer's
// public functions. Nothing inside src/ is timed; the copy must reproduce
// ExperimentRunner::run's virtual results bit for bit, which every traced
// repetition checks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "harness/experiment.hpp"
#include "prof/prof.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host-time buckets of the traced pass. Sim-side layers are charged by
/// LayerClock; the rest are plain spans around calls from the benchmark.
enum Layer : int {
  kSimOutside = 0,  // SimContext::run outside every phase span below
  kBuild,           // builder.build
  kMoments,         // moments_phase
  kPartition,       // partition_phase / partition_orb_phase
  kGather,          // detail::gather_walk
  kEvaluate,        // bh::evaluate (and the interaction compute charge)
  kWriteback,       // forces_phase's ordered write-back loop
  kIntegrate,       // integrate_phase
  kSetup,           // make_app_state, SimContext, builder, registration
  kBaseline,        // ExperimentRunner::sequential_seconds
  kResults,         // deriving results from the run (observer reports' data), teardown
  kReports,         // write_*_json of attached observers
  kNumLayers
};

const char* layer_name(Layer l);

/// Attributes host time to layers while simulated processors interleave on
/// one host thread. Every span boundary charges the host time since the
/// previous boundary (on any processor) to the layer the *arriving*
/// processor is in, so the layer buckets tile the whole SimContext::run
/// interval exactly. A fiber switch inside a layer call is charged to the
/// processor that resumes — correct whenever the processors that hand off
/// are in the same phase, which the phase barriers make the common case.
class LayerClock {
 public:
  void start_run(int nprocs);
  void enter(int proc, Layer l) { charge(proc, l); }
  void leave(int proc) { charge(proc, kSimOutside); }
  /// Charges the tail since the last boundary to kSimOutside.
  void end_run();
  void add(Layer l, double s) { s_[l] += s; }
  double seconds(Layer l) const { return s_[l]; }
  /// Host seconds inside SimContext::run, summed over runs.
  double run_seconds() const { return run_s_; }

 private:
  void charge(int proc, Layer next);

  std::array<double, kNumLayers> s_{};
  std::vector<Layer> cur_;
  double last_ = 0.0;
  double run_start_ = 0.0;
  double run_s_ = 0.0;
};

/// Host-side work counts the copy gathers at its span boundaries.
struct LayerCounts {
  std::uint64_t cells = 0;         // created-list cells after each build
  std::uint64_t interactions = 0;  // gathered interaction partners
};

/// Observers attached to one simulation, owned for its lifetime.
struct Observers {
  std::unique_ptr<ptb::trace::Tracer> tracer;
  ptb::prof::Recorder recorder;
  ptb::anatomy::Collector collector;
  bool profiling = false;
  bool ledgering = false;
};

/// ExperimentRunner::run's context construction, verbatim in effect: the
/// race/sight decorators, sight object granules, tracer, profiler and
/// anatomy collector.
std::unique_ptr<ptb::SimContext> make_context(const ptb::ExperimentSpec& spec,
                                              const ptb::PlatformSpec& platform,
                                              ptb::AppState& st, Observers& obs);

/// The p=1 baseline's platform (ExperimentRunner's sequential variant).
ptb::PlatformSpec sequential_platform(const ptb::PlatformSpec& spec);

/// Observer options of a workload applied to a spec.
void attach_observers(ptb::ExperimentSpec& spec, bool on);

/// Output checks of the traced pass, against the final time-step.
struct CheckResult {
  bool tree_ok = true;
  std::string tree_error;
  double median_rel_err = 0.0;
  double max_err_vs_rms = 0.0;  // largest |error| / RMS |acceleration|
  bool accel_ok = true;
  std::uint64_t races = 0;
};

struct TracedRep {
  double wall_s = 0.0;
  LayerClock clock;
  LayerCounts counts;
  std::vector<VirtualResult> virt;
  std::vector<CheckResult> checks;  // one per simulation
};

/// One traced repetition of `w`: the same simulations as run_untraced, in
/// the same order, through the copy. Output checks run after the timed
/// region.
TracedRep run_traced(const Workload& w, std::uint64_t seed);

/// Marginal host cost of each observer on the workload's first simulation:
/// the run with that observer alone minus the plain run (baseline cached,
/// so neither pays it), and the time of serializing the reports.
struct ObserverCosts {
  double trace_s = 0.0;
  double race_s = 0.0;
  double prof_s = 0.0;
  double sight_s = 0.0;
  double anatomy_s = 0.0;
  double report_s = 0.0;
};
ObserverCosts measure_observers(const Workload& w, std::uint64_t seed);

/// Serializes every enabled observer report of `r` to `sink` (anatomy as a
/// single-point sweep, the race report as text).
void write_reports(std::FILE* sink, const ptb::ExperimentSpec& spec,
                   const ptb::ExperimentResult& r);

/// bh::verify (check_tree with moments) on the final tree against the
/// positions it was built from, and sampled accelerations against direct
/// summation. Implemented in checks.cpp.
CheckResult check_final_step(const ptb::AppState& st, const ptb::Bodies& built_from,
                             std::uint64_t seed);

}  // namespace perfbench
