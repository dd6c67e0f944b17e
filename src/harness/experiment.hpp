// High-level experiment API used by every bench binary: run one
// (platform, algorithm, n, nprocs) configuration on the simulator and report
// the numbers the paper's tables and figures are built from.
#pragma once

#include <future>
#include <map>
#include <string>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "harness/app.hpp"
#include "mem/model.hpp"
#include "prof/profile.hpp"
#include "race/race.hpp"
#include "sight/sight.hpp"
#include "sim/sim_rt.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "treebuild/types.hpp"

namespace ptb {

struct ExperimentSpec {
  std::string platform = "origin2000";
  Algorithm algorithm = Algorithm::kLocal;
  int n = 16384;
  int nprocs = 16;
  int warmup_steps = 2;
  int measured_steps = 2;
  /// Scheduler backend of the parallel run (fibers by default; parallel
  /// overlaps unordered sections on host workers). Both produce bit-identical
  /// results, so the p=1 baseline always runs on fibers.
  SimBackend backend = default_sim_backend();
  /// Host worker threads for SimBackend::kParallel's unordered-section pool
  /// (0 = default_sim_workers(); ignored by kFibers).
  int sim_workers = 0;
  /// Optional event tracer attached to the parallel run (never the
  /// sequential baseline). Must outlive the run; null = tracing off.
  trace::Tracer* tracer = nullptr;
  /// Run the parallel build under the data-race detector (--race). PTB_RACE
  /// in the environment enables it regardless of this flag. Virtual times
  /// are unchanged; ExperimentResult::race carries the findings.
  bool race = false;
  /// Capture the run's dependency graph for critical-path / what-if
  /// profiling (--prof / PTB_PROF). Virtual times are unchanged;
  /// ExperimentResult::profile carries the analyses.
  bool prof = false;
  /// Observe every shared access for sharing-pattern classification,
  /// false-sharing detection and working-set attribution (--sight /
  /// PTB_SIGHT). Virtual times are unchanged; ExperimentResult::sight
  /// carries the report.
  bool sight = false;
  /// Classify every virtual cycle of every processor into the speedup-loss
  /// ledger (--anatomy / PTB_ANATOMY). Virtual times are unchanged;
  /// ExperimentResult::anatomy carries the ledger.
  bool anatomy = false;
  BHConfig bh;  // n is overwritten from `n`
};

/// Per-event wait-time statistics (merged over all processors).
struct WaitSummary {
  std::uint64_t events = 0;
  double mean_s = 0.0;
  double max_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

struct ExperimentResult {
  // Whole application (measured steps).
  double seq_seconds = 0.0;
  double par_seconds = 0.0;
  double speedup = 0.0;
  // Tree-building phase.
  double treebuild_seconds = 0.0;
  double treebuild_seq_seconds = 0.0;
  double treebuild_speedup = 0.0;
  double treebuild_fraction = 0.0;  // of total parallel time
  // Synchronization.
  double barrier_wait_seconds_avg = 0.0;  // mean per-processor barrier wait
  double lock_wait_seconds_avg = 0.0;
  WaitSummary lock_wait;     // per contended acquisition
  WaitSummary barrier_wait;  // per barrier episode
  std::vector<std::uint64_t> treebuild_locks_per_proc;
  std::uint64_t treebuild_locks_total = 0;
  // Memory-system event totals.
  MemProcStats mem;
  /// Data-race detector findings (enabled == false unless the run was under
  /// --race / PTB_RACE).
  race::RaceReport race;
  /// Critical-path / contention / what-if profile (enabled == false unless
  /// the run was under --prof / PTB_PROF).
  prof::Profile profile;
  /// Sharing-pattern / false-sharing / working-set report (enabled == false
  /// unless the run was under --sight / PTB_SIGHT).
  sight::SightReport sight;
  /// Exact per-cycle speedup-loss ledger (enabled == false unless the run
  /// was under --anatomy / PTB_ANATOMY).
  anatomy::Ledger anatomy;
  // Full per-phase breakdown.
  RunResult run;
  /// Every scalar above is derived from this registry (the single source of
  /// post-run measurements); benches query it for anything not pre-digested.
  trace::MetricsRegistry metrics;
};

/// Populates `reg` from a run's per-processor accumulators: time.*, sync.*
/// per (proc, phase) and mem.* per proc (when `mem` is non-null). The one
/// place runtime accumulators are named into the metric schema.
void ingest_run_metrics(trace::MetricsRegistry& reg, const std::vector<ProcStats>& stats,
                        const MemModel* mem);

/// Condenses a merged wait distribution into events/mean/max/p95 seconds.
WaitSummary wait_summary(const Distribution& d);

/// Runs experiments, caching the sequential baselines per (platform, BH
/// parameters, steps) so that sweeps over the builders — and over backends —
/// share one baseline.
///
/// run() starts an uncached p=1 baseline on its own host thread before it
/// sets up the parallel run, and waits for it only when the speedups are
/// derived, so the two simulations overlap. They share no state: each owns
/// its AppState, SimContext and fibers, so the virtual results are the same
/// as when the baseline runs alone. The cache holds futures, so a later
/// experiment finds a baseline whether it is still running or finished.
/// Only the calling thread touches the cache, and every public call returns
/// after the baseline it needs has finished.
class ExperimentRunner {
 public:
  ExperimentResult run(const ExperimentSpec& spec);

  /// The sequential baseline alone (paper Table 1). Blocks until it is done.
  double sequential_seconds(const std::string& platform, int n, const BHConfig& bh,
                            int warmup_steps = 2, int measured_steps = 2);

 private:
  struct Baseline {
    double total_s = 0.0;
    double treebuild_s = 0.0;
  };
  /// The cached baseline of `spec`'s key, started on its own host thread when
  /// no earlier call asked for it.
  std::shared_future<Baseline> baseline(const ExperimentSpec& spec);

  std::map<std::string, std::shared_future<Baseline>> baseline_cache_;
};

}  // namespace ptb
