// Shared result-formatting helpers for the bench binaries.
#pragma once

#include <string>

#include "harness/experiment.hpp"
#include "support/table.hpp"

namespace ptb {

/// "12.4" style speedup cell.
std::string fmt_speedup(double s);
/// "37.2%" style percentage cell.
std::string fmt_percent(double frac);
/// "1.234s" / "12.3ms" adaptive duration cell.
std::string fmt_seconds(double s);

/// Paper-style execution-time decomposition of the measured phases,
/// averaged per processor. busy is the remainder of phase time after the
/// memory-system stalls and sync waits are taken out.
struct Breakdown {
  double busy_s = 0.0;
  double mem_stall_s = 0.0;
  double lock_wait_s = 0.0;
  double barrier_wait_s = 0.0;
  double total_s = 0.0;

  double frac(double part) const { return total_s > 0.0 ? part / total_s : 0.0; }
};

/// Derives the breakdown from a run's metrics registry (time.* and sync.*
/// cells over every phase except "other", summed across processors and
/// divided by `nprocs`).
Breakdown breakdown_from(const trace::MetricsRegistry& m, int nprocs);

/// "mean=1.2ms max=8.0ms p95=4.1ms (x123)" wait-statistics cell.
std::string fmt_wait(const WaitSummary& w);

/// One-line summary of a run (used by examples and debugging).
std::string summarize(const ExperimentSpec& spec, const ExperimentResult& r);

/// Prints the profiling tables (critical path with per-phase attribution,
/// top contended locks, depth-bucketed contention, what-if predictions) to
/// stdout. No-op when the profile is disabled.
void print_profile(const prof::Profile& p);

/// Prints the sight tables (sharing classification by data structure and
/// tree depth, per-phase class mix, false-sharing findings, per-phase
/// working sets) to stdout. No-op when the report is disabled.
void print_sight(const sight::SightReport& r);

/// Prints the speedup-loss ledger (per-category totals with shares, plus
/// the per-phase category grid) to stdout. No-op when the ledger is
/// disabled.
void print_anatomy(const anatomy::Ledger& led);

/// Prints the speedup-loss waterfall p·T_p − T_1 attributed per category.
/// No-op when the waterfall is disabled.
void print_waterfall(const anatomy::Waterfall& w);

}  // namespace ptb
