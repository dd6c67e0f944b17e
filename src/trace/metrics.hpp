// ptb::trace::MetricsRegistry — named, labeled metrics for one run.
//
// The single source the harness and benches read measurements from: after a
// run, the per-processor runtime accumulators (ProcStats, MemProcStats) are
// ingested as labeled metrics, and everything downstream — ExperimentResult's
// scalar fields, ptbsim's tables, ptbfig's figures — is *derived*
// by querying the registry instead of hand-maintaining parallel fields.
//
// Naming scheme (see docs/OBSERVABILITY.md):
//
//   <subsystem>.<measurement>{label=value,...}
//
//   time.phase_ns{proc=3,phase=treebuild}      virtual/wall ns in a phase
//   time.mem_stall_ns{proc=3,phase=treebuild}  ns stalled on the memory system
//   sync.lock_wait_ns{proc=3,phase=treebuild}  ns blocked on lock queues
//   sync.lock_acquires{proc=3,phase=treebuild} counter
//   mem.page_faults{proc=3}                    counter
//
// Three metric kinds: counters (add), gauges (set), and distributions
// (record; Welford + power-of-two buckets, so mean/max/p95 survive
// aggregation). Aggregation across labels is a query-side operation:
// sum("sync.lock_acquires", {{"phase","treebuild"}}) adds every proc's
// tree-build lock count.
//
// This is a post-run structure — population happens once per run from the
// runtime's accumulators, never on the simulation hot path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/stats.hpp"

namespace ptb::trace {

using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/// Convenience label builders ("proc" and "phase" are the canonical keys).
Labels proc_label(int proc);
Labels proc_phase_label(int proc, const char* phase);

class MetricsRegistry {
 public:
  /// Counter: accumulates into the (name, labels) cell, creating it at 0.
  void add(const std::string& name, const Labels& labels, double v);
  /// Gauge: overwrites the cell.
  void set(const std::string& name, const Labels& labels, double v);
  /// Distribution: records one sample into the cell's Distribution.
  void record(const std::string& name, const Labels& labels, double sample);
  /// Distribution: folds a whole pre-accumulated Distribution in.
  void record_all(const std::string& name, const Labels& labels, const Distribution& d);

  /// Exact cell lookup; 0 / empty when absent.
  double value(const std::string& name, const Labels& labels) const;

  /// Sum / max over every cell of `name` whose labels include all of
  /// `filter` (empty filter == all cells).
  double sum(const std::string& name, const Labels& filter = {}) const;
  double max(const std::string& name, const Labels& filter = {}) const;

  /// Merged distribution over matching cells.
  Distribution merged(const std::string& name, const Labels& filter = {}) const;

  struct Entry {
    std::string name;
    Labels labels;  // sorted by key
    double value = 0.0;
  };
  /// Matching value cells in deterministic (sorted-key) order.
  std::vector<Entry> select(const std::string& name, const Labels& filter = {}) const;

  /// "name{k=v,...} value" lines, sorted — debugging and golden tests.
  std::string dump() const;

  bool empty() const { return values_.empty() && dists_.empty(); }
  void clear();

 private:
  static std::string key_of(const std::string& name, Labels labels);
  static bool key_matches(const std::string& key, const std::string& name,
                          const Labels& filter);

  // Keyed by "name{k=v,...}" with labels sorted, so iteration order (and
  // therefore every dump/aggregate) is deterministic.
  std::map<std::string, double> values_;
  std::map<std::string, Distribution> dists_;
};

}  // namespace ptb::trace
