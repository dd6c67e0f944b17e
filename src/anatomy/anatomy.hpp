// ptb::anatomy — the exact speedup-loss ledger.
//
// The conservative DES advances a processor's virtual clock in exactly four
// ways: a compute/read_shared pending fold (read_shared stall separately
// recorded as mem_stall), a protocol-model charge (mem_stall), a lock-grant
// jump (lock_wait) and a barrier-release jump (barrier_wait). So per
// (processor, phase) the identity
//
//   phase_ns == busy + mem_stall + lock_wait + barrier_wait
//
// holds *exactly* — not approximately, not by sampling. The ledger adds two
// refinements on top of the runtime's ProcStats:
//
//  * the memory stall is split local vs remote using per-phase deltas of the
//    protocol counters (remote misses priced at the platform's remote-local
//    latency gap, page faults at the platform's fault cost, capped by the
//    recorded stall);
//  * a per-(proc, phase) "phase skew" term — the gap between this
//    processor's time in the phase and the phase's wall duration (the max
//    over processors) — so the per-cell categories tile p·T_p exactly:
//
//   sum over (proc, measured phase, category) == nprocs * T_p
//
// asserted on every build. Barrier wait + phase skew together are the run's
// load imbalance. The differential layer (Waterfall) subtracts a p=1
// reference ledger: the per-category deltas attribute the whole speedup
// loss p·T_p − T_1, with the busy delta being the extra parallel work.
//
// Like trace/race/prof/sight this is a SimObserver (sim/observer.hpp): the
// Collector only snapshots counters the simulator already keeps, at phase
// boundaries the simulator already processes, so runs with anatomy on are
// bit-identical in virtual time. It reads no unordered charges, so kParallel
// keeps overlapping unordered sections while it is attached.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mem/model.hpp"
#include "platform/spec.hpp"
#include "rt/phase.hpp"
#include "sim/observer.hpp"
#include "trace/metrics.hpp"

namespace ptb::anatomy {

/// Every virtual cycle of every processor lands in exactly one of these.
enum class Category : int {
  kBusy = 0,         // useful work (compute charges)
  kMemLocal = 1,     // memory stall priced at local latency
  kMemRemote = 2,    // memory stall attributed to remote traffic
  kLockWait = 3,     // blocked in a lock queue
  kBarrierWait = 4,  // idle between barrier arrival and release
  kPhaseSkew = 5,    // behind the phase's last finisher (imbalance seen
                     // only at the *next* barrier-aligned phase boundary)
};

inline constexpr int kNumCategories = 6;

const char* category_name(Category c);

/// Observer the simulator notifies at phase boundaries. It accumulates
/// per-(processor, phase) deltas of the protocol counters the local/remote
/// stall split needs; everything else the ledger uses is already in
/// ProcStats.
class Collector final : public SimObserver {
 public:
  void on_run_start(const RunStartEvent& e) override { begin_run(e.nprocs); }
  void on_phase(const PhaseEvent& e) override { phase_close(e.proc, e.from, e.stats); }
  void on_finish(const PhaseEvent& e) override { phase_close(e.proc, e.from, e.stats); }

  void begin_run(int nprocs);

  /// Processor p closed a phase span attributed to `ph` (begin_phase and
  /// end-of-body), with p's current protocol counters.
  void phase_close(int p, Phase ph, const MemProcStats& now);

  bool active() const { return nprocs_ > 0; }
  std::uint64_t remote_misses(int p, int ph) const {
    return remote_[static_cast<std::size_t>(p)][static_cast<std::size_t>(ph)];
  }
  std::uint64_t page_faults(int p, int ph) const {
    return faults_[static_cast<std::size_t>(p)][static_cast<std::size_t>(ph)];
  }

 private:
  int nprocs_ = 0;
  std::vector<MemProcStats> last_;
  std::vector<std::array<std::uint64_t, kNumPhases>> remote_;
  std::vector<std::array<std::uint64_t, kNumPhases>> faults_;
};

/// The per-run ledger: every virtual cycle of every processor classified
/// into exactly one category, per measured phase. All values are virtual
/// nanoseconds held in integer-valued doubles (< 2^53), so the sums and the
/// tiling invariant below are exact, not approximate.
struct Ledger {
  using Cell = std::array<double, kNumCategories>;
  using PhaseCells = std::array<Cell, kNumPhases>;

  bool enabled = false;
  int nprocs = 0;
  /// T_p: sum over measured phases of the phase's max-over-processors time
  /// (identical to RunResult::total_ns).
  double total_ns = 0.0;
  /// Per-phase wall duration (max over processors; kOther stays 0).
  std::array<double, kNumPhases> phase_ns{};
  /// cells[proc][phase][category]; warm-up (kOther) rows stay zero.
  std::vector<PhaseCells> cells;

  double cell_ns(int p, Phase ph, Category c) const {
    return cells[static_cast<std::size_t>(p)][static_cast<std::size_t>(
        static_cast<int>(ph))][static_cast<std::size_t>(static_cast<int>(c))];
  }
  /// Whole-run total of one category (all processors, measured phases).
  double category_ns(Category c) const;
  /// One phase's total of one category (all processors).
  double phase_category_ns(Phase ph, Category c) const;
  /// Sum of every cell; the invariant is sum_ns() == nprocs * total_ns.
  double sum_ns() const;
  /// Load imbalance: idle-at-barrier plus phase skew.
  double imbalance_ns() const {
    return category_ns(Category::kBarrierWait) + category_ns(Category::kPhaseSkew);
  }
};

/// Builds the ledger from a finished run and asserts the exact tiling
/// invariant `sum(categories) == nprocs * T_p` (plus busy >= 0 per cell and
/// per-phase tiling), aborting on any violation.
Ledger build_ledger(const std::vector<ProcStats>& stats, const Collector& col,
                    const PlatformSpec& spec);

/// The differential layer: the p-processor ledger minus a p=1 reference of
/// the same (platform, algorithm, n). The per-category deltas attribute the
/// whole speedup loss: sum(delta) == procs * T_p - T_1 exactly. delta[kBusy]
/// is the extra parallel work; kBarrierWait + kPhaseSkew deltas are the
/// imbalance loss.
struct Waterfall {
  bool enabled = false;
  int procs = 0;
  double t1_ns = 0.0;    // reference run (p=1) total
  double tp_ns = 0.0;    // this run's T_p
  double loss_ns = 0.0;  // procs * tp_ns - t1_ns
  std::array<double, kNumCategories> delta{};
  std::array<std::array<double, kNumCategories>, kNumPhases> phase_delta{};
};

/// `ref` must be a 1-processor ledger of the same configuration.
Waterfall build_waterfall(const Ledger& ref, const Ledger& led);

/// Lands the ledger in the registry: anatomy.total_ns,
/// anatomy.category_ns{category=...}, anatomy.phase_category_ns{...}.
void ingest_anatomy_metrics(trace::MetricsRegistry& m, const Ledger& led);

/// Reads PTB_ANATOMY from the environment (non-empty, non-"0" enables the
/// ledger), mirroring PTB_SIGHT / PTB_PROF.
bool default_anatomy_enabled();

/// Output path for the anatomy JSON: the --anatomy flag value if non-empty,
/// else PTB_ANATOMY, else "".
std::string anatomy_path_from(const std::string& flag_value);

}  // namespace ptb::anatomy
