// ptb::prof — critical-path & causal "what-if" profiling over the DES.
//
// The simulator observes every dependency edge of the virtual execution:
// which unlock granted which blocked acquire, which barrier arrival released
// which waiters, where every memory charge landed. `prof::Recorder` captures
// that structure while a run executes, and the analyses built on top of the
// capture answer questions the aggregate per-phase statistics cannot:
//
//  * critical path  — the longest chain of *dependent* virtual-time segments
//                     from run start to the last processor's finish, exact by
//                     construction (src/prof/critical_path.hpp);
//  * per-object contention — lock waits keyed by lock object and memory
//                     charges keyed by 64-byte line, resolved back to tree
//                     cells (depth/octant) by the harness
//                     (src/prof/profile.hpp);
//  * causal what-if — re-run the recorded dependency graph with one edge
//                     class zeroed ("locks free", "barriers free", "remote
//                     misses at local latency") and report the predicted
//                     completion time (src/prof/whatif.hpp).
//
// The capture is a per-processor chronological log of *synchronization*
// events only (lock, unlock, fetch&add, barrier, phase change, finish).
// Everything between two events on one processor — compute charges, ordered
// reads/writes, read_shared pending cost — advances that processor's clock
// without creating cross-processor dependencies, so it is recoverable as the
// gap between the previous event's end and the next event's start. This
// keeps the log small (thousands of events, not millions) while the replay
// remains exact: replaying an unmodified capture reproduces the recorded
// completion time bit-for-bit (checked on every profiled run).
//
// Like the tracer and the race detector, profiling is opt-in (--prof /
// PTB_PROF) and a SimObserver (sim/observer.hpp): the recorder only reads
// events the simulator already computed, so profiled runs are bit-identical
// in virtual time to unprofiled runs. It reads each unordered charge's own
// cost (UnorderedUse::kPerElement), so a profiled kParallel run executes
// unordered sections inline and charges spans element by element.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rt/phase.hpp"
#include "sim/observer.hpp"

namespace ptb::prof {

/// Synchronization-event kinds captured per processor.
enum class EvKind : std::uint8_t {
  kLock = 0,    // lock acquisition (contended or not)
  kUnlock = 1,  // lock release
  kRmw = 2,     // fetch&add on a shared counter
  kBarrier = 3, // one barrier episode (arrive, wait, depart)
  kPhase = 4,   // begin_phase marker
  kFinish = 5,  // processor retired (final clock)
};

/// One captured synchronization event. Times are virtual nanoseconds on the
/// issuing processor's clock:
///
///   t0  op start after the pending-cost flush (lock: request time;
///       barrier: before the arrive charge)
///   ta  barriers only: arrival time (t0 + arrive protocol charge)
///   t1  wait resolved (lock: grant; barrier: release); t0 for ops that
///       cannot block
///   t2  op end, all protocol charges applied
///
/// For an event that blocked, `cause` is the processor whose operation set
/// this processor's resume time t1 (the releaser / the last barrier
/// arriver), and `cause_idx` is that operation's index in `cause`'s log —
/// the exact edge the critical-path walk follows.
struct Event {
  EvKind kind = EvKind::kPhase;
  Phase phase = Phase::kOther;   // issuing processor's phase at t0
  std::int32_t cause = -1;       // proc that resolved the wait; -1 = none
  std::uint32_t cause_idx = 0;   // index of the causing event in cause's log
  std::uint32_t obj = 0;         // interned sync object (kLock/kUnlock/kRmw)
  std::uint64_t t0 = 0;
  std::uint64_t ta = 0;
  std::uint64_t t1 = 0;
  std::uint64_t t2 = 0;
  /// Cumulative remote misses on the issuing processor when the event
  /// completed; gap deltas drive the "remote misses at local latency"
  /// what-if.
  std::uint64_t remote = 0;

  bool waited() const { return cause >= 0; }
};

/// Per-64-byte-line memory charge totals of the measured tree-build phase,
/// keyed by `addr >> 6`. Resolved to tree cells by the harness for the
/// depth-contention table, the one report that reads them.
struct LineStats {
  std::uint64_t tb_stall_ns = 0;
  std::uint64_t tb_remote = 0;
  std::uint64_t tb_inval = 0;
};

/// The complete record of one simulated run.
struct Capture {
  int nprocs = 0;
  std::vector<std::vector<Event>> log;       // one chronological log per proc
  std::vector<std::uint64_t> final_clock;    // virtual finish time per proc
  std::vector<const void*> objs;             // interned sync-object addresses
  std::unordered_map<std::uintptr_t, LineStats> lines;  // key: addr >> 6

  std::uint64_t elapsed_ns() const;
  std::size_t total_events() const;
};

/// Captures the dependency structure of one SimContext::run. Attach with
/// SimContext::set_profiler before run(); the simulator's events drive the
/// capture methods below in virtual-time order (on its scheduler thread), so
/// the recorder needs no synchronization of its own and never perturbs the
/// execution.
class Recorder final : public SimObserver {
 public:
  UnorderedUse unordered_use() const override { return UnorderedUse::kPerElement; }
  void on_run_start(const RunStartEvent& e) override { begin_run(e.nprocs); }
  void on_charge(const ChargeEvent& e) override;
  /// Unordered charges feed only the tree-build phase's per-line table, and
  /// replays come only from the force phase: nothing to record.
  void on_replay(const ReplayEvent& e) override;
  void on_lock_request(const LockEvent& e) override;
  void on_lock_release(const LockEvent& e) override;
  void on_barrier_release(const BarrierReleaseEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_finish(const PhaseEvent& e) override;

  /// Drops any previous capture.
  void begin_run(int nprocs);

  // --- lock protocol ---
  void lock_acquired(int p, const void* lock, std::uint64_t t, std::uint64_t t_end,
                     Phase ph, std::uint64_t remote_cum);
  void lock_wait_begin(int p, const void* lock, std::uint64_t request_ns, Phase ph);
  /// The releaser `granter` handed the lock to blocked `waiter` at grant_ns.
  /// Must run after the granter's unlock event was recorded.
  void lock_grant(int waiter, int granter, std::uint64_t grant_ns);
  /// The granted waiter finished its acquire-side protocol charge.
  void lock_acquired_end(int p, std::uint64_t t_end, std::uint64_t remote_cum);
  void unlock(int p, const void* lock, std::uint64_t t, std::uint64_t t_end, Phase ph,
              std::uint64_t remote_cum);

  void fetch_add(int p, const void* ctr, std::uint64_t t, std::uint64_t t_end, Phase ph,
                 std::uint64_t remote_cum);

  // --- barrier protocol ---
  void barrier_arrive(int p, std::uint64_t t, std::uint64_t arrival_ns, Phase ph);
  /// All arrivals are in; `last` is the latest arriver (ties: smallest id).
  void barrier_release(std::uint64_t release_ns, int last);
  void barrier_depart(int p, std::uint64_t t_end, std::uint64_t remote_cum);

  void phase_begin(int p, Phase ph, std::uint64_t now, std::uint64_t remote_cum);
  void finish(int p, std::uint64_t now, std::uint64_t remote_cum);

  /// One charged access of [addr, addr+n): aggregates into the per-line
  /// table when p is in the tree-build phase (no log entry).
  void charge(int p, const void* addr, std::uint64_t cost_ns, std::uint64_t remote_delta,
              std::uint64_t inval_delta);

  const Capture& capture() const { return cap_; }
  Capture take() { return std::move(cap_); }

 private:
  std::uint32_t intern(const void* obj);
  Event& push(int p, const Event& e);

  Capture cap_;
  std::unordered_map<const void*, std::uint32_t> obj_ids_;
  std::vector<std::uint32_t> pending_;  // index of the open event per proc
  std::vector<Phase> phase_;            // live phase per proc (for charge())
  static constexpr std::uint32_t kNoPending = ~std::uint32_t{0};
};

/// Resolves the profile output path: an explicit --prof flag wins; otherwise
/// the PTB_PROF environment variable; otherwise "" (profiling off).
std::string prof_path_from(const std::string& flag_value);

/// True when PTB_PROF is set non-empty and not "0" — the environment-side
/// switch for ExperimentSpec::prof, mirroring PTB_RACE / PTB_TRACE.
bool default_prof_enabled();

}  // namespace ptb::prof
