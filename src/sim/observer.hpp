// SimObserver: the one interface every virtual-time observer implements.
//
// The tracer, the race detector, the profiler, sight and the anatomy
// collector all watch a simulated run through these hooks. SimContext
// notifies its attached observers, in attach order, at fixed points of each
// operation: after a protocol-model charge, and at lock, barrier, phase,
// finish and scheduler events. Every hook receives its event by const
// reference and returns nothing, so an observer cannot move virtual time: the model has
// already been charged through the sealed dispatch when the hook runs, and
// observed runs are bit-identical to unobserved ones by construction.
//
// With no observer attached, each operation pays one empty-list check.
// All hooks run on the scheduler thread, one at a time: an unordered charge
// (read_shared) reaches only the observers whose unordered_use() reads it,
// and attaching such an observer makes kParallel run unordered sections
// inline (sim_rt.hpp). Observers therefore need no locking. A replayed unit
// (SimProc::replay, one body's recorded force walk) reaches those observers
// as one on_replay call after all of its charges were made.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ptb {

namespace trace {
class Tracer;
}

struct MemProcStats;    // mem/model.hpp
struct ChargeRecord;    // sim/walk_ahead.hpp
enum class Phase;       // rt/phase.hpp
enum class HomePolicy;  // mem/region_table.hpp

/// What an observer reads of the unordered charges (read_shared and its
/// span form). One declaration decides both costs of reading them.
enum class UnorderedUse : std::uint8_t {
  kNone,        // ignores them: kParallel may overlap unordered sections
  kSpans,       // reads them, a span as one event: sections run inline
  kPerElement,  // reads each element's own cost: spans also decay to scalars
};

/// Which protocol-model call a charge was.
enum class ChargeKind : std::uint8_t {
  kRead,
  kWrite,
  kRmw,
  kAcquire,
  kRelease,
  kBarrierArrive,
  kBarrierDepart,
  kReadShared,
};

/// One protocol-model charge on processor `proc`.
struct ChargeEvent {
  int proc;
  ChargeKind kind;
  /// The charged range [addr, addr + bytes); the lock for kAcquire/kRelease,
  /// the counter for kRmw, null for barriers.
  const void* addr;
  /// The atomic object of an ordered_load/ordered_store (a kRead/kWrite
  /// that synchronizes); null for plain accesses.
  const void* sync;
  std::size_t bytes;
  /// kReadShared spans: element i sits at addr + i * stride. 1 element for
  /// every other kind.
  std::size_t stride;
  std::size_t count;
  /// Virtual time before the charge. kReadShared: clock plus the pending
  /// cost not yet folded into it (the clock itself moves only at ordered
  /// operations).
  std::uint64_t now;
  std::uint64_t cost;
  /// The processor's protocol counters before and after the charge.
  const MemProcStats& before;
  const MemProcStats& after;
};

/// One processor's replayed unit (SimProc::replay), charged in one pass
/// before any observer sees it. Charge i replays records[i], cost costs[i]
/// and left the counters at after[i]; it began at `now` plus the costs and
/// compute_ns of the charges before it. A record with count 0 is compute
/// alone and charges nothing (its cost is 0, its counters unchanged). When
/// spans decay to scalars (UnorderedUse::kPerElement), a span appears as
/// count-1 records, its compute on the last one.
struct ReplayEvent {
  int proc;
  /// Virtual time before the unit: clock plus the pending cost.
  std::uint64_t now;
  /// The processor's protocol counters before the unit.
  const MemProcStats& before;
  std::size_t size;
  const ChargeRecord* records;
  const std::uint64_t* costs;
  const MemProcStats* after;
};

struct RunStartEvent {
  int nprocs;
  /// The run's tracer (null when tracing is off), for observers that
  /// annotate the trace with their own instants.
  trace::Tracer* tracer;
};

struct RegionEvent {
  const void* base;
  std::size_t bytes;
  HomePolicy policy;
  int fixed_home;
  const std::string& name;
};

/// Lock traffic. A request that finds the lock held queues at `request_ns`
/// (on_lock_request). When the holder releases, it hands the lock to the
/// earliest waiter `peer` at `grant_ns` (on_lock_release, `peer` = -1 with
/// no waiter), and the waiter resumes holding it (on_lock_grant) before its
/// acquire-side charge. An uncontended acquire is only its kAcquire charge.
struct LockEvent {
  int proc;
  const void* lock;
  std::uint64_t request_ns;  // request / grant: proc's request time
  std::uint64_t now;         // the event's time on proc's clock
  int peer;                  // release: the waiter handed the lock, or -1
  std::uint64_t grant_ns;    // release: the waiter's grant time
};

/// The last arrival released a barrier episode. Arrivals and departures are
/// the kBarrierArrive / kBarrierDepart charges.
struct BarrierReleaseEvent {
  std::uint64_t release_ns;
  int last;                         // latest arriver (ties: smallest id)
  std::uint64_t released;           // bitmask of the released processors
  const std::uint64_t* arrival_ns;  // per processor; valid where released
};

/// `proc` closed its span of phase `from`, which began at `since`, at `now`.
/// A phase change then enters `to`; a processor's finish enters nothing.
struct PhaseEvent {
  int proc;
  Phase from;
  Phase to;
  std::uint64_t since;
  std::uint64_t now;
  const MemProcStats& stats;
};

/// The scheduler resumed processor `proc` at virtual time `now`.
struct SwitchEvent {
  int proc;
  std::uint64_t now;
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual UnorderedUse unordered_use() const { return UnorderedUse::kNone; }

  virtual void on_run_start(const RunStartEvent&) {}
  virtual void on_region(const RegionEvent&) {}
  virtual void on_charge(const ChargeEvent&) {}
  /// A replayed unit in one call. The default expands it into the kReadShared
  /// on_charge calls its charges would have made one by one (observer.cpp).
  virtual void on_replay(const ReplayEvent& e);
  virtual void on_lock_request(const LockEvent&) {}
  virtual void on_lock_grant(const LockEvent&) {}
  virtual void on_lock_release(const LockEvent&) {}
  virtual void on_barrier_release(const BarrierReleaseEvent&) {}
  virtual void on_phase(const PhaseEvent&) {}
  virtual void on_finish(const PhaseEvent&) {}
  virtual void on_switch(const SwitchEvent&) {}
};

}  // namespace ptb
