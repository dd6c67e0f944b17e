// SimRT: execution-driven discrete-event simulation runtime.
//
// The same algorithm code that runs under NativeRT runs here, but every
// annotated shared-memory operation is (a) charged to a per-processor
// *virtual clock* by the platform's protocol model and (b) globally ordered:
// a processor may only perform its next ordered operation when its virtual
// clock is the minimum over all processors that could still act
// (conservative PDES). Locks queue in virtual time, so lock contention,
// critical-section dilation by page faults, and barrier imbalance all emerge
// mechanically rather than being scripted.
//
// Two interchangeable backends execute the SPMD body (SimBackend):
//
//  * kFibers (default): every simulated processor is a stackful fiber on ONE
//    host thread; the scheduler resumes exactly the fiber whose clock is the
//    virtual-time minimum (an indexed min-heap keyed by (clock, proc)), so
//    an ordered operation costs a user-space context switch at worst and a
//    heap update at best — no mutex, no condition variables, no OS scheduler
//    in the loop, and determinism by construction. Serializing the host
//    execution is not just about the ordering ops: algorithm code
//    legitimately reads shared tree state outside any simulated lock (races
//    resolved in *virtual* time), and letting host threads overlap for real
//    would let the OS scheduler pick which side of such a race each run
//    observes.
//  * kParallel: the fiber scheduler runs unchanged on one host thread — the
//    ordered path pays not a single atomic more than kFibers — but an
//    unordered section (rt.unordered(fn): a stretch the application declares
//    to contain only read_shared/compute work on its own partition, e.g. one
//    body's force gather + evaluate loop) is shipped as a closure to a small
//    pool of host worker threads and genuinely overlaps other sections and
//    the scheduler. The section is glued to the processor's preceding
//    ordered operation: it is enqueued synchronously from the fiber, so
//    nothing can interleave between that operation and the section start,
//    exactly as in the fiber backend's run-to-wait-point order. While
//    sections are in flight, ordered operations stall — except barrier
//    departures, which touch no state a section reads and are what lets the
//    next processor reach its own section. docs/MODEL.md ("The lookahead
//    window") argues why this cannot change a single virtual time.
//
// Under both backends every ordered operation runs on the one scheduler
// thread, so the ordered path takes no lock. Both implement the same
// virtual-time state machine with the same (clock, processor-id) tie-break
// and the same run-to-wait-point execution order, so they produce
// bit-identical virtual times, lock counts and per-phase statistics; the test
// suite asserts this against each other (tests/test_sim_backend_equiv.cpp)
// and against an independent sequential implementation of the scheduling
// rules (tests/test_sim_reference.cpp).
//
// Determinism: given a fixed platform, processor count and input, repeated
// runs produce bit-identical virtual times and statistics (ties in virtual
// time break by processor id). The test suite asserts this.
//
// Fast path: read_shared() skips global ordering — it is only legal in phases
// where the touched data is not written (the force phase reading the tree),
// and the protocol models confine themselves to per-processor state plus
// commutative atomics there. Its cost accumulates in a per-processor
// "pending" bucket that is folded into the virtual clock at the next ordered
// operation.
//
// Observers: the tracer, race detector, profiler, sight and anatomy all
// implement SimObserver (sim/observer.hpp) and are notified from one list
// after each charge and at each lock, barrier, phase, finish and scheduler
// event; a replayed unit reaches them as one on_replay call. Every charge
// goes through the protocol model's sealed dispatch whether or not anyone
// observes, and with nothing attached an operation pays one empty-list
// check. kParallel overlaps unordered sections unless an attached observer
// declares that it reads unordered charges.
//
// Walk-ahead: a phase may hand the pure walks of its unordered sections to
// the context's helper thread (walk_ahead(), sim/walk_ahead.hpp) and charge
// the recorded results with SimProc::replay. The helper only records; every
// charge still runs on the section's own thread, in the recorded order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <thread>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/dispatch.hpp"
#include "mem/model.hpp"
#include "platform/spec.hpp"
#include "rt/phase.hpp"
#include "sim/fiber.hpp"
#include "sim/observer.hpp"
#include "sim/turn_heap.hpp"
#include "sim/walk_ahead.hpp"

namespace ptb {

namespace race {
class RaceDetector;
struct RaceReport;
}  // namespace race

namespace prof {
class Recorder;
}  // namespace prof

namespace sight {
class SightModel;
bool default_sight_enabled();
}  // namespace sight

namespace anatomy {
class Collector;
}  // namespace anatomy

/// The most simulated processors a SimContext runs: the protocol models keep
/// their sharer and writer sets as 64-bit masks.
inline constexpr int kMaxSimProcs = 64;

/// How SimContext::run executes the simulated processors.
enum class SimBackend { kFibers, kParallel };

/// Every backend, in declaration order: the one list the names, CLI help
/// and error text are built from.
inline constexpr SimBackend kSimBackends[] = {SimBackend::kFibers, SimBackend::kParallel};

/// Reads PTB_RACE from the environment (non-empty, non-"0" enables the
/// data-race detector); the default for SimContext's `race_detect` argument,
/// so whole test-suite/bench sweeps can turn detection on without touching
/// construction sites.
bool default_race_detection();

/// Reads PTB_SIM_BACKEND (a name from sim_backend_names_joined()) from the
/// environment; defaults to kFibers and aborts on an unknown name. Lets CI
/// sweep the whole test suite across backends without touching every
/// construction site.
SimBackend default_sim_backend();

/// Reads PTB_SIM_WORKERS (host threads for the kParallel backend); defaults
/// to half the hardware threads, clamped to [1, 16].
int default_sim_workers();

const char* to_string(SimBackend b);

/// "fibers|parallel" — the one shared backend listing for CLI help and
/// error text; never hand-maintain a copy.
std::string sim_backend_names_joined();

/// The backend named `s`, or nullopt for an unknown name.
std::optional<SimBackend> parse_sim_backend(const std::string& s);

class SimContext;

class SimProc {
 public:
  SimProc(SimContext& ctx, int self) : ctx_(&ctx), self_(self) {}

  int self() const { return self_; }
  int nprocs() const;

  void compute(double units);
  /// Charges `count` repetitions of compute(units) in one call: the cost of
  /// a single call is computed (with its truncation) and multiplied, so the
  /// pending-bucket total is bit-identical to the loop. The batched force
  /// kernel uses this to charge a whole interaction list at once.
  void compute_n(double units, std::uint64_t count);
  void read(const void* p, std::size_t n);
  void write(const void* p, std::size_t n);
  void read_shared(const void* p, std::size_t n);

  /// Charges `count` unordered shared reads of `n` bytes, element i at
  /// `p + i*stride`, in one runtime call: one dispatch, one region
  /// resolution, one observer snapshot — instead of `count` of each.
  /// Accounting is bit-identical to the equivalent read_shared loop (the
  /// protocol models' span contract, mem/model.hpp), so annotation layers
  /// may use it on any contiguous run of read_shared calls with no ordered
  /// operation in between. Ordered operations must NOT be batched this way:
  /// their fold points define virtual-time order.
  void read_shared_span(const void* p, std::size_t n, std::size_t stride,
                        std::size_t count);

  /// Charges `n` recorded unordered charges (ChargeRecorder), one unit of a
  /// walk, exactly as the calls they were recorded from. It is one pass
  /// through the sealed dispatch and one add to the pending bucket and the
  /// stall total: the costs are integers far below 2^53, so one sum of them
  /// is the sum of the adds. With an observer reading unordered charges the
  /// pass also keeps each charge's cost and counters, and each such observer
  /// then gets the unit as one on_replay call, which carries everything the
  /// unit's ChargeEvents would have. Under PTB_MEM_SLOWPATH each record goes
  /// through read_shared / read_shared_span instead.
  void replay(const ChargeRecord* r, std::size_t n);

  /// This simulation's walk-ahead helper (sim/walk_ahead.hpp).
  WalkAhead& walk_ahead() const;

  /// Combined charge + ACTUAL load/store of a shared atomic, executed at
  /// this processor's virtual-time turn. This is what makes data-dependent
  /// control flow on racy fields (a cell's kind, child slots, the body->leaf
  /// map) deterministic: the value read is exactly the state after all
  /// operations with earlier virtual time.
  template <class T>
  T ordered_load(const std::atomic<T>& a, const void* charge_addr, std::size_t n);
  template <class T>
  void ordered_store(std::atomic<T>& a, T v, const void* charge_addr, std::size_t n);

  void lock(const void* addr);
  void unlock(const void* addr);
  std::int64_t fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v);
  void barrier();
  void begin_phase(Phase p);

  /// Runs `fn` as an unordered section: a stretch that issues only
  /// read_shared/read_shared_span/compute work, touches no state another
  /// processor writes, and whose host side-effects are confined to this
  /// processor's own slots. Under kFibers it is an inline call (plus the
  /// contract flag); under kParallel it is the unit of real host
  /// overlap — the closure runs on a pool worker while the scheduler keeps
  /// going (see the kParallel notes above). Ordered operations inside a
  /// section abort the run.
  void unordered(std::function<void()> fn);

  /// The attached tracer (null when tracing is off) and the current virtual
  /// time (clock + unfolded pending cost) — lets phase code emit its own
  /// sub-spans at one null-check of cost when tracing is disabled. NativeRT
  /// exposes the same pair as a null tracer and time zero.
  trace::Tracer* tracer() const;
  std::uint64_t trace_now() const;

 private:
  SimContext* ctx_;
  int self_;
};

class SimContext {
 public:
  using Proc = SimProc;

  SimContext(const PlatformSpec& spec, int nprocs,
             SimBackend backend = default_sim_backend(),
             bool race_detect = default_race_detection(),
             bool sight_observe = sight::default_sight_enabled());
  ~SimContext();

  int nprocs() const { return nprocs_; }
  SimBackend backend() const { return backend_; }
  const PlatformSpec& spec() const { return spec_; }
  MemModel& mem() { return *mem_; }
  const MemModel& mem() const { return *mem_; }

  /// Host worker threads for the kParallel backend (ignored by kFibers).
  /// Clamped to [1, nprocs] at run time. Call before run().
  void set_workers(int w) { workers_ = w; }
  int workers() const { return workers_; }

  /// The data-race detector's findings, or null when detection is off.
  const race::RaceReport* race_report() const;

  /// The sharing-pattern observer, or null when --sight is off.
  sight::SightModel* sight_model() { return sight_.get(); }

  /// Registers a shared region with the protocol model. Call before run().
  void register_region(const void* base, std::size_t bytes, HomePolicy policy,
                       int fixed_home, std::string name);

  /// Observers (sim/observer.hpp) attached by the three setters below; each
  /// replaces the previous one of its kind, and null detaches. They are
  /// notified after sight and the race detector, which the constructor
  /// attaches. Every attached observer must outlive the context.
  ///
  /// The event tracer records virtual-time spans (phases, lock/barrier
  /// waits), scheduler switches and memory instants; it needs at least
  /// nprocs() tracks.
  void set_tracer(trace::Tracer* t);
  trace::Tracer* tracer() const { return tracer_; }
  /// The profiling recorder captures the run's dependency graph for
  /// critical-path and what-if analysis (src/prof/).
  void set_profiler(prof::Recorder* r);
  /// The anatomy collector snapshots protocol counters at phase boundaries.
  void set_anatomy(anatomy::Collector* c);
  /// Attaches any other observer, notified after those above in attach order.
  void add_observer(SimObserver* o) { replace_observer(nullptr, o); }

  /// The walk-ahead helper that unordered phases may hand their walks to
  /// (sim/walk_ahead.hpp). Created on first use; its helper thread starts at
  /// the first phase armed in a run and stops when the run ends.
  WalkAhead& walk_ahead();

  /// Runs f(SimProc&) SPMD on nprocs simulated processors, returning when
  /// all of them finish.
  template <class F>
  void run(F&& f) {
    run_impl([&f](SimProc& proc) { f(proc); });
  }

  /// Charges a read/write of [addr, addr+n) at processor p's turn and runs
  /// `f()` at that same turn (see SimProc::ordered_load). `sync` is the
  /// atomic object `f` accesses: the charge is the plain read/write, and
  /// observers see `sync` to follow the release/acquire structure.
  template <class F>
  auto ordered_apply_sync(int p, const void* sync, const void* addr, std::size_t n,
                          bool is_write, F&& f) {
    flush_pending(p);
    wait_for_turn(p);
    ordered_charge(p, addr, n, is_write, sync);
    return f();
  }

  // --- results ---
  const std::vector<ProcStats>& stats() const { return stats_; }
  /// Virtual nanoseconds on processor p's clock.
  std::uint64_t clock_ns(int p) const {
    return clock_[static_cast<std::size_t>(p)];
  }
  /// Virtual completion time of the whole run (max over processors).
  std::uint64_t elapsed_ns() const;
  void reset_stats();

 private:
  friend class SimProc;

  enum class Status : std::uint8_t {
    kActive,
    kBlockedLock,
    kInBarrier,
    kInSection,  // kParallel: section in flight on a pool worker
    kDone,
  };

  struct LockState {
    bool held = false;
    int holder = -1;
    // Waiters with their virtual request times; the earliest request is
    // granted at release (FIFO in virtual time, ties by processor id).
    std::vector<std::pair<std::uint64_t, int>> waiters;
  };

  void run_impl(const std::function<void(SimProc&)>& f);
  void run_fibers(const std::function<void(SimProc&)>& f);
  void run_parallel(const std::function<void(SimProc&)>& f);
  void reset_run_state();
  /// End-of-body bookkeeping shared by both backends: fold pending cost,
  /// close the phase attribution, retire the processor.
  void finish_proc(int p);

  // --- scheduling core (scheduler thread only) ---
  /// Blocks processor p until it is the (clock, id) minimum of the Active
  /// set, yielding to the heap top meanwhile. Unless `allow_sections`, also
  /// waits for every in-flight unordered section to fold (kParallel; the
  /// count is always zero under kFibers). `allow_sections` is only legal for
  /// operations whose model charge touches no state an unordered section
  /// reads (the barrier departure).
  void wait_for_turn(int p, bool allow_sections = false);
  void flush_pending(int p);
  void advance(int p, std::uint64_t cost);
  /// Re-admits p to the Active set (lock grant, barrier release).
  void set_active(int p);
  /// Removes p from the Active set with the given blocked/done status.
  void leave_active(int p, Status s);
  int alive_count() const;
  void maybe_release_barrier();

  // --- fiber scheduler (both backends) ---
  static constexpr int kHostContext = -1;
  static void fiber_entry(void* arg);
  void fiber_body(int p);
  /// Switches from the currently running fiber to the heap top (or, with an
  /// empty heap at end of run, back to the host context).
  void fiber_reschedule();

  // --- parallel backend (scheduler thread unless noted) ---
  /// Launches `fn` as processor p's unordered section. kFibers (or
  /// kParallel with an observer that reads unordered charges): runs it
  /// inline. kParallel: folds p's pending cost, removes p from the Active
  /// set, enqueues the closure for the pool and reschedules; p's fiber
  /// resumes after drain_sections has folded the section's cost and
  /// re-admitted p.
  void op_unordered_run(int p, std::function<void()> fn);
  /// Folds completed sections back into the schedule (clock fold +
  /// re-admission, in processor-id order). With `block`, sleeps until at
  /// least one section completes — the only place the scheduler ever waits.
  void drain_sections(bool block);
  /// Pool worker body: run queued sections until shutdown (pool_m_ only).
  void section_worker();

  // Operation implementations (called by SimProc).
  /// Charges `cost` virtual ns of memory-system stall to p's current phase.
  void note_mem_stall(int p, std::uint64_t cost) {
    const auto idx = static_cast<std::size_t>(p);
    stats_[idx].mem_stall_ns[static_cast<int>(phase_[idx])] +=
        static_cast<double>(cost);
  }
  /// Requires p's turn (scheduler thread). Runs one protocol-model call
  /// (`call(now) -> cost`), advances p's clock by the cost, attributes the
  /// memory stall to p's current phase, and notifies the observers. The ONE
  /// copy of the ordered charge: every ordered operation goes through here.
  template <class F>
  void charge(int p, ChargeKind kind, const void* addr, std::size_t bytes,
              const void* sync, F&& call) {
    const std::uint64_t now = clock_[static_cast<std::size_t>(p)];
    const bool observed = !observers_.empty();
    MemProcStats before;
    if (observed) before = mem_->proc_stats(p);
    const std::uint64_t cost = call(now);
    advance(p, cost);
    note_mem_stall(p, cost);
    if (!observed) return;
    const ChargeEvent e{p, kind, addr, sync, bytes, /*stride=*/bytes, /*count=*/1, now, cost,
                        before, mem_->proc_stats(p)};
    for (SimObserver* o : observers_) o->on_charge(e);
  }
  /// A plain ordered read/write of [addr, addr+n) through the sealed
  /// dispatch; `sync` names the atomic object of an ordered_load/_store.
  void ordered_charge(int p, const void* addr, std::size_t n, bool is_write,
                      const void* sync = nullptr) {
    charge(p, is_write ? ChargeKind::kWrite : ChargeKind::kRead, addr, n, sync,
           [&](std::uint64_t now) {
             return is_write ? mem_fast_.on_write(p, addr, n, now)
                             : mem_fast_.on_read(p, addr, n, now);
           });
  }
  /// The unordered (read_shared) counterpart of charge: runs one
  /// protocol-model call (`call() -> cost`) and, when an attached observer
  /// reads unordered charges, notifies those observers. Such an observer
  /// makes kParallel run sections inline, so host execution is serial here
  /// whenever anyone listens. The ONE copy of this block: the scalar and
  /// span fast paths share it.
  template <class F>
  std::uint64_t unordered_charge(int p, const void* addr, std::size_t n, std::size_t stride,
                                 std::size_t count, F&& call) {
    if (read_shared_observers_.empty()) return call();
    const auto idx = static_cast<std::size_t>(p);
    const MemProcStats before = mem_->proc_stats(p);
    const std::uint64_t cost = call();
    const ChargeEvent e{p, ChargeKind::kReadShared, addr, nullptr, n, stride, count,
                        clock_[idx] + pending_[idx].v, cost, before, mem_->proc_stats(p)};
    for (SimObserver* o : read_shared_observers_) o->on_charge(e);
    return cost;
  }
  /// SimProc::replay with observers that read unordered charges: charges
  /// the unit in one flattened pass that fills replay_scratch_, folds its
  /// cost once, and hands the unit to each of those observers in one call.
  void replay_observed(int p, const ChargeRecord* r, std::size_t n);
  /// Removes `old_obs` (if non-null) from the observer list, appends
  /// `new_obs` (if non-null), and re-derives the unordered-charge view.
  void replace_observer(SimObserver* old_obs, SimObserver* new_obs);
  void op_lock(int p, const void* addr);
  void op_unlock(int p, const void* addr);
  void op_barrier(int p);
  void op_begin_phase(int p, Phase ph);

  PlatformSpec spec_;
  int nprocs_;
  SimBackend backend_;
  std::unique_ptr<MemModel> mem_;
  /// Sealed dispatch bound to mem_ (mem/dispatch.hpp): the hot per-access
  /// path. Falls back to the virtual route only under PTB_MEM_SLOWPATH.
  MemDispatch mem_fast_;
  /// PTB_MEM_SLOWPATH sampled at construction: the reference-path oracle.
  /// Gates span coalescing (spans decay to per-element scalar calls).
  bool mem_slowpath_ = false;
  /// Owned observers, non-null when enabled at construction.
  std::unique_ptr<sight::SightModel> sight_;
  std::unique_ptr<race::RaceDetector> race_;
  /// Caller-owned observers (null = not attached; the common case).
  trace::Tracer* tracer_ = nullptr;
  SimObserver* prof_ = nullptr;
  SimObserver* anatomy_ = nullptr;
  /// Every attached observer, in notification order (sight, race, then the
  /// caller's in attach order), and those that read unordered charges.
  std::vector<SimObserver*> observers_;
  std::vector<SimObserver*> read_shared_observers_;
  /// Some observer reads each span element's own cost
  /// (UnorderedUse::kPerElement): spans decay to scalar charges.
  bool per_element_spans_ = false;
  /// One replayed unit's charges for replay_observed (ReplayEvent's arrays),
  /// reused unit after unit: they grow to the largest unit's charge count
  /// and no further. An observer that reads unordered charges makes every
  /// section run inline on the scheduler thread, so one set serves all
  /// processors.
  struct ReplayScratch {
    std::vector<ChargeRecord> records;
    std::vector<std::uint64_t> costs;
    std::vector<MemProcStats> after;
  };
  ReplayScratch replay_scratch_;

  /// The Active set ordered by (virtual clock, processor id): top() is the
  /// one processor allowed past its next ordering point. Maintained by every
  /// clock/status mutation in both backends.
  TurnHeap heap_;

  // Fiber scheduler (both backends): one stackful fiber per simulated
  // processor plus the host thread's anchor context; running_ is the
  // processor currently executing.
  struct FiberArg {
    SimContext* ctx;
    int proc;
  };
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<FiberArg> fiber_args_;
  Fiber host_ctx_;
  int running_ = kHostContext;
  const std::function<void(SimProc&)>* body_ = nullptr;

  // Parallel backend: a pool of host threads that runs unordered-section
  // closures. The scheduler (fiber loop) never shares its state with the
  // pool; the only cross-thread traffic is the two queues below.
  int workers_ = default_sim_workers();
  int pool_width_ = 0;     // workers actually spawned this run (0 = no pool)
  int free_running_ = 0;   // sections currently in flight (scheduler-private)
  /// True when unordered sections may genuinely overlap on the host. Off
  /// when an attached observer reads unordered charges: it assumes the
  /// serial host schedule, so sections then run inline in the fiber (still
  /// bit-identical, just not concurrent).
  bool overlap_ok_ = false;
  std::vector<std::uint8_t> in_free_;  // processor is inside a section
  std::vector<std::function<void()>> section_fn_;  // per-proc section closure
  std::vector<std::thread> pool_;
  std::mutex pool_m_;                  // guards the two queues + shutdown flag
  std::condition_variable pool_cv_;    // workers: "work or shutdown"
  std::condition_variable done_cv_;    // scheduler: "a section completed"
  std::vector<int> section_queue_;
  std::vector<int> section_done_;
  bool pool_shutdown_ = false;

  std::unique_ptr<WalkAhead> walk_ahead_;

  /// One cache line per processor: pending_ is hammered by every unordered
  /// charge, and in the parallel backend different processors write their
  /// slots from different host threads at once.
  struct alignas(64) PaddedCost {
    std::uint64_t v = 0;
  };

  std::vector<std::uint64_t> clock_;
  std::vector<Status> status_;
  std::vector<PaddedCost> pending_;  // written only by the owning processor
  std::unordered_map<const void*, LockState> locks_;

  // Barrier state.
  int barrier_arrived_ = 0;
  std::vector<std::uint64_t> barrier_arrival_;

  // Phase accounting.
  std::vector<Phase> phase_;
  std::vector<std::uint64_t> phase_mark_;
  std::vector<ProcStats> stats_;
};

inline int SimProc::nprocs() const { return ctx_->nprocs_; }

// The three unordered hot-path operations are header-inline: with the sealed
// dispatch the common-case charge is a chain of direct calls, not virtual
// ones, though the shipped build keeps SimProc::read_shared and the model's
// read path out of line (docs/PERF.md §1). The loop that does inline the
// model is the batched replay below, through MemDispatch::visit.

inline void SimProc::compute(double units) {
  ctx_->pending_[static_cast<std::size_t>(self_)].v +=
      compute_ns(units, ctx_->spec_.ns_per_work);
}

inline void SimProc::compute_n(double units, std::uint64_t count) {
  // One call's truncated cost, multiplied: bit-identical to `count`
  // compute(units) calls (pending adds commute and truncate per call).
  ctx_->pending_[static_cast<std::size_t>(self_)].v +=
      count * compute_ns(units, ctx_->spec_.ns_per_work);
}

inline trace::Tracer* SimProc::tracer() const { return ctx_->tracer_; }

inline std::uint64_t SimProc::trace_now() const {
  const auto idx = static_cast<std::size_t>(self_);
  return ctx_->clock_[idx] + ctx_->pending_[idx].v;
}

inline void SimProc::read_shared(const void* p, std::size_t n) {
  SimContext& ctx = *ctx_;
  const std::uint64_t cost = ctx.unordered_charge(
      self_, p, n, n, 1, [&] { return ctx.mem_fast_.on_read_shared(self_, p, n); });
  ctx.pending_[static_cast<std::size_t>(self_)].v += cost;
  ctx.note_mem_stall(self_, cost);
}

inline void SimProc::read_shared_span(const void* p, std::size_t n, std::size_t stride,
                                      std::size_t count) {
  if (count == 0) return;
  SimContext& ctx = *ctx_;
  if (ctx.mem_slowpath_ || ctx.per_element_spans_) {
    // The oracle charges per element by definition. An observer that reads
    // per-element costs (the profiler attributes each element's cost to its
    // own address) also gets scalar charges: identical attribution fast path
    // vs oracle.
    const char* a = static_cast<const char*>(p);
    for (std::size_t i = 0; i < count; ++i) read_shared(a + i * stride, n);
    return;
  }
  if (count == 1) {
    // Singleton spans are the common case in the force walk (interaction
    // lists hit scattered slots); the scalar path charges them identically
    // without the span setup.
    read_shared(p, n);
    return;
  }
  const std::uint64_t cost = ctx.unordered_charge(self_, p, n, stride, count, [&] {
    return ctx.mem_fast_.on_read_shared_span(self_, p, n, stride, count);
  });
  ctx.pending_[static_cast<std::size_t>(self_)].v += cost;
  ctx.note_mem_stall(self_, cost);
}

namespace detail {

/// The batched replay's loop over one concrete model: returns the summed
/// memory cost of [r, end) and adds the folded compute to `work`.
/// Flattened, so the model's read path inlines into the loop; that took
/// about a sixth off the p=1 baseline's wall time (docs/PERF.md §10).
template <class Model>
[[gnu::flatten]] std::uint64_t replay_reads(Model& model, int proc, const ChargeRecord* r,
                                           const ChargeRecord* end, std::uint64_t& work) {
  std::uint64_t sum = 0;
  for (; r != end; ++r) {
    if (r->count == 1)
      sum += model.on_read_shared(proc, r->addr, r->bytes);
    else if (r->count > 1)
      sum += model.on_read_shared_span(proc, r->addr, r->bytes, r->stride, r->count);
    work += r->compute_ns;
  }
  return sum;
}

}  // namespace detail

inline void SimProc::replay(const ChargeRecord* r, std::size_t n) {
  SimContext& ctx = *ctx_;
  std::uint64_t& pending = ctx.pending_[static_cast<std::size_t>(self_)].v;
  if (ctx.mem_slowpath_) {
    for (const ChargeRecord* end = r + n; r != end; ++r) {
      if (r->count == 1)
        read_shared(r->addr, r->bytes);
      else if (r->count > 1)
        read_shared_span(r->addr, r->bytes, r->stride, r->count);
      pending += r->compute_ns;
    }
    return;
  }
  if (!ctx.read_shared_observers_.empty()) {
    ctx.replay_observed(self_, r, n);
    return;
  }
  std::uint64_t work = 0;
  const std::uint64_t mem = ctx.mem_fast_.visit(
      [&](auto& model) { return detail::replay_reads(model, self_, r, r + n, work); });
  pending += mem + work;
  ctx.note_mem_stall(self_, mem);
}

inline WalkAhead& SimProc::walk_ahead() const { return ctx_->walk_ahead(); }

inline void SimProc::unordered(std::function<void()> fn) {
  ctx_->op_unordered_run(self_, std::move(fn));
}

template <class T>
T SimProc::ordered_load(const std::atomic<T>& a, const void* charge_addr, std::size_t n) {
  return ctx_->ordered_apply_sync(self_, &a, charge_addr, n, /*is_write=*/false,
                                  [&] { return a.load(std::memory_order_relaxed); });
}

template <class T>
void SimProc::ordered_store(std::atomic<T>& a, T v, const void* charge_addr,
                            std::size_t n) {
  ctx_->ordered_apply_sync(self_, &a, charge_addr, n, /*is_write=*/true, [&] {
    a.store(v, std::memory_order_relaxed);
    return 0;
  });
}

}  // namespace ptb
