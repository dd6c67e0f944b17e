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
#include "sim/turn_heap.hpp"

namespace ptb {

namespace race {
class RaceModel;
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
  /// sub-spans at one null-check of cost when tracing is disabled. Uniform
  /// across runtimes: NativeRT/OmpRT/SeqRT expose the same pair with wall
  ///-clock timestamps.
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

  /// Host worker threads for the kParallel backend (ignored by kFibers).
  /// Clamped to [1, nprocs] at run time. Call before run().
  void set_workers(int w) { workers_ = w; }
  int workers() const { return workers_; }

  /// The data-race detector's findings, or null when detection is off. With
  /// detection on, `mem()` is the RaceModel decorator wrapping the platform's
  /// protocol model (virtual times are unchanged either way).
  const race::RaceReport* race_report() const;

  /// The sharing-pattern observer, or null when --sight is off. With it on,
  /// `mem()` is the SightModel decorator wrapping RaceModel/protocol model
  /// (outermost, so it observes every access; virtual times unchanged).
  sight::SightModel* sight_model() { return sight_model_; }

  /// Registers a shared region with the protocol model. Call before run().
  void register_region(const void* base, std::size_t bytes, HomePolicy policy,
                       int fixed_home, std::string name);

  /// Attaches an event tracer (null detaches). Virtual-time spans (phases,
  /// lock/barrier waits), scheduler switches and memory instant events are
  /// recorded on it; with no tracer attached the hot path pays a single
  /// branch per operation. The tracer must outlive the context and have at
  /// least nprocs() tracks. Never affects virtual results.
  void set_tracer(trace::Tracer* t);
  trace::Tracer* tracer() const { return tracer_; }

  /// Attaches a profiling recorder (null detaches). The recorder captures
  /// the run's dependency graph — lock request→grant handoffs, barrier
  /// releases, fetch&adds, phase changes, per-line memory charges — for
  /// critical-path and what-if analysis (src/prof/). Pure observer: it only
  /// reads virtual times the simulator already computed, so profiled runs
  /// are bit-identical to unprofiled ones, and with no recorder attached
  /// the hot path pays a single branch per operation. Must outlive the
  /// context.
  void set_profiler(prof::Recorder* r) { prof_ = r; }
  prof::Recorder* profiler() const { return prof_; }

  /// Attaches an anatomy collector (null detaches). The collector snapshots
  /// each processor's protocol counters when that processor closes a phase
  /// span — on the processor's own ordered operation, touching only its own
  /// slots — so it stays off the kParallel overlap blacklist and anatomy
  /// runs are bit-identical in virtual time. Must outlive the context.
  void set_anatomy(anatomy::Collector* c) { anatomy_ = c; }
  anatomy::Collector* anatomy_collector() const { return anatomy_; }

  /// Runs f(SimProc&) SPMD on nprocs simulated processors, returning when
  /// all of them finish.
  template <class F>
  void run(F&& f) {
    run_impl([&f](SimProc& proc) { f(proc); });
  }

  /// Charges a read/write of [addr, addr+n) at processor p's turn and runs
  /// `f()` at that same turn (see SimProc::ordered_load).
  template <class F>
  auto ordered_apply(int p, const void* addr, std::size_t n, bool is_write, F&& f) {
    flush_pending(p);
    wait_for_turn(p);
    ordered_charge(p, addr, n, is_write);
    return f();
  }

  /// ordered_apply for an atomic object at `sync`: routed through the
  /// model's on_atomic hook so decorators can see the release/acquire
  /// structure (protocol models default it to a plain read/write charge).
  template <class F>
  auto ordered_apply_sync(int p, const void* sync, const void* addr, std::size_t n,
                          bool is_write, F&& f) {
    flush_pending(p);
    wait_for_turn(p);
    // on_atomic stays a virtual call: decorators key sync state off it, and
    // it is far off the hot path.
    charge_model_prof(p, addr, [&](MemModel& m, std::uint64_t now) {
      return m.on_atomic(p, sync, is_write, addr, n, now);
    });
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
  /// kParallel with an observer attached): runs it inline. kParallel: folds
  /// p's pending cost, removes p from the Active set, enqueues the closure
  /// for the pool and reschedules; p's fiber resumes after drain_sections
  /// has folded the section's cost and re-admitted p.
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
  /// Requires p's turn (scheduler thread). Runs one protocol-model
  /// call (`call(mem, now) -> cost`), advances p's clock by the cost,
  /// attributes the memory stall to p's current phase, and — when tracing —
  /// emits instant events for the memory-event counters the call advanced.
  template <class F>
  void charge_model(int p, F&& call) {
    const auto idx = static_cast<std::size_t>(p);
    MemProcStats snap;
    if (tracer_ != nullptr) snap = mem_->proc_stats(p);
    const std::uint64_t now = clock_[idx];
    const std::uint64_t cost = call(*mem_, now);
    advance(p, cost);
    note_mem_stall(p, cost);
    if (tracer_ != nullptr)
      trace_mem_events(*tracer_, p, snap, mem_->proc_stats(p), now);
  }
  /// charge_model plus, when profiling, the before/after bracketing
  /// prof_note_charge needs. The ONE place that bracketing lives — every
  /// ordered charged access (plain and atomic) goes through here, so the
  /// profiled and unprofiled paths cannot drift.
  template <class F>
  void charge_model_prof(int p, const void* addr, F&& call) {
    if (prof_ == nullptr) {
      charge_model(p, call);
      return;
    }
    const MemProcStats before = mem_->proc_stats(p);
    const std::uint64_t c0 = clock_[static_cast<std::size_t>(p)];
    charge_model(p, call);
    prof_note_charge(p, addr, before, c0);
  }
  /// charge_model for a plain ordered read/write of [addr, addr+n), routed
  /// through the sealed dispatch (a direct call for the three protocol
  /// models, the virtual path for decorators and the slow-path oracle).
  void ordered_charge(int p, const void* addr, std::size_t n, bool is_write) {
    charge_model_prof(p, addr, [&](MemModel&, std::uint64_t now) {
      return is_write ? mem_fast_.on_write(p, addr, n, now)
                      : mem_fast_.on_read(p, addr, n, now);
    });
  }
  /// The unordered (read_shared) counterpart of charge_model: runs one
  /// protocol-model call (`call() -> cost`) with the observer
  /// snapshot-and-diff around it when a tracer or profiler is attached.
  /// Timestamps are approximate (the pending bucket has not been folded into
  /// the clock yet); observed runs serialize host execution (kParallel runs
  /// sections inline under any observer), so the observers need no locking.
  /// The ONE copy of this block — the scalar and span fast paths share it,
  /// so they cannot drift.
  template <class F>
  std::uint64_t observed_unordered_call(int p, const void* addr, F&& call) {
    if (tracer_ == nullptr && prof_ == nullptr) return call();
    const auto idx = static_cast<std::size_t>(p);
    const MemProcStats snap = mem_->proc_stats(p);
    const std::uint64_t cost = call();
    const MemProcStats& after = mem_->proc_stats(p);
    if (tracer_ != nullptr)
      trace_mem_events(*tracer_, p, snap, after, clock_[idx] + pending_[idx].v);
    if (prof_ != nullptr) prof_note_unordered(p, addr, cost, snap, after);
    return cost;
  }
  /// Profiling on: records one charged access (cost and remote-miss /
  /// invalidation deltas) into the recorder's per-line table.
  void prof_note_charge(int p, const void* addr, const MemProcStats& before,
                        std::uint64_t clock_before);
  /// Same, for the unordered path (the cost is known directly; no clock
  /// bracketing, as read_shared never touches the clock).
  void prof_note_unordered(int p, const void* addr, std::uint64_t cost,
                           const MemProcStats& before, const MemProcStats& after);
  void op_lock(int p, const void* addr);
  void op_unlock(int p, const void* addr);
  void op_barrier(int p);
  void op_begin_phase(int p, Phase ph);

  PlatformSpec spec_;
  int nprocs_;
  SimBackend backend_;
  std::unique_ptr<MemModel> mem_;
  /// Sealed dispatch bound to mem_ (mem/dispatch.hpp): the hot per-access
  /// path. Falls back to the virtual route for decorators and under
  /// PTB_MEM_SLOWPATH.
  MemDispatch mem_fast_;
  /// PTB_MEM_SLOWPATH sampled at construction: the reference-path oracle.
  /// Gates span coalescing (spans decay to per-element scalar calls).
  bool mem_slowpath_ = false;
  /// Non-null iff race detection is on: then mem_ IS this decorator (kept
  /// separately typed for report access and tracer forwarding).
  race::RaceModel* race_model_ = nullptr;
  /// Non-null iff sight observation is on: then mem_ IS this decorator,
  /// wrapped outside the race model when both are enabled.
  sight::SightModel* sight_model_ = nullptr;
  /// Opt-in observability (null = disabled; the common case).
  trace::Tracer* tracer_ = nullptr;
  /// Opt-in dependency-graph capture for ptb::prof (null = disabled).
  prof::Recorder* prof_ = nullptr;
  /// Opt-in per-phase counter snapshots for ptb::anatomy (null = disabled).
  anatomy::Collector* anatomy_ = nullptr;

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
  /// when a tracer/profiler/race detector is attached: observers assume the
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

// The three unordered hot-path operations are header-inline: together with
// the sealed dispatch this turns the common-case charge into a direct call
// chain the compiler can see end to end (docs/PERF.md).

inline void SimProc::compute(double units) {
  ctx_->pending_[static_cast<std::size_t>(self_)].v +=
      static_cast<std::uint64_t>(units * ctx_->spec_.ns_per_work);
}

inline void SimProc::compute_n(double units, std::uint64_t count) {
  // One call's truncated cost, multiplied: bit-identical to `count`
  // compute(units) calls (pending adds commute and truncate per call).
  ctx_->pending_[static_cast<std::size_t>(self_)].v +=
      count * static_cast<std::uint64_t>(units * ctx_->spec_.ns_per_work);
}

inline trace::Tracer* SimProc::tracer() const { return ctx_->tracer_; }

inline std::uint64_t SimProc::trace_now() const {
  const auto idx = static_cast<std::size_t>(self_);
  return ctx_->clock_[idx] + ctx_->pending_[idx].v;
}

inline void SimProc::read_shared(const void* p, std::size_t n) {
  SimContext& ctx = *ctx_;
  const std::uint64_t cost = ctx.observed_unordered_call(
      self_, p, [&] { return ctx.mem_fast_.on_read_shared(self_, p, n); });
  ctx.pending_[static_cast<std::size_t>(self_)].v += cost;
  ctx.note_mem_stall(self_, cost);
}

inline void SimProc::read_shared_span(const void* p, std::size_t n, std::size_t stride,
                                      std::size_t count) {
  if (count == 0) return;
  SimContext& ctx = *ctx_;
  if (ctx.mem_slowpath_ || ctx.prof_ != nullptr) {
    // The oracle charges per element by definition. Profiled runs also stay
    // per element so the recorder attributes each element's cost to its own
    // address — identical attribution fast path vs oracle.
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
  const std::uint64_t cost = ctx.observed_unordered_call(self_, p, [&] {
    return ctx.mem_fast_.on_read_shared_span(self_, p, n, stride, count);
  });
  ctx.pending_[static_cast<std::size_t>(self_)].v += cost;
  ctx.note_mem_stall(self_, cost);
}

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
