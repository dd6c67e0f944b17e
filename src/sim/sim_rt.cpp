#include "sim/sim_rt.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "anatomy/anatomy.hpp"
#include "prof/prof.hpp"
#include "race/race.hpp"
#include "sight/sight.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace ptb {

namespace {

// Lazily committed (mmap) — plenty for the recursive tree walks, and costs
// only the pages actually touched, like a host thread's stack.
constexpr std::size_t kFiberStackBytes = std::size_t{8} << 20;

/// detail::replay_reads (sim_rt.hpp) for an observed replay: also writes
/// each charge's record, cost and counters to rec/cost/after, decaying spans
/// to per-element charges when `per_element`, as read_shared_span does.
template <class Model>
[[gnu::flatten]] std::uint64_t replay_kept(Model& model, int proc, const ChargeRecord* r,
                                           const ChargeRecord* end, bool per_element,
                                           ChargeRecord* rec, std::uint64_t* cost,
                                           MemProcStats* after, std::uint64_t& work) {
  const MemProcStats& stats = model.proc_stats(proc);
  std::uint64_t sum = 0;
  for (; r != end; ++r) {
    work += r->compute_ns;
    if (r->count > 1 && per_element) {
      const char* a = static_cast<const char*>(r->addr);
      for (std::uint16_t i = 0; i < r->count; ++i) {
        const void* elem = a + std::size_t{i} * r->stride;
        const std::uint64_t c = model.on_read_shared(proc, elem, r->bytes);
        sum += c;
        const bool last = i + 1 == r->count;
        *rec++ = {elem, r->bytes, r->bytes, 1, last ? r->compute_ns : std::uint16_t{0}};
        *cost++ = c;
        *after++ = stats;
      }
      continue;
    }
    std::uint64_t c = 0;
    if (r->count == 1)
      c = model.on_read_shared(proc, r->addr, r->bytes);
    else if (r->count > 1)
      c = model.on_read_shared_span(proc, r->addr, r->bytes, r->stride, r->count);
    sum += c;
    *rec++ = *r;
    *cost++ = c;
    *after++ = stats;
  }
  return sum;
}

}  // namespace

SimBackend default_sim_backend() {
  static const SimBackend b = [] {
    const char* env = std::getenv("PTB_SIM_BACKEND");
    if (env == nullptr || env[0] == '\0') return SimBackend::kFibers;
    const std::optional<SimBackend> parsed = parse_sim_backend(env);
    PTB_CHECK_MSG(parsed.has_value(), ("unknown simulator backend \"" + std::string(env) +
                                       "\" (want " + sim_backend_names_joined() + ")")
                                          .c_str());
    return *parsed;
  }();
  return b;
}

const char* to_string(SimBackend b) {
  return b == SimBackend::kFibers ? "fibers" : "parallel";
}

std::string sim_backend_names_joined() {
  std::string out;
  for (SimBackend b : kSimBackends) {
    if (!out.empty()) out.push_back('|');
    out += to_string(b);
  }
  return out;
}

std::optional<SimBackend> parse_sim_backend(const std::string& s) {
  for (SimBackend b : kSimBackends)
    if (s == to_string(b)) return b;
  return std::nullopt;
}

int default_sim_workers() {
  static const int w = [] {
    const char* env = std::getenv("PTB_SIM_WORKERS");
    if (env != nullptr && env[0] != '\0') {
      const int v = std::atoi(env);
      if (v >= 1) return std::min(v, 64);
    }
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw / 2, 1, 16);
  }();
  return w;
}

bool default_race_detection() { return race::default_race_enabled(); }

SimContext::SimContext(const PlatformSpec& spec, int nprocs, SimBackend backend,
                       bool race_detect, bool sight_observe)
    : spec_(spec), nprocs_(nprocs), backend_(backend), mem_(make_mem_model(spec, nprocs)) {
  PTB_CHECK(nprocs >= 1 && nprocs <= kMaxSimProcs);
  // Sight first: within one charge, its trace instants precede the race
  // detector's, which precede the memory instants.
  if (sight_observe) {
    sight_ = std::make_unique<sight::SightModel>(spec, nprocs);
    replace_observer(nullptr, sight_.get());
  }
  if (race_detect) {
    race_ = std::make_unique<race::RaceDetector>(nprocs);
    replace_observer(nullptr, race_.get());
  }
  mem_slowpath_ = mem_slowpath_enabled();
  mem_fast_.bind(mem_.get(), /*force_virtual=*/mem_slowpath_);
  // The fiber backend serializes unordered stretches in host time, which
  // licenses the model's eager-invalidation cache mode (same virtual results,
  // no shared epoch loads on the read path). kParallel overlaps sections on
  // pool workers and so stays on lazy epochs, as does the slow-path oracle,
  // which thereby re-checks the eager/lazy equivalence end to end, not just
  // the span coalescing.
  if (backend_ == SimBackend::kFibers && !mem_slowpath_)
    mem_->set_serialized(true);
  const auto np = static_cast<std::size_t>(nprocs);
  clock_.assign(np, 0);
  status_.assign(np, Status::kDone);
  pending_.assign(np, PaddedCost{});
  in_free_.assign(np, 0);
  phase_.assign(np, Phase::kOther);
  phase_mark_.assign(np, 0);
  stats_.assign(np, ProcStats{});
  barrier_arrival_.assign(np, 0);
  heap_.init(nprocs);
}

SimContext::~SimContext() = default;

const race::RaceReport* SimContext::race_report() const {
  return race_ != nullptr ? &race_->report() : nullptr;
}

void SimContext::replace_observer(SimObserver* old_obs, SimObserver* new_obs) {
  if (old_obs != nullptr) std::erase(observers_, old_obs);
  if (new_obs != nullptr) observers_.push_back(new_obs);
  read_shared_observers_.clear();
  per_element_spans_ = false;
  for (SimObserver* o : observers_) {
    const UnorderedUse use = o->unordered_use();
    if (use != UnorderedUse::kNone) read_shared_observers_.push_back(o);
    if (use == UnorderedUse::kPerElement) per_element_spans_ = true;
  }
}

void SimContext::set_tracer(trace::Tracer* t) {
  replace_observer(tracer_, t);
  tracer_ = t;
}

void SimContext::set_profiler(prof::Recorder* r) {
  replace_observer(prof_, r);
  prof_ = r;
}

void SimContext::set_anatomy(anatomy::Collector* c) {
  replace_observer(anatomy_, c);
  anatomy_ = c;
}

void SimContext::replay_observed(int p, const ChargeRecord* r, std::size_t n) {
  const auto idx = static_cast<std::size_t>(p);
  std::size_t charges = n;
  if (per_element_spans_)
    for (const ChargeRecord* q = r; q != r + n; ++q)
      if (q->count > 1) charges += q->count - 1u;
  ReplayScratch& s = replay_scratch_;
  if (s.records.size() < charges) {
    s.records.resize(charges);
    s.costs.resize(charges);
    s.after.resize(charges);
  }
  const MemProcStats before = mem_->proc_stats(p);
  const std::uint64_t now = clock_[idx] + pending_[idx].v;
  std::uint64_t work = 0;
  const std::uint64_t mem = mem_fast_.visit([&](auto& model) {
    return replay_kept(model, p, r, r + n, per_element_spans_, s.records.data(),
                       s.costs.data(), s.after.data(), work);
  });
  pending_[idx].v += mem + work;
  note_mem_stall(p, mem);
  const ReplayEvent e{p, now, before, charges, s.records.data(), s.costs.data(),
                      s.after.data()};
  for (SimObserver* o : read_shared_observers_) o->on_replay(e);
}

void SimContext::register_region(const void* base, std::size_t bytes, HomePolicy policy,
                                 int fixed_home, std::string name) {
  for (SimObserver* o : observers_) o->on_region({base, bytes, policy, fixed_home, name});
  mem_->register_region(base, bytes, policy, fixed_home, std::move(name));
}

void SimContext::reset_stats() {
  stats_.assign(static_cast<std::size_t>(nprocs_), ProcStats{});
}

std::uint64_t SimContext::elapsed_ns() const {
  std::uint64_t mx = 0;
  for (std::uint64_t c : clock_) mx = std::max(mx, c);
  return mx;
}

// --- run loop ---

void SimContext::reset_run_state() {
  const auto np = static_cast<std::size_t>(nprocs_);
  clock_.assign(np, 0);
  status_.assign(np, Status::kActive);
  pending_.assign(np, PaddedCost{});
  in_free_.assign(np, 0);
  phase_.assign(np, Phase::kOther);
  phase_mark_.assign(np, 0);
  barrier_arrival_.assign(np, 0);
  locks_.clear();
  barrier_arrived_ = 0;
  heap_.init(nprocs_);
  for (int p = 0; p < nprocs_; ++p) heap_.push(p, 0);
  for (SimObserver* o : observers_) o->on_run_start({nprocs_, tracer_});
}

void SimContext::run_impl(const std::function<void(SimProc&)>& f) {
  reset_run_state();
  if (backend_ == SimBackend::kFibers)
    run_fibers(f);
  else
    run_parallel(f);
  if (walk_ahead_ != nullptr) walk_ahead_->stop();
}

WalkAhead& SimContext::walk_ahead() {
  if (walk_ahead_ == nullptr)
    walk_ahead_ = std::make_unique<WalkAhead>(nprocs_, spec_.ns_per_work);
  return *walk_ahead_;
}

void SimContext::finish_proc(int p) {
  flush_pending(p);
  const auto idx = static_cast<std::size_t>(p);
  const PhaseEvent e{p, phase_[idx], phase_[idx], phase_mark_[idx], clock_[idx],
                     mem_->proc_stats(p)};
  stats_[idx].phase_ns[static_cast<int>(phase_[idx])] +=
      static_cast<double>(clock_[idx] - phase_mark_[idx]);
  phase_mark_[idx] = clock_[idx];
  for (SimObserver* o : observers_) o->on_finish(e);
  leave_active(p, Status::kDone);
  maybe_release_barrier();
}

void SimContext::fiber_entry(void* arg) {
  auto* fa = static_cast<FiberArg*>(arg);
  fa->ctx->fiber_body(fa->proc);
}

void SimContext::fiber_body(int p) {
  SimProc proc(*this, p);
  (*body_)(proc);
  finish_proc(p);
  // Hand off to the next runnable processor (or the host when everyone is
  // done). A Done processor is never in the heap, so this fiber is never
  // resumed; if it somehow were, the entry shim aborts.
  fiber_reschedule();
}

void SimContext::fiber_reschedule() {
  const int me = running_;
  int next = heap_.top();
  // Parallel backend: an empty Active set with sections in flight just means
  // everyone runnable is out on the pool — wait for a completion to refill
  // the heap rather than declaring deadlock.
  while (next < 0 && free_running_ > 0) {
    drain_sections(/*block=*/true);
    next = heap_.top();
  }
  // Our own just-launched section may have been drained back in above; then
  // it is simply our turn again and the fiber continues past the launch.
  if (next == me) return;
  Fiber& from = me == kHostContext ? host_ctx_ : *fibers_[static_cast<std::size_t>(me)];
  if (next < 0) {
    // Nobody is runnable. At end of run every processor is Done and control
    // returns to the host; otherwise the simulated program deadlocked
    // (a lock cycle or mismatched barriers).
    PTB_CHECK_MSG(alive_count() == 0,
                  "simulated deadlock: every processor is blocked");
    running_ = kHostContext;
    Fiber::switch_to(from, host_ctx_);
    return;
  }
  for (SimObserver* o : observers_)
    o->on_switch({next, clock_[static_cast<std::size_t>(next)]});
  running_ = next;
  Fiber::switch_to(from, *fibers_[static_cast<std::size_t>(next)]);
}

void SimContext::run_fibers(const std::function<void(SimProc&)>& f) {
  body_ = &f;
  const auto np = static_cast<std::size_t>(nprocs_);
  fibers_.clear();
  fibers_.resize(np);
  fiber_args_.resize(np);
  for (int p = 0; p < nprocs_; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    fiber_args_[pi] = FiberArg{this, p};
    fibers_[pi] = std::make_unique<Fiber>();
    fibers_[pi]->start(&SimContext::fiber_entry, &fiber_args_[pi], kFiberStackBytes);
  }
  running_ = kHostContext;
  fiber_reschedule();  // resumes the virtual-time minimum; returns when all done
  PTB_CHECK(alive_count() == 0);
  fibers_.clear();
  body_ = nullptr;
}

// --- parallel backend ---

void SimContext::section_worker() {
  std::unique_lock<std::mutex> lk(pool_m_);
  for (;;) {
    pool_cv_.wait(lk, [this] { return pool_shutdown_ || !section_queue_.empty(); });
    if (section_queue_.empty()) return;  // shutdown with a drained queue
    const int p = section_queue_.front();
    section_queue_.erase(section_queue_.begin());
    lk.unlock();
    const auto idx = static_cast<std::size_t>(p);
    section_fn_[idx]();           // the unordered stretch
    section_fn_[idx] = nullptr;   // drop captures before reporting done
    in_free_[idx] = 0;
    lk.lock();
    section_done_.push_back(p);
    done_cv_.notify_one();
  }
}

void SimContext::drain_sections(bool block) {
  std::vector<int> done;
  {
    std::unique_lock<std::mutex> lk(pool_m_);
    if (block) done_cv_.wait(lk, [this] { return !section_done_.empty(); });
    done.swap(section_done_);
  }
  // Re-admission order is irrelevant for the schedule (the heap orders by
  // (clock, id)); sort by id anyway so the walk is deterministic.
  std::sort(done.begin(), done.end());
  for (int p : done) {
    flush_pending(p);  // fold the section's cost into the clock key
    --free_running_;
    set_active(p);
  }
}

void SimContext::op_unordered_run(int p, std::function<void()> fn) {
  const auto idx = static_cast<std::size_t>(p);
  if (backend_ != SimBackend::kParallel || !overlap_ok_) {
    // Fibers (and kParallel runs whose observers read unordered charges,
    // which must see the serial host order): run inline.
    // The flag arms the ordered-op-inside-section contract check.
    in_free_[idx] = 1;
    fn();
    in_free_[idx] = 0;
    return;
  }
  // Glued launch: we are on the scheduler thread, immediately after this
  // processor's last ordered operation — nothing can interleave between that
  // operation and the section start, exactly as in the fiber backend.
  flush_pending(p);
  section_fn_[idx] = std::move(fn);
  in_free_[idx] = 1;
  leave_active(p, Status::kInSection);
  ++free_running_;
  {
    std::lock_guard<std::mutex> g(pool_m_);
    section_queue_.push_back(p);
  }
  pool_cv_.notify_one();
  // Hand the scheduler to the next runnable processor; drain_sections
  // re-admits us once the closure has run, and the fiber resumes here.
  fiber_reschedule();
}

void SimContext::run_parallel(const std::function<void(SimProc&)>& f) {
  // One scheduler thread (this one) + a closure pool. Runs observed on
  // unordered charges get no pool: sections run inline, reproducing the
  // fiber host order exactly.
  overlap_ok_ = read_shared_observers_.empty();
  free_running_ = 0;
  section_fn_.assign(static_cast<std::size_t>(nprocs_), nullptr);
  pool_width_ = overlap_ok_ ? std::clamp(workers_, 1, nprocs_) : 0;
  pool_shutdown_ = false;
  section_queue_.clear();
  section_done_.clear();
  pool_.reserve(static_cast<std::size_t>(pool_width_));
  for (int w = 0; w < pool_width_; ++w)
    pool_.emplace_back([this] { section_worker(); });
  run_fibers(f);
  PTB_CHECK(free_running_ == 0);
  {
    std::lock_guard<std::mutex> g(pool_m_);
    pool_shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
}

// --- scheduling core ---

void SimContext::wait_for_turn(int p, bool allow_sections) {
  // p is Active (in the heap), so the heap is never empty here; yield to the
  // minimum until the minimum is us AND (unless the operation is
  // section-tolerant) no unordered section is in flight. free_running_ is
  // nonzero only in the parallel backend.
  for (;;) {
    if (heap_.top() == p) {
      if (free_running_ == 0 || allow_sections) return;
      drain_sections(/*block=*/true);  // our turn, blocked only on sections
      continue;
    }
    fiber_reschedule();
  }
}

void SimContext::flush_pending(int p) {
  const auto idx = static_cast<std::size_t>(p);
  PTB_CHECK_MSG(in_free_[idx] == 0,
                "ordered operation inside an unordered_begin/end section");
  if (pending_[idx].v != 0) {
    clock_[idx] += pending_[idx].v;
    pending_[idx].v = 0;
    if (heap_.contains(p)) heap_.update(p, clock_[idx]);
  }
}

void SimContext::advance(int p, std::uint64_t cost) {
  const auto idx = static_cast<std::size_t>(p);
  clock_[idx] += cost;
  heap_.update(p, clock_[idx]);
}

void SimContext::set_active(int p) {
  status_[static_cast<std::size_t>(p)] = Status::kActive;
  heap_.push(p, clock_[static_cast<std::size_t>(p)]);
}

void SimContext::leave_active(int p, Status s) {
  status_[static_cast<std::size_t>(p)] = s;
  heap_.remove(p);
}

int SimContext::alive_count() const {
  int n = 0;
  for (Status s : status_)
    if (s != Status::kDone) ++n;
  return n;
}

void SimContext::maybe_release_barrier() {
  if (barrier_arrived_ == 0 || barrier_arrived_ < alive_count()) return;
  std::uint64_t release = 0;
  for (int q = 0; q < nprocs_; ++q) {
    if (status_[static_cast<std::size_t>(q)] == Status::kInBarrier)
      release = std::max(release, barrier_arrival_[static_cast<std::size_t>(q)]);
  }
  if (!observers_.empty()) {
    // The last arriver (earliest id on ties) is the release's cause.
    BarrierReleaseEvent e{release, -1, 0, barrier_arrival_.data()};
    for (int q = 0; q < nprocs_; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (status_[qi] != Status::kInBarrier) continue;
      e.released |= std::uint64_t{1} << q;
      if (e.last < 0 && barrier_arrival_[qi] == release) e.last = q;
    }
    for (SimObserver* o : observers_) o->on_barrier_release(e);
  }
  for (int q = 0; q < nprocs_; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    if (status_[qi] != Status::kInBarrier) continue;
    const std::uint64_t waited = release - barrier_arrival_[qi];
    stats_[qi].barrier_wait_ns += static_cast<double>(waited);
    stats_[qi].barrier_wait_phase_ns[static_cast<int>(phase_[qi])] +=
        static_cast<double>(waited);
    stats_[qi].barrier_wait_events.add(static_cast<double>(waited));
    clock_[qi] = release;
    set_active(q);
  }
  barrier_arrived_ = 0;
}

// --- operations ---

void SimContext::op_lock(int p, const void* addr) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  ++stats_[idx].lock_acquires[static_cast<int>(phase_[idx])];
  wait_for_turn(p);
  const auto acquire = [&](std::uint64_t now) { return mem_->on_acquire(p, addr, now); };
  LockState& ls = locks_[addr];
  if (!ls.held) {
    ls.held = true;
    ls.holder = p;
    charge(p, ChargeKind::kAcquire, addr, 0, nullptr, acquire);
    return;
  }
  const std::uint64_t request_ns = clock_[idx];
  for (SimObserver* o : observers_)
    o->on_lock_request({p, addr, request_ns, request_ns, -1, 0});
  ls.waiters.emplace_back(request_ns, p);
  leave_active(p, Status::kBlockedLock);
  // Parked until a releaser grants us the lock and re-admits us (op_unlock).
  while (status_[idx] != Status::kActive) fiber_reschedule();
  const std::uint64_t waited = clock_[idx] - request_ns;
  stats_[idx].lock_wait_ns += static_cast<double>(waited);
  stats_[idx].lock_wait_phase_ns[static_cast<int>(phase_[idx])] +=
      static_cast<double>(waited);
  stats_[idx].lock_wait_events.add(static_cast<double>(waited));
  for (SimObserver* o : observers_)
    o->on_lock_grant({p, addr, request_ns, clock_[idx], -1, 0});
  // The releaser set our clock to the grant time and made us Active again;
  // run the acquire-side protocol in global virtual-time order.
  wait_for_turn(p);
  charge(p, ChargeKind::kAcquire, addr, 0, nullptr, acquire);
}

void SimContext::op_unlock(int p, const void* addr) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  wait_for_turn(p);
  auto it = locks_.find(addr);
  PTB_CHECK_MSG(it != locks_.end() && it->second.held && it->second.holder == p,
                "unlock of a lock not held by this processor");
  LockState& ls = it->second;
  charge(p, ChargeKind::kRelease, addr, 0, nullptr,
         [&](std::uint64_t now) { return mem_->on_release(p, addr, now); });
  LockEvent e{p, addr, 0, clock_[idx], -1, 0};
  if (ls.waiters.empty()) {
    ls.held = false;
    ls.holder = -1;
  } else {
    // Grant to the earliest request in virtual time (ties by processor id).
    auto best = std::min_element(ls.waiters.begin(), ls.waiters.end());
    e.peer = best->second;
    ls.waiters.erase(best);
    ls.holder = e.peer;
    const auto widx = static_cast<std::size_t>(e.peer);
    clock_[widx] = std::max(clock_[widx], clock_[idx]);
    e.grant_ns = clock_[widx];
    set_active(e.peer);
  }
  for (SimObserver* o : observers_) o->on_lock_release(e);
}

void SimContext::op_barrier(int p) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  ++stats_[idx].barriers;
  wait_for_turn(p);
  charge(p, ChargeKind::kBarrierArrive, nullptr, 0, nullptr,
         [&](std::uint64_t now) { return mem_->on_barrier_arrive(p, now); });
  barrier_arrival_[idx] = clock_[idx];
  leave_active(p, Status::kInBarrier);
  ++barrier_arrived_;
  // The last arrival releases everyone, itself included; earlier arrivals
  // stay parked until it has.
  maybe_release_barrier();
  while (status_[idx] != Status::kActive) fiber_reschedule();
  // Departure protocol in deterministic order (all clocks equal, id breaks
  // the tie). Departures are section-tolerant in the parallel backend: the
  // depart charge touches only the departing processor's own model state, and
  // letting it run while earlier departers sit in their unordered sections is
  // what lets those sections overlap at all.
  wait_for_turn(p, /*allow_sections=*/true);
  charge(p, ChargeKind::kBarrierDepart, nullptr, 0, nullptr,
         [&](std::uint64_t now) { return mem_->on_barrier_depart(p, now); });
}

void SimContext::op_begin_phase(int p, Phase ph) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  const PhaseEvent e{p, phase_[idx], ph, phase_mark_[idx], clock_[idx], mem_->proc_stats(p)};
  stats_[idx].phase_ns[static_cast<int>(phase_[idx])] +=
      static_cast<double>(clock_[idx] - phase_mark_[idx]);
  phase_mark_[idx] = clock_[idx];
  phase_[idx] = ph;
  for (SimObserver* o : observers_) o->on_phase(e);
}

// --- SimProc forwarding ---

void SimProc::read(const void* p, std::size_t n) {
  ctx_->flush_pending(self_);
  ctx_->wait_for_turn(self_);
  ctx_->ordered_charge(self_, p, n, /*is_write=*/false);
}

void SimProc::write(const void* p, std::size_t n) {
  ctx_->flush_pending(self_);
  ctx_->wait_for_turn(self_);
  ctx_->ordered_charge(self_, p, n, /*is_write=*/true);
}

void SimProc::lock(const void* addr) { ctx_->op_lock(self_, addr); }

void SimProc::unlock(const void* addr) { ctx_->op_unlock(self_, addr); }

std::int64_t SimProc::fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v) {
  ctx_->flush_pending(self_);
  ++ctx_->stats_[static_cast<std::size_t>(self_)].fetch_adds;
  ctx_->wait_for_turn(self_);
  ctx_->charge(self_, ChargeKind::kRmw, &ctr, sizeof ctr, nullptr,
               [&](std::uint64_t now) { return ctx_->mem_->on_rmw(self_, &ctr, now); });
  return ctr.fetch_add(v, std::memory_order_relaxed);
}

void SimProc::barrier() { ctx_->op_barrier(self_); }

void SimProc::begin_phase(Phase p) { ctx_->op_begin_phase(self_, p); }

}  // namespace ptb
