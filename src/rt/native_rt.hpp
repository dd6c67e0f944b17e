// Native runtime: real std::thread parallelism on the host machine.
//
// This is the runtime a downstream user of the library runs in production on
// a real shared-memory multiprocessor. Shared-memory *annotations*
// (read/write/compute) are no-ops that the optimizer deletes; locks map to a
// hashed mutex pool; the barrier is a std::barrier. Phase times and barrier
// waits are wall-clock per thread. Native runs are not traced: the tracer is
// a simulator observer.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mem/region_table.hpp"  // HomePolicy (annotation only; no cost here)
#include "rt/phase.hpp"
#include "support/check.hpp"

namespace ptb {

namespace trace {
class Tracer;
}  // namespace trace

class NativeContext;

class NativeProc {
 public:
  NativeProc(NativeContext& ctx, int self) : ctx_(&ctx), self_(self) {}

  int self() const { return self_; }
  int nprocs() const;

  void compute(double /*units*/) {}
  void compute_n(double /*units*/, std::uint64_t /*count*/) {}
  void read(const void* /*p*/, std::size_t /*n*/) {}
  void write(const void* /*p*/, std::size_t /*n*/) {}
  void read_shared(const void* /*p*/, std::size_t /*n*/) {}
  void read_shared_span(const void* /*p*/, std::size_t /*n*/, std::size_t /*stride*/,
                        std::size_t /*count*/) {}
  /// Unordered sections are a simulator contract; real threads already
  /// overlap freely, so the body just runs inline.
  template <class F>
  void unordered(F&& f) {
    f();
  }

  /// No tracer: phase code that emits its own sub-spans skips them.
  trace::Tracer* tracer() const { return nullptr; }
  std::uint64_t trace_now() const { return 0; }

  /// Combined charge + load/store of a shared atomic that lock-free readers
  /// race on. On real threads this is a plain acquire/release access.
  template <class T>
  T ordered_load(const std::atomic<T>& a, const void* /*charge_addr*/, std::size_t /*n*/) {
    return a.load(std::memory_order_acquire);
  }
  template <class T>
  void ordered_store(std::atomic<T>& a, T v, const void* /*charge_addr*/,
                     std::size_t /*n*/) {
    a.store(v, std::memory_order_release);
  }

  void lock(const void* addr);
  void unlock(const void* addr);
  std::int64_t fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v);
  void barrier();
  void begin_phase(Phase p);

 private:
  NativeContext* ctx_;
  int self_;
};

class NativeContext {
 public:
  using Proc = NativeProc;

  explicit NativeContext(int nprocs)
      : nprocs_(nprocs), stats_(static_cast<std::size_t>(nprocs)),
        phase_(static_cast<std::size_t>(nprocs), Phase::kOther),
        mark_(static_cast<std::size_t>(nprocs)),
        lock_depth_(static_cast<std::size_t>(nprocs), 0),
        barrier_(nprocs) {
    PTB_CHECK(nprocs >= 1);
  }

  int nprocs() const { return nprocs_; }

  /// Region registration is a no-op outside the simulator; present so the
  /// application driver is runtime-generic.
  void register_region(const void*, std::size_t, HomePolicy, int, std::string) {}

  /// Runs f(NativeProc&) on nprocs real threads (SPMD style) and joins them.
  template <class F>
  void run(F&& f) {
    const auto t0 = Clock::now();
    for (auto& m : mark_) m = t0;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nprocs_));
    for (int p = 0; p < nprocs_; ++p) {
      threads.emplace_back([this, p, &f] {
        NativeProc proc(*this, p);
        f(proc);
        flush_phase(p);
      });
    }
    for (auto& t : threads) t.join();
  }

  const std::vector<ProcStats>& stats() const { return stats_; }
  void reset_stats() {
    stats_.assign(static_cast<std::size_t>(nprocs_), ProcStats{});
  }

 private:
  friend class NativeProc;
  // ptblint: allow(wall-clock) -- native runtimes report real host time by contract; the DES virtual-time domain never reads it
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNumMutexes = 4096;

  std::mutex& mutex_for(const void* addr) {
    // Pointer-hash into a fixed pool. Safe because no builder ever holds two
    // cell locks at once (asserted in debug builds), so hash collisions
    // cannot deadlock.
    auto h = reinterpret_cast<std::uintptr_t>(addr);
    h ^= h >> 17;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return mutexes_[h % kNumMutexes];
  }

  void flush_phase(int p) {
    const auto now = Clock::now();
    const auto idx = static_cast<std::size_t>(p);
    stats_[idx].phase_ns[static_cast<int>(phase_[idx])] +=
        std::chrono::duration<double, std::nano>(now - mark_[idx]).count();
    mark_[idx] = now;
  }

  int nprocs_;
  std::vector<ProcStats> stats_;
  std::vector<Phase> phase_;
  std::vector<Clock::time_point> mark_;
  std::vector<int> lock_depth_;
  std::barrier<> barrier_;
  std::mutex mutexes_[kNumMutexes];
};

inline int NativeProc::nprocs() const { return ctx_->nprocs_; }

inline void NativeProc::lock(const void* addr) {
  const auto idx = static_cast<std::size_t>(self_);
  ++ctx_->stats_[idx].lock_acquires[static_cast<int>(ctx_->phase_[idx])];
  PTB_DCHECK(++ctx_->lock_depth_[idx] == 1);
  ctx_->mutex_for(addr).lock();
}

inline void NativeProc::unlock(const void* addr) {
  ctx_->mutex_for(addr).unlock();
  PTB_DCHECK(--ctx_->lock_depth_[static_cast<std::size_t>(self_)] == 0);
}

inline std::int64_t NativeProc::fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v) {
  ++ctx_->stats_[static_cast<std::size_t>(self_)].fetch_adds;
  return ctr.fetch_add(v, std::memory_order_acq_rel);
}

inline void NativeProc::barrier() {
  auto& st = ctx_->stats_[static_cast<std::size_t>(self_)];
  ++st.barriers;
  const int phase = static_cast<int>(ctx_->phase_[static_cast<std::size_t>(self_)]);
  const auto t0 = NativeContext::Clock::now();
  ctx_->barrier_.arrive_and_wait();
  const auto t1 = NativeContext::Clock::now();
  const double waited = std::chrono::duration<double, std::nano>(t1 - t0).count();
  st.barrier_wait_ns += waited;
  st.barrier_wait_phase_ns[phase] += waited;
  st.barrier_wait_events.add(waited);
}

inline void NativeProc::begin_phase(Phase p) {
  ctx_->flush_phase(self_);
  ctx_->phase_[static_cast<std::size_t>(self_)] = p;
}

}  // namespace ptb
