// ptb::trace — low-overhead, opt-in event tracing of simulated runs.
//
// A Tracer owns one ring buffer per processor and records two event shapes:
//
//  * spans   — begin/end intervals (phase execution, lock waits, barrier
//              waits), recorded once at span *end* as (ts, dur) pairs;
//  * instants — point events (cache misses, invalidations, page faults,
//              fiber switches), optionally carrying a count.
//
// Timestamps are *virtual* nanoseconds: the simulator is the one runtime
// that traces (NativeRT has no tracer). Event names and categories are static
// strings, so recording an event is a couple of stores — no allocation, no
// formatting, no locking (each processor writes only its own buffer, and the
// simulator serializes processors anyway).
//
// The "off" state is the design center: SimContext keeps a `Tracer*` that
// is null unless the user asked for a trace (--trace / PTB_TRACE). The
// tracer is a SimObserver (sim/observer.hpp): its hooks turn the
// simulator's events into spans and instants, and with nothing attached the
// DES pays one empty-list check per operation (bench_sched_micro guards
// this).
//
// Buffers are bounded: once a processor's buffer is full, further events are
// dropped and counted, keeping the recorded prefix chronologically complete.
// write_chrome_json() serializes everything in the Chrome trace-event format
// (one track per processor), which Perfetto and chrome://tracing load
// directly — see docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace ptb::trace {

// Canonical category names (Chrome "cat" field; used for filtering in the
// viewer). Keep in sync with docs/OBSERVABILITY.md.
inline constexpr const char* kCatPhase = "phase";
inline constexpr const char* kCatSync = "sync";
inline constexpr const char* kCatMem = "mem";
inline constexpr const char* kCatSched = "sched";
inline constexpr const char* kCatRace = "race";
inline constexpr const char* kCatSight = "sight";

struct Event {
  std::uint64_t ts_ns = 0;   // span begin / instant time
  std::uint64_t dur_ns = 0;  // spans only
  const char* name = nullptr;  // static string (phase or event name)
  const char* cat = nullptr;   // static string (kCat*)
  std::uint32_t count = 0;     // instants: event multiplicity; 0 == span
  std::uint32_t flow_id = 0;   // flow halves: nonzero pair id
  char flow_ph = 0;            // 0 = not a flow; 's' = source, 'f' = sink
};

class Tracer final : public SimObserver {
 public:
  /// `capacity_per_proc` bounds each processor's buffer (events, not bytes);
  /// 0 means unbounded.
  explicit Tracer(int nprocs, std::size_t capacity_per_proc = kDefaultCapacity);

  int nprocs() const { return nprocs_; }

  /// Clock domain label written into the trace metadata ("virtual", the
  /// default, for the simulator).
  void set_clock_domain(const char* domain) { clock_domain_ = domain; }
  const char* clock_domain() const { return clock_domain_; }

  /// Records a completed [begin, end) span on `proc`'s track. `name`/`cat`
  /// must be static strings.
  void span(int proc, const char* cat, const char* name, std::uint64_t begin_ns,
            std::uint64_t end_ns) {
    push(proc, Event{begin_ns, end_ns - begin_ns, name, cat, 0});
  }

  /// Records a point event; `count` carries multiplicity (e.g. 3 cache
  /// misses charged by one ordered operation).
  void instant(int proc, const char* cat, const char* name, std::uint64_t ts_ns,
               std::uint32_t count = 1) {
    push(proc, Event{ts_ns, 0, name, cat, count, 0, 0});
  }

  /// Records a point event on the track of the replayed unit about to reach
  /// this tracer (on_replay), just before the memory instants of the unit's
  /// charge `charge`: where it lands when each charge is notified on its
  /// own. SightModel, which is notified before the tracer, emits its class
  /// changes during a replay this way.
  void instant_at_charge(std::size_t charge, const char* cat, const char* name,
                         std::uint64_t ts_ns) {
    held_.push_back({charge, Event{ts_ns, 0, name, cat, 1, 0, 0}});
  }

  /// Records a causal arrow from (`from_proc`, from_ts) to (`to_proc`,
  /// to_ts) as a Chrome flow-event pair; Perfetto draws it between the
  /// tracks. Used for lock holder→waiter handoffs.
  void flow(int from_proc, int to_proc, const char* cat, const char* name,
            std::uint64_t from_ts, std::uint64_t to_ts) {
    const std::uint32_t id = ++next_flow_id_;
    push(from_proc, Event{from_ts, 0, name, cat, 0, id, 's'});
    push(to_proc, Event{to_ts, 0, name, cat, 0, id, 'f'});
  }

  const std::vector<Event>& events(int proc) const {
    return buffers_[static_cast<std::size_t>(proc)];
  }
  /// Events discarded on `proc` because its buffer filled up.
  std::uint64_t dropped(int proc) const {
    return dropped_[static_cast<std::size_t>(proc)];
  }
  std::uint64_t total_events() const;

  /// Drops all recorded events (buffers keep their capacity).
  void clear();

  /// Serializes as Chrome trace-event JSON ({"traceEvents": [...]}), one
  /// thread track per processor, timestamps in microseconds (ns precision
  /// kept via fractional digits).
  void write_chrome_json(std::FILE* f) const;
  /// Convenience wrapper; returns false (with a message on stderr) if the
  /// path cannot be opened.
  bool write_chrome_json(const std::string& path) const;
  /// The same serialization into a string (tests, in-memory consumers).
  std::string chrome_json() const;

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 17;

  // --- SimObserver: how a simulated run lands on the tracks ---
  /// Phase spans, lock/barrier waits with lock handoff flows, fiber
  /// switches, and one `mem` instant per protocol counter a charge advanced
  /// (count = delta).
  UnorderedUse unordered_use() const override { return UnorderedUse::kSpans; }
  void on_charge(const ChargeEvent& e) override;
  void on_replay(const ReplayEvent& e) override;
  void on_lock_grant(const LockEvent& e) override;
  void on_lock_release(const LockEvent& e) override;
  void on_barrier_release(const BarrierReleaseEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_finish(const PhaseEvent& e) override { on_phase(e); }
  void on_switch(const SwitchEvent& e) override;

 private:
  void push(int proc, const Event& e) {
    auto& buf = buffers_[static_cast<std::size_t>(proc)];
    if (capacity_ != 0 && buf.size() >= capacity_) {
      ++dropped_[static_cast<std::size_t>(proc)];
      return;
    }
    buf.push_back(e);
  }

  /// One `mem` instant per traced counter that moved from `before` to `after`.
  void mem_instants(int proc, std::uint64_t now, const MemProcStats& before,
                    const MemProcStats& after);

  struct Held {
    std::size_t charge;
    Event event;
  };

  int nprocs_;
  std::size_t capacity_;
  const char* clock_domain_ = "virtual";
  std::uint32_t next_flow_id_ = 0;
  std::vector<std::vector<Event>> buffers_;
  std::vector<std::uint64_t> dropped_;
  std::vector<Held> held_;  // instant_at_charge, in charge order
};

/// Resolves the trace output path: an explicit --trace flag wins; otherwise
/// the PTB_TRACE environment variable; otherwise "" (tracing off).
std::string trace_path_from(const std::string& flag_value);

}  // namespace ptb::trace
