// Walk-ahead: an unordered phase's walks, run ahead of their sections on one
// helper thread and handed over as recorded charges.
//
// The force walk is pure: its branches depend only on body positions and the
// tree, which no one writes during the phase, never on virtual time or cache
// state. So a helper thread can walk a processor's bodies before that
// processor's section runs, recording every charge the walk issues through
// ChargeRecorder (a runtime that only records), and the section then charges
// the records in body order through SimProc::replay. The replay makes the
// same protocol-model calls in the same order, so cache state, pending cost,
// counters and every observer event are the ones the section would have
// produced by walking itself (DESIGN.md decision 17).
//
// The ring. A phase is armed with each processor's unit count (its bodies)
// and a walk function. Units are grouped into chunks of kChunkUnits
// consecutive units of one processor. The helper walks chunks in
// processor-id order, the order in which fiber sections run, into a fixed
// number of chunk buffers; each section takes its own chunks in order,
// replays them and releases their buffers. Arming waits until the helper has
// walked the phase's first chunk, so every phase replays at least one chunk.
// After that, a section that reaches a chunk the helper has not claimed yet
// claims it and walks it itself, so a section never waits for the helper to
// get ahead. Both sides block on condition variables rather than spin, and a
// section waits only for a chunk the helper is walking at that moment, so no
// order of sections (one scheduler thread, kParallel pool workers, a single
// host CPU) can deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "platform/spec.hpp"
#include "support/check.hpp"

namespace ptb {

/// One recorded unordered charge, 16 bytes: a read_shared of `bytes` at
/// `addr` (count 1) or a span of `count` elements `stride` apart, then
/// `compute_ns` of compute charged after it. A record with count 0 is a
/// compute charge alone.
struct ChargeRecord {
  const void* addr;
  std::uint16_t bytes;
  std::uint16_t stride;
  std::uint16_t count;
  std::uint16_t compute_ns;
};
static_assert(sizeof(ChargeRecord) == 16);

/// The recording runtime: the read_shared / read_shared_span / compute subset
/// of SimProc that detail::gather_walk uses, appending records instead of
/// charging. Each compute call costs compute_ns(), as on SimProc, and folds
/// into the record before it (pending adds commute, and nothing observes
/// pending cost between the two), so a walk step is one record. Folding
/// never reaches back past the records that existed when the recorder was
/// made: each unit gets its own recorder, so its records replay as a range
/// of their own.
class ChargeRecorder {
 public:
  ChargeRecorder(std::vector<ChargeRecord>& out, double ns_per_work)
      : out_(&out), ns_per_work_(ns_per_work), floor_(out.size()) {}

  void read_shared(const void* p, std::size_t n) { push(p, n, n, 1); }
  void read_shared_span(const void* p, std::size_t n, std::size_t stride,
                        std::size_t count) {
    if (count == 0) return;
    if (count == 1)
      push(p, n, n, 1);
    else
      push(p, n, stride, count);
  }
  void compute(double units) {
    std::uint64_t ns = compute_ns(units, ns_per_work_);
    if (ns == 0) return;
    if (out_->size() > floor_ && out_->back().compute_ns + ns <= kMax16) {
      out_->back().compute_ns = static_cast<std::uint16_t>(out_->back().compute_ns + ns);
      return;
    }
    for (; ns > kMax16; ns -= kMax16) out_->push_back({nullptr, 0, 0, 0, kMax16});
    out_->push_back({nullptr, 0, 0, 0, static_cast<std::uint16_t>(ns)});
  }

 private:
  static constexpr std::uint16_t kMax16 = 0xffff;

  void push(const void* p, std::size_t n, std::size_t stride, std::size_t count) {
    PTB_CHECK_MSG(n <= kMax16 && stride <= kMax16 && count <= kMax16,
                  "recorded charge too wide for a ChargeRecord");
    out_->push_back({p, static_cast<std::uint16_t>(n), static_cast<std::uint16_t>(stride),
                     static_cast<std::uint16_t>(count), 0});
  }

  std::vector<ChargeRecord>* out_;
  double ns_per_work_;
  std::size_t floor_;
};

class WalkAhead {
 public:
  /// Walks unit `unit` of processor `proc`: records its charges into `rec`
  /// and writes its result (the plan's out_bytes) to `out`. Runs on the
  /// helper thread; it must read only state no one writes during the phase.
  using WalkFn =
      std::function<void(int proc, std::size_t unit, ChargeRecorder& rec, void* out)>;

  /// What a phase walks: units[q] units for each processor q.
  struct Plan {
    std::vector<std::size_t> units;
    std::size_t out_bytes = 0;
    WalkFn walk;
  };

  /// A walked chunk: units [first, first + count) of one processor.
  struct Chunk {
    std::size_t index = 0;  // in the phase's processor-major chunk order
    std::size_t first = 0;
    std::size_t count = 0;
    std::vector<ChargeRecord> records;
    std::vector<std::uint32_t> ends;  // unit u: records [u ? ends[u-1] : 0, ends[u])
    std::vector<std::uint64_t> outs;  // unit u's result at word u * out_words
    std::size_t out_words = 0;

    const ChargeRecord* unit_begin(std::size_t u) const {
      return records.data() + (u == 0 ? 0 : ends[u - 1]);
    }
    std::size_t unit_size(std::size_t u) const {
      return ends[u] - (u == 0 ? 0 : ends[u - 1]);
    }
    template <class Out>
    Out out(std::size_t u) const {
      static_assert(std::is_trivially_copyable_v<Out>);
      Out o;
      std::memcpy(static_cast<void*>(&o), outs.data() + u * out_words, sizeof(Out));
      return o;
    }
  };

  /// Sized to keep the ring well under a megabyte: one body of a force walk
  /// leaves about 550 records (9 KB) at n=16384, and six chunks of eight
  /// bodies let the helper run far enough ahead (docs/PERF.md §10).
  static constexpr std::size_t kChunkUnits = 8;
  static constexpr std::size_t kSlots = 6;

  WalkAhead(int nprocs, double ns_per_work);
  ~WalkAhead();
  WalkAhead(const WalkAhead&) = delete;
  WalkAhead& operator=(const WalkAhead&) = delete;

  /// Processor p enters a walk phase. The first processor to enter each
  /// phase arms it with make_plan(), starting the helper thread on the first
  /// arm, and returns once the helper has walked the phase's first chunk;
  /// every processor must enter each phase before any enters the next (the
  /// phases are separated by barriers).
  template <class MakePlan>
  void enter(int p, MakePlan&& make_plan) {
    if (entered_[static_cast<std::size_t>(p)]++ == phases_) {
      ++phases_;
      arm(make_plan());
    }
  }

  /// Processor p's chunk k of the armed phase, once the helper has walked
  /// it, or null when the helper had not claimed it: the caller has claimed
  /// it and walks those units itself. Call once per chunk, in order.
  const Chunk* take(int p, std::size_t k);
  /// Returns a taken chunk's buffer to the helper.
  void release(const Chunk* c);

  /// Stops and joins the helper and forgets the armed phase. The next enter
  /// arms a new one.
  void stop();

  /// How many chunks take() has handed over walked, since construction: at
  /// least one per phase whose sections took every chunk. Which other chunks
  /// the helper wins depends on host timing.
  std::uint64_t handed();

 private:
  enum class State : std::uint8_t { kOpen, kSection, kWalking, kReady, kTaken, kDone };

  void arm(Plan plan);
  /// Moves the helper's cursor to the first chunk nobody has claimed; false
  /// when there is none. Requires m_.
  bool open_chunk();
  void helper_main();
  void fill(Chunk& c, int p, std::size_t k) const;

  const double ns_per_work_;
  std::vector<std::uint64_t> entered_;  // scheduler thread only
  std::uint64_t phases_ = 0;

  std::mutex m_;
  std::condition_variable helper_cv_;  // helper: an open chunk and a free slot, or stop
  std::condition_variable ready_cv_;   // sections and arm: a walk finished
  Plan plan_;
  std::vector<std::size_t> base_;      // processor q's chunks: [base_[q], base_[q + 1])
  std::vector<State> state_;           // per chunk of the armed phase
  std::vector<std::uint32_t> slot_of_;  // per chunk: its buffer from kWalking to kTaken
  std::vector<Chunk> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t cursor_ = 0;  // the helper has passed every chunk before this one
  std::size_t walking_ = 0;
  std::uint64_t handed_ = 0;
  bool stop_ = false;
  std::thread helper_;
};

}  // namespace ptb
