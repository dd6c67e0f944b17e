// ptb::race — a simulator-integrated dynamic data-race detector.
//
// The paper's central synchronization claims (§2: ORIG/LOCAL/UPDATE are
// correct *because of* per-cell locks; SPACE needs no locks because
// processors own disjoint subspaces) are checked here rather than taken on
// faith. The detector is a FastTrack-style happens-before checker (vector
// clocks with adaptive epoch compression, Flanagan & Freund, PLDI'09)
// combined with an Eraser-style lockset witness (Savage et al., SOSP'97):
// the happens-before relation decides whether two accesses race, and the
// per-granule candidate lockset enriches each report with *why* (which locks,
// if any, consistently protected the location).
//
// It plugs into the simulator as a SimObserver (sim/observer.hpp): the
// ordered charges (read/write, ordered_load/_store, fetch_add, lock acquire
// and release, barrier arrive and depart) and phase changes drive it, all
// delivered on the simulator's one scheduler thread in virtual-time order,
// so the detector needs no synchronization of its own and every run is
// deterministic. It ignores unordered charges, so kParallel keeps
// overlapping unordered sections under --race. Opt-in via --race /
// PTB_RACE; when disabled nothing is attached and each operation pays the
// simulator's empty-observer-list check.
//
// The happens-before edges mirror the simulated synchronization exactly:
//
//   lock release / acquire     release assigns the lock's clock from the
//                              holder; acquire joins it into the acquirer
//   ordered_store / _load      release/acquire on the atomic object itself
//                              (the publish pattern in shared_insert)
//   fetch_add                  acquire+release (acq_rel RMW on the counter)
//   barrier                    arrive joins every participant's clock into a
//                              generation accumulator; depart joins it back
//
// read_shared() is deliberately NOT checked: it is the force-phase fast path
// whose contract ("only in phases where the touched data is not written") is
// a phase-structure invariant, not a per-access one — e.g. the partitioning
// phase legitimately reads stale per-body charge slots it is concurrently
// re-claiming, resolved by the phase barrier.
//
// Shadow state is keyed through the detector's own RegionTable at a 4-byte
// granule (SPACE's per-processor count slots are adjacent int32s; an 8-byte
// granule would report false sharing as racing). See docs/ANALYSIS.md for
// the shadow-word layout and how to read a report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/region_table.hpp"
#include "rt/phase.hpp"
#include "sim/observer.hpp"
#include "support/zero_pages.hpp"

namespace ptb::race {

/// Shadow granule size (bytes). Must divide the common shared-field sizes;
/// 4 keeps adjacent per-processor int32 slots (SPACE's count rows) distinct.
inline constexpr std::size_t kGranuleBytes = 4;

// --- epochs -----------------------------------------------------------------
// An epoch packs one processor's (clock, phase, proc) into a single word so
// the common shadow case (location last accessed by one processor) costs one
// compare instead of a vector-clock walk. The phase bits ride along purely
// for race-report context; happens-before comparisons use the clock alone.
namespace epoch {

inline constexpr int kProcBits = 8;   // SimContext caps nprocs at kMaxSimProcs (64)
inline constexpr int kPhaseBits = 4;  // kNumPhases == 6
inline constexpr int kShift = kProcBits + kPhaseBits;
inline constexpr std::uint64_t kNone = 0;  // clocks start at 1, so 0 is free

inline std::uint64_t pack(std::uint64_t clock, Phase phase, int proc) {
  return (clock << kShift) | (static_cast<std::uint64_t>(phase) << kProcBits) |
         static_cast<std::uint64_t>(proc);
}
inline std::uint64_t clock_of(std::uint64_t e) { return e >> kShift; }
inline int proc_of(std::uint64_t e) {
  return static_cast<int>(e & ((std::uint64_t{1} << kProcBits) - 1));
}
inline Phase phase_of(std::uint64_t e) {
  return static_cast<Phase>((e >> kProcBits) & ((std::uint64_t{1} << kPhaseBits) - 1));
}

}  // namespace epoch

// --- vector clocks ----------------------------------------------------------

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(int nprocs) : c_(static_cast<std::size_t>(nprocs), 0) {}

  int size() const { return static_cast<int>(c_.size()); }
  std::uint64_t get(int p) const { return c_[static_cast<std::size_t>(p)]; }
  void set(int p, std::uint64_t v) { c_[static_cast<std::size_t>(p)] = v; }
  void increment(int p) { ++c_[static_cast<std::size_t>(p)]; }

  /// Component-wise maximum (the happens-before join).
  void join(const VectorClock& o) {
    for (std::size_t i = 0; i < c_.size(); ++i)
      if (o.c_[i] > c_[i]) c_[i] = o.c_[i];
  }
  void assign(const VectorClock& o) { c_ = o.c_; }
  void clear() { c_.assign(c_.size(), 0); }

  /// True when an event at (clock, p) happens-before this clock's owner.
  bool covers(std::uint64_t clock, int p) const {
    return clock <= c_[static_cast<std::size_t>(p)];
  }

 private:
  std::vector<std::uint64_t> c_;
};

// --- locksets ---------------------------------------------------------------

/// Interning table for sets of lock addresses: every distinct set gets a
/// small id, so the per-granule candidate lockset is one uint32_t and the
/// Eraser intersection is computed once per distinct (candidate, held) pair.
class LocksetTable {
 public:
  static constexpr std::uint32_t kEmpty = 0;

  LocksetTable() { sets_.emplace_back(); /* id 0 = {} */ }

  std::uint32_t add(std::uint32_t set, std::uintptr_t lock);
  std::uint32_t remove(std::uint32_t set, std::uintptr_t lock);
  std::uint32_t intersect(std::uint32_t a, std::uint32_t b);
  const std::vector<std::uintptr_t>& contents(std::uint32_t id) const {
    return sets_[id];
  }
  std::size_t size() const { return sets_.size(); }

 private:
  std::uint32_t intern(std::vector<std::uintptr_t> sorted);

  std::vector<std::vector<std::uintptr_t>> sets_;
  std::map<std::vector<std::uintptr_t>, std::uint32_t> ids_;
};

// --- reports ----------------------------------------------------------------

/// One detected race: two accesses to the same granule, unordered by
/// happens-before, at least one a write. `first` is reconstructed from the
/// shadow word (the earlier access in virtual time), `second` is the access
/// that tripped the check.
struct Race {
  std::string region;      // owning shared region (RegionTable name)
  std::size_t offset = 0;  // byte offset of the granule within the region
  int first_proc = -1;
  Phase first_phase = Phase::kOther;
  bool first_write = false;
  int second_proc = -1;
  Phase second_phase = Phase::kOther;
  bool second_write = false;
  std::uint64_t when_ns = 0;  // virtual time of the second access
  /// Locks held by the second access (region-relative names when resolvable).
  std::vector<std::string> held_locks;
  /// Eraser witness: did some lock protect every access to this granule so
  /// far? (With happens-before as the judge this is virtually always false
  /// for a reported race — a common lock would have ordered the accesses.)
  bool lockset_consistent = false;
};

struct RaceReport {
  bool enabled = false;
  /// Distinct racy granules (each granule reports at most once).
  std::uint64_t races = 0;
  std::uint64_t checked_reads = 0;
  std::uint64_t checked_writes = 0;
  std::uint64_t atomics = 0;        // ordered load/store + fetch_add sync ops
  std::uint64_t lock_acquires = 0;  // SPACE must finish with 0 of these
  std::uint64_t lock_releases = 0;
  std::uint64_t barriers = 0;  // barrier arrivals
  std::vector<Race> top;       // first kMaxStored distinct races, in order
  static constexpr std::size_t kMaxStored = 64;
};

/// Multi-line human-readable rendering (ptbsim, test failure messages).
std::string format_race_report(const RaceReport& r);

// --- the detector -----------------------------------------------------------

/// The detector, attached by SimContext when race detection is on. Its own
/// RegionTable (block_bytes == kGranuleBytes), filled from the simulator's
/// region registrations, maps access addresses to shadow indices and race
/// reports back to region names.
class RaceDetector final : public SimObserver {
 public:
  explicit RaceDetector(int nprocs);

  const RaceReport& report() const { return report_; }

  void on_run_start(const RunStartEvent& e) override { tracer_ = e.tracer; }
  void on_region(const RegionEvent& e) override;
  void on_charge(const ChargeEvent& e) override;
  void on_phase(const PhaseEvent& e) override;

 private:
  /// Per-granule shadow word (24 bytes): last-write epoch, last-read epoch
  /// (or the shared-read sentinel, with `rvc` indexing the per-proc read
  /// epochs), and the interned Eraser candidate lockset. All zero bytes is
  /// the untouched state (ZeroPages), so the lockset is stored as id + 1.
  struct Shadow {
    std::uint64_t w = epoch::kNone;
    std::uint64_t r = epoch::kNone;
    std::uint32_t rvc = 0;
    std::uint32_t lockset1 = kLocksetUnset;  // candidate lockset id + 1

    bool lockset_set() const { return lockset1 != kLocksetUnset; }
    std::uint32_t lockset() const { return lockset1 - 1; }
    void set_lockset(std::uint32_t id) { lockset1 = id + 1; }
  };
  static constexpr std::uint64_t kReadShared = ~std::uint64_t{0};
  static constexpr std::uint32_t kLocksetUnset = 0;

  /// Inflated read state: full epoch (clock+phase) of each processor's last
  /// read since the last write, kNone where absent.
  struct ReadVC {
    std::vector<std::uint64_t> e;
  };

  // Each of the following runs in virtual-time order. plain() returns the
  // number of *new* distinct races recorded (0 almost always).
  int plain(int proc, const void* p, std::size_t n, bool is_write, std::uint64_t now);
  void atomic(int proc, const void* sync, bool is_write);
  void rmw(int proc, const void* sync);
  void lock_acquire(int proc, const void* lock);
  void lock_release(int proc, const void* lock);
  void barrier_arrive(int proc);
  void barrier_depart(int proc);

  std::uint64_t cur_epoch(int p) const { return epoch_[static_cast<std::size_t>(p)]; }
  void refresh_epoch(int p) {
    const auto i = static_cast<std::size_t>(p);
    epoch_[i] = epoch::pack(vc_[i].get(p), phase_[i], p);
  }
  void release_into(int proc, VectorClock& target);
  VectorClock& sync_clock(const void* addr);
  int check_write(std::size_t g, Shadow& s, int proc, std::uint64_t now);
  int check_read(std::size_t g, Shadow& s, int proc, std::uint64_t now);
  void record_race(std::size_t g, const Shadow& s, std::uint64_t first_epoch,
                   bool first_write, int proc, bool second_write, std::uint64_t now);
  void granule_location(std::size_t g, std::string& region, std::size_t& offset) const;
  std::string lock_name(std::uintptr_t lock) const;

  int nprocs_;
  RegionTable regions_;
  trace::Tracer* tracer_ = nullptr;  // emits a `race` instant per new race
  ZeroPages<Shadow> shadow_;
  std::vector<ReadVC> rvcs_;
  std::vector<VectorClock> vc_;           // per-processor clocks
  std::vector<std::uint64_t> epoch_;      // cached pack(vc_[p][p], phase, p)
  std::vector<Phase> phase_;
  std::vector<std::uint32_t> held_;       // per-processor held lockset id
  LocksetTable locksets_;
  std::unordered_map<const void*, VectorClock> syncs_;  // locks + atomics
  std::unordered_set<std::size_t> reported_;            // deduped racy granules
  // Stable report names for locks outside registered regions: interned in
  // first-acquisition order, which is virtual-time deterministic, so reports
  // never carry host addresses (they vary across processes under ASLR).
  std::unordered_map<std::uintptr_t, int> lock_ids_;

  // Barrier happens-before: two alternating generation slots, because the
  // last departures of generation g can interleave (at equal virtual time,
  // larger proc ids) with the first arrivals of generation g+1. A third
  // concurrent generation is impossible: g+1 cannot release until every
  // alive processor has arrived at it, and a processor still departing g
  // has not.
  struct BarrierGen {
    VectorClock acc;
    bool departing = false;
  };
  BarrierGen bgen_[2];
  int bcur_ = 0;
  std::vector<std::uint8_t> pgen_;  // which slot each processor arrived in

  RaceReport report_;
};

/// True when PTB_RACE is set to a non-empty, non-"0" value (cached).
bool default_race_enabled();

}  // namespace ptb::race
