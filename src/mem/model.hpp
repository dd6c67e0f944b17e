// Memory-system model interface.
//
// The simulator is execution-driven: the real algorithm code runs and its
// annotated shared-memory operations are fed to one of these protocol models,
// which returns the latency (in virtual nanoseconds) the issuing processor
// pays. Models keep per-line/per-page protocol state keyed by *real*
// addresses inside registered shared regions, so allocation-policy effects
// (false sharing of ORIG's interleaved arrays, locality of LOCAL's
// per-processor pools) emerge from the genuine address stream.
//
// The three protocol models in this directory are the only subclasses
// (ptblint's mem-subclass rule). Observers watch charges through
// sim/observer.hpp instead of wrapping a model, so nothing outside the
// protocol can change a latency.
//
// Thread-safety contract: on_read/on_write/on_rmw/on_acquire/on_release/
// on_barrier are called from the simulator's one scheduler thread (one call
// at a time, in virtual-time order). on_read_shared is the force-phase fast
// path: under SimBackend::kParallel it may be called concurrently from all
// processors' unordered sections, but only during phases in which no ordered
// writes to the same regions occur; models must restrict themselves to
// per-processor state plus commutative atomics there.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/region_table.hpp"
#include "platform/spec.hpp"

namespace ptb {

/// Identifies the concrete protocol model behind a MemModel* so the
/// simulator can dispatch the per-access hot path with a switch on this tag
/// (a direct, devirtualizable call into the `final` class — see
/// mem/dispatch.hpp) instead of a virtual hop. kOther is the
/// PTB_MEM_SLOWPATH oracle's route, which stays on the virtual path.
enum class MemModelKind : std::uint8_t { kIdeal, kInvalidation, kHlrc, kOther };

/// True when PTB_MEM_SLOWPATH is set (non-empty, non-"0") in the
/// environment: the simulator and the protocol models fall back to the
/// reference per-access path — virtual dispatch, no line lookasides, span
/// charges decayed to per-element calls. Read from the environment on every
/// call (models sample it at construction), so tests can toggle it between
/// SimContext constructions; it is the oracle the fast path is proven
/// bit-identical against (tests/test_mem_equiv.cpp, docs/PERF.md).
bool mem_slowpath_enabled();

/// Per-processor memory-event counters (diagnostics, tests, Fig. 15-style
/// reporting).
struct MemProcStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t remote_misses = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t twins = 0;
  std::uint64_t diffs = 0;
  std::uint64_t notices_received = 0;
  std::uint64_t rmws = 0;
};

/// The one place the MemProcStats field list lives: each counter's metrics
/// name (`mem.<metric>` in the registry), its trace instant-event name
/// (nullptr for raw access counters too noisy to trace), and its field.
struct MemCounterDesc {
  const char* metric;
  const char* event;
  std::uint64_t MemProcStats::*field;
};
inline constexpr MemCounterDesc kMemCounters[] = {
    {"reads", nullptr, &MemProcStats::reads},
    {"writes", nullptr, &MemProcStats::writes},
    {"read_misses", "read-miss", &MemProcStats::read_misses},
    {"write_misses", "write-miss", &MemProcStats::write_misses},
    {"remote_misses", "remote-miss", &MemProcStats::remote_misses},
    {"invalidations_sent", "invalidation", &MemProcStats::invalidations_sent},
    {"page_faults", "page-fault", &MemProcStats::page_faults},
    {"twins", "twin", &MemProcStats::twins},
    {"diffs", "diff", &MemProcStats::diffs},
    {"notices_received", "write-notice", &MemProcStats::notices_received},
    {"rmws", nullptr, &MemProcStats::rmws},
};

class MemModel {
 public:
  explicit MemModel(const PlatformSpec& spec, int nprocs)
      : spec_(spec),
        nprocs_(nprocs),
        stats_(static_cast<std::size_t>(nprocs)),
        fast_(!mem_slowpath_enabled()),
        la_(static_cast<std::size_t>(nprocs)) {}
  virtual ~MemModel() = default;

  MemModel(const MemModel&) = delete;
  MemModel& operator=(const MemModel&) = delete;

  /// Registers a shared region; accesses outside registered regions are
  /// treated as private (their cost is the processor's compute charge).
  virtual void register_region(const void* base, std::size_t bytes, HomePolicy policy,
                               int fixed_home, std::string name);

  /// Drops all regions and protocol state (between experiment runs).
  virtual void reset();

  // --- ordered operations (scheduler thread, virtual-time order) ---
  virtual std::uint64_t on_read(int proc, const void* p, std::size_t n,
                                std::uint64_t now) = 0;
  virtual std::uint64_t on_write(int proc, const void* p, std::size_t n,
                                 std::uint64_t now) = 0;
  /// Atomic read-modify-write (e.g. ORIG's shared next-cell counter).
  virtual std::uint64_t on_rmw(int proc, const void* p, std::uint64_t now) = 0;
  /// Protocol work at lock acquisition, *excluding* queueing (the scheduler
  /// models waiting). For SVM protocols this is where write notices are
  /// applied (pages invalidated). `lock` identifies the lock object (the
  /// protocol models ignore it).
  virtual std::uint64_t on_acquire(int proc, const void* lock, std::uint64_t now) = 0;
  /// Protocol work at lock release (HLRC: diff the interval's written pages
  /// to their homes and post write notices).
  virtual std::uint64_t on_release(int proc, const void* lock, std::uint64_t now) = 0;
  /// Barrier protocol, split so release-side work (flushing the interval)
  /// happens at arrival and acquire-side work (applying everyone's write
  /// notices) happens at departure, after all processors arrived.
  virtual std::uint64_t on_barrier_arrive(int proc, std::uint64_t now) = 0;
  virtual std::uint64_t on_barrier_depart(int proc, std::uint64_t now) = 0;

  // --- concurrent fast path (read-only phases) ---
  virtual std::uint64_t on_read_shared(int proc, const void* p, std::size_t n) = 0;

  /// Span form of on_read_shared: charges `count` elements of `n` bytes,
  /// element i at `p + i*stride`, in one call. The accounting contract is
  /// strict equivalence with the per-element loop below — same summed
  /// latency, same MemProcStats deltas, same protocol/cache state
  /// transitions in the same order — so annotation layers may batch
  /// contiguous runs freely without perturbing virtual time (docs/PERF.md).
  /// Protocol models override this with a single-resolution implementation;
  /// this default IS the contract.
  virtual std::uint64_t on_read_shared_span(int proc, const void* p, std::size_t n,
                                            std::size_t stride, std::size_t count) {
    const char* a = static_cast<const char*>(p);
    std::uint64_t cost = 0;
    for (std::size_t i = 0; i < count; ++i) cost += on_read_shared(proc, a + i * stride, n);
    return cost;
  }

  /// Execution-serialization promise from the simulator: under the fiber
  /// backend an unordered stretch is host-atomic, which licenses the
  /// eager-invalidation cache mode (see CacheModel::touch_nv). Default off:
  /// kParallel overlaps unordered sections on host workers, where sweeping
  /// other processors' cache entries would race with their probes, and the
  /// PTB_MEM_SLOWPATH oracle keeps the lazy scheme as the reference.
  virtual void set_serialized(bool) {}

  /// Concrete-model tag for sealed dispatch (mem/dispatch.hpp).
  virtual MemModelKind kind() const = 0;

  const PlatformSpec& spec() const { return spec_; }
  int nprocs() const { return nprocs_; }
  const MemProcStats& proc_stats(int p) const { return stats_[static_cast<std::size_t>(p)]; }
  void reset_stats();

 protected:
  /// Address resolution shared by the protocol models: lookaside-accelerated
  /// (per-processor LineLookaside — safe on the concurrent read_shared path)
  /// unless PTB_MEM_SLOWPATH, in which case it is exactly
  /// RegionTable::resolve_range. Both routes return bit-identical results.
  /// `region` reports the containing region's index (LineLookaside::kNotShared
  /// when unknown or unregistered) for cheap per-block home lookup.
  bool resolve_blocks(int proc, const void* p, std::size_t n, std::size_t& first,
                      std::size_t& last, int& home_first, std::int32_t& region) {
    if (fast_)
      return regions_.resolve_range_cached(p, n, nprocs_,
                                           la_[static_cast<std::size_t>(proc)], first,
                                           last, home_first, region);
    region = LineLookaside::kNotShared;
    return regions_.resolve_range(p, n, nprocs_, first, last, home_first);
  }
  /// Home of a non-first block of a resolved range: region arithmetic when
  /// the region is known, the block_home binary search otherwise.
  int later_block_home(std::int32_t region, std::size_t block) const {
    return region != LineLookaside::kNotShared ? regions_.home_in(region, block, nprocs_)
                                               : regions_.block_home(block, nprocs_);
  }
  /// register_region()/reset() call this: region registration re-sorts the
  /// table (region indices shift) and can turn a cached not-shared line into
  /// a shared one. Protocol transitions never require a flush — the memoized
  /// mapping is a pure function of the region list. Only lookasides filled
  /// since their last flush are cleared (LineLookaside::flush).
  void flush_lookasides() {
    for (auto& la : la_) la.flush();
  }

  PlatformSpec spec_;
  int nprocs_;
  RegionTable regions_;
  std::vector<MemProcStats> stats_;
  const bool fast_;  // !PTB_MEM_SLOWPATH, sampled at construction
  std::vector<LineLookaside> la_;  // per processor
};

/// Factory: builds the protocol model the spec asks for.
std::unique_ptr<MemModel> make_mem_model(const PlatformSpec& spec, int nprocs);

}  // namespace ptb
