// Invalidation-based hardware/fine-grain coherence cost model.
//
// One implementation covers three of the paper's platforms, differing only in
// constants (PlatformSpec):
//   * kBus (SGI Challenge): uniform miss cost, snooping invalidation, optional
//     bus-occupancy serialization;
//   * kDirectory (SGI Origin2000): local/remote/3-hop miss asymmetry,
//     per-sharer invalidation cost;
//   * kFineGrainSC (Typhoon-0 SC): identical protocol structure, but miss
//     costs include the software protocol handlers on both ends.
//
// Per-block state: a sharer bitmask, a dirty owner, and a coherence *epoch*
// (bumped on every ownership change) that lazily invalidates other caches —
// see cache_model.hpp.
#pragma once

#include <atomic>

#include "mem/cache_model.hpp"
#include "mem/model.hpp"
#include "support/zero_pages.hpp"

namespace ptb {

class InvalidationModel final : public MemModel {
 public:
  InvalidationModel(const PlatformSpec& spec, int nprocs);

  void register_region(const void* base, std::size_t bytes, HomePolicy policy,
                       int fixed_home, std::string name) override;
  void reset() override;

  std::uint64_t on_read(int proc, const void* p, std::size_t n, std::uint64_t now) override;
  std::uint64_t on_write(int proc, const void* p, std::size_t n, std::uint64_t now) override;
  std::uint64_t on_rmw(int proc, const void* p, std::uint64_t now) override;
  std::uint64_t on_acquire(int proc, const void* lock, std::uint64_t now) override;
  std::uint64_t on_release(int proc, const void* lock, std::uint64_t now) override;
  std::uint64_t on_barrier_arrive(int proc, std::uint64_t now) override;
  std::uint64_t on_barrier_depart(int proc, std::uint64_t now) override;

  // The unordered force-phase path is header-inline: through the sealed
  // dispatch (mem/dispatch.hpp) the whole charge — resolution, per-line
  // coherence probe, cost — compiles into one direct code path under
  // SimProc::read_shared / read_shared_span.
  std::uint64_t on_read_shared(int proc, const void* p, std::size_t n) override {
    std::size_t first, last;
    int home;
    std::int32_t region;
    if (!resolve_blocks(proc, p, n, first, last, home, region)) return 0;
    std::uint64_t cost = 0;
    for (std::size_t b = first; b <= last; ++b) {
      cost += read_one(
          proc, b, [&] { return b == first ? home : later_block_home(region, b); },
          /*ordered=*/false);
    }
    return cost;
  }

  // One resolution for the whole run when it stays inside a single region
  // (the annotation layer's contiguous-slot runs always do); otherwise the
  // base-class per-element loop IS the accounting contract.
  //
  // Within an eligible run, duplicate block visits collapse: element
  // addresses are nondecreasing, so a revisited block was last probed at
  // most (blocks-per-element - 1) distinct fills ago. When that bound is
  // below the cache associativity (or the cache is infinite) the block is
  // provably still resident — it held the newest LRU stamp at its probe and
  // fewer than `ways` fills intervened — and its epoch cannot have moved,
  // because an unordered stretch is host-atomic under the simulator's turn
  // serialization (no other processor runs mid-span). Each duplicate
  // therefore charges exactly the hit cost and re-stamps the LRU entry
  // (CacheModel::restamp), skipping the epoch load, the Line state and the
  // per-visit counter write; `reads` is batched once per span. Per (element,
  // line) the accounting is bit-identical to the scalar loop.
  std::uint64_t on_read_shared_span(int proc, const void* p, std::size_t n,
                                    std::size_t stride, std::size_t count) override {
    if (count == 0) return 0;
    std::size_t first, last;
    int home;
    std::int32_t region;
    if (!fast_ || !resolve_blocks(proc, p, 0, first, last, home, region) ||
        region == LineLookaside::kNotShared)
      return MemModel::on_read_shared_span(proc, p, n, stride, count);
    const Region& r = regions_.regions()[static_cast<std::size_t>(region)];
    const auto a0 = reinterpret_cast<std::uintptr_t>(p);
    const std::size_t nn = n > 0 ? n : 1;
    if (a0 + (count - 1) * stride + nn > r.base + r.bytes)
      return MemModel::on_read_shared_span(proc, p, n, stride, count);
    const unsigned sh = regions_.block_shift();
    const std::uintptr_t region_line = r.base >> sh;
    auto& st = stats_[static_cast<std::size_t>(proc)];
    auto& cache = caches_[static_cast<std::size_t>(proc)];
    const std::size_t max_bpe =
        ((nn + regions_.block_bytes() - 2) >> sh) + 1;  // worst-case blocks/element
    const bool collapse = cache.infinite() || max_bpe <= cache.ways();
    const auto hit_ns = static_cast<std::uint64_t>(spec_.read_hit_ns);
    std::uint64_t cost = 0;
    std::uint64_t visits = 0;
    std::size_t done = 0;  // highest block already visited this span, +1
    for (std::size_t i = 0; i < count; ++i) {
      const std::uintptr_t a = a0 + i * stride;
      std::size_t b0 = r.first_block + ((a >> sh) - region_line);
      const std::size_t b1 = r.first_block + (((a + nn - 1) >> sh) - region_line);
      visits += b1 - b0 + 1;
      if (collapse && b0 < done) {
        const std::size_t dup_last = b1 < done - 1 ? b1 : done - 1;
        for (std::size_t b = b0; b <= dup_last; ++b) {
          cache.restamp(b);
          cost += hit_ns;
        }
        b0 = dup_last + 1;
      }
      for (std::size_t b = b0; b <= b1; ++b)
        cost +=
            probe_one(st, proc, b, [&] { return regions_.home_in(region, b, nprocs_); });
      done = b1 + 1;
    }
    st.reads += visits;
    return cost;
  }

  MemModelKind kind() const override { return MemModelKind::kInvalidation; }

  /// Serialized execution (fiber backend) switches the caches to eager
  /// invalidation: epoch bumps sweep the other processors' entries stale on
  /// the spot (CacheModel::mark_stale), so every read probe skips the shared
  /// per-block epoch load. Provably the same hits/misses/LRU decisions as
  /// the lazy scheme — "entry valid" and "fill epoch == current epoch" are
  /// equivalent by induction over the bump sites (docs/PERF.md). kParallel
  /// stays lazy: there, unordered sections overlap in host time and a sweep
  /// would race with the owning processor's probes. So does the
  /// PTB_MEM_SLOWPATH oracle, which re-checks the equivalence end to end.
  void set_serialized(bool s) override { serialized_ = s; }

  /// Test hook: coherence state of a block resolved from an address.
  struct BlockState {
    bool shared_region = false;
    std::uint64_t sharers = 0;
    int owner = -1;
    std::uint32_t epoch = 0;
    int home = 0;
  };
  BlockState block_state(const void* p);

 private:
  /// Per-block coherence state. Plain words, so an untouched block's zero
  /// bytes are its initial state (ZeroPages): no sharers, no owner (stored
  /// as owner + 1), epoch 0. Accessed through std::atomic_ref because the
  /// read_shared path probes it from several host threads under kParallel.
  struct Line {
    std::uint64_t sharers_;
    std::int32_t owner1_;  // owner + 1; 0 == no owner
    std::uint32_t epoch_;

    std::uint64_t sharers() {
      return std::atomic_ref(sharers_).load(std::memory_order_relaxed);
    }
    void set_sharers(std::uint64_t m) {
      std::atomic_ref(sharers_).store(m, std::memory_order_relaxed);
    }
    void add_sharer(std::uint64_t bit) {
      std::atomic_ref(sharers_).fetch_or(bit, std::memory_order_relaxed);
    }
    std::int32_t owner() {
      return std::atomic_ref(owner1_).load(std::memory_order_relaxed) - 1;
    }
    void set_owner(std::int32_t o) {
      std::atomic_ref(owner1_).store(o + 1, std::memory_order_relaxed);
    }
    std::uint32_t epoch(std::memory_order mo) { return std::atomic_ref(epoch_).load(mo); }
    void set_epoch(std::uint32_t e) {
      std::atomic_ref(epoch_).store(e, std::memory_order_release);
    }
  };

  double miss_cost(int proc, int home, std::int32_t owner) const {
    if (owner >= 0 && owner != proc) return spec_.dirty_miss_ns;  // intervention
    if (uniform_ || home == proc) return spec_.local_miss_ns;
    return spec_.remote_miss_ns;
  }

  /// Home of a block that missed: `home_of()` is evaluated only here, and
  /// never on the bus, where every miss costs the same (miss_cost and the
  /// remote-miss count ignore the home when uniform_).
  template <class HomeFn>
  int miss_home(int proc, HomeFn& home_of) const {
    return uniform_ ? proc : home_of();
  }

  /// Unordered probe: everything read_one does except the `reads` counter,
  /// which the span path batches. The concurrent-read rules (no owner
  /// downgrade, no bus occupancy) apply. `home_of()` yields the block's home
  /// and runs only on a miss (see miss_home).
  template <class HomeFn>
  std::uint64_t probe_one(MemProcStats& st, int proc, std::size_t block, HomeFn home_of) {
    Line& line = lines_[block];
    if (serialized_) {
      if (caches_[static_cast<std::size_t>(proc)].touch_nv(block))
        return static_cast<std::uint64_t>(spec_.read_hit_ns);
    } else {
      const std::uint32_t epoch = line.epoch(std::memory_order_acquire);
      if (caches_[static_cast<std::size_t>(proc)].touch(block, epoch))
        return static_cast<std::uint64_t>(spec_.read_hit_ns);
    }
    ++st.read_misses;
    const int home = miss_home(proc, home_of);
    const double cost = miss_cost(proc, home, line.owner());
    if (!uniform_ && home != proc) ++st.remote_misses;
    line.add_sharer(1ull << proc);
    return static_cast<std::uint64_t>(cost);
  }

  template <class HomeFn>
  std::uint64_t read_one(int proc, std::size_t block, HomeFn home_of, bool ordered) {
    auto& st = stats_[static_cast<std::size_t>(proc)];
    ++st.reads;
    if (!ordered) return probe_one(st, proc, block, home_of);
    Line& line = lines_[block];
    if (serialized_) {
      if (caches_[static_cast<std::size_t>(proc)].touch_nv(block))
        return static_cast<std::uint64_t>(spec_.read_hit_ns);
    } else {
      const std::uint32_t epoch = line.epoch(std::memory_order_acquire);
      if (caches_[static_cast<std::size_t>(proc)].touch(block, epoch))
        return static_cast<std::uint64_t>(spec_.read_hit_ns);
    }

    ++st.read_misses;
    const int home = miss_home(proc, home_of);
    const std::int32_t owner = line.owner();
    double cost = miss_cost(proc, home, owner);
    if (!uniform_ && home != proc) ++st.remote_misses;
    if (owner >= 0 && owner != proc) {
      // Dirty elsewhere: the read downgrades the owner to shared (write-back).
      // Only the globally ordered path mutates this — on the concurrent
      // read-shared fast path every reader pays the intervention cost and the
      // owner is left for the next ordered write to reset, which keeps the
      // fast path deterministic under any host interleaving.
      line.set_owner(-1);
    }
    line.add_sharer(1ull << proc);
    if (spec_.bus_occupancy_ns > 0.0) {
      // Bus serialization is only modeled on the globally ordered path, where
      // virtual time is coherent across processors.
      cost += spec_.bus_occupancy_ns;
    }
    return static_cast<std::uint64_t>(cost);
  }

  bool uniform_;  // bus: every miss costs the same regardless of home
  bool serialized_ = false;  // eager-invalidation mode (see set_serialized)
  ZeroPages<Line> lines_;  // per global block
  std::vector<CacheModel> caches_;
};

}  // namespace ptb
