#include "mem/invalidation_model.hpp"

#include <bit>

#include "support/check.hpp"

namespace ptb {

InvalidationModel::InvalidationModel(const PlatformSpec& spec, int nprocs)
    : MemModel(spec, nprocs), uniform_(spec.protocol == Protocol::kBus) {
  PTB_CHECK_MSG(nprocs <= 64, "sharer bitmask holds at most 64 processors");
  regions_.set_block_bytes(spec.block_bytes);
  caches_.resize(static_cast<std::size_t>(nprocs));
  for (auto& c : caches_)
    c.init(spec.cache_bytes, spec.block_bytes, spec.cache_ways);
}

void InvalidationModel::register_region(const void* base, std::size_t bytes,
                                        HomePolicy policy, int fixed_home,
                                        std::string name) {
  MemModel::register_region(base, bytes, policy, fixed_home, std::move(name));
  // Region registration happens before parallel execution; existing blocks
  // keep their state and the new ones start untouched.
  lines_.grow(regions_.total_blocks());
}

void InvalidationModel::reset() {
  MemModel::reset();
  lines_.clear();
  for (auto& c : caches_) c.clear();
}

std::uint64_t InvalidationModel::on_read(int proc, const void* p, std::size_t n,
                                         std::uint64_t /*now*/) {
  std::size_t first, last;
  int home;
  std::int32_t region;
  if (!resolve_blocks(proc, p, n, first, last, home, region)) return 0;
  std::uint64_t cost = 0;
  for (std::size_t b = first; b <= last; ++b) {
    cost += read_one(
        proc, b, [&] { return b == first ? home : later_block_home(region, b); },
        /*ordered=*/true);
  }
  return cost;
}

std::uint64_t InvalidationModel::on_write(int proc, const void* p, std::size_t n,
                                          std::uint64_t /*now*/) {
  std::size_t first, last;
  int home;
  std::int32_t region;
  if (!resolve_blocks(proc, p, n, first, last, home, region)) return 0;
  auto& st = stats_[static_cast<std::size_t>(proc)];
  std::uint64_t cost = 0;
  const std::uint64_t self_bit = 1ull << proc;
  for (std::size_t b = first; b <= last; ++b) {
    ++st.writes;
    Line& line = lines_[b];
    std::uint32_t epoch = line.epoch(std::memory_order_relaxed);
    const std::uint64_t sharers = line.sharers();
    const std::int32_t owner = line.owner();
    const bool cached =
        serialized_ ? caches_[static_cast<std::size_t>(proc)].touch_nv(b)
                    : caches_[static_cast<std::size_t>(proc)].touch(b, epoch);
    if (cached && owner == proc && (sharers & ~self_bit) == 0) {
      continue;  // already exclusive-modified: free
    }
    ++st.write_misses;
    auto home_of = [&] { return b == first ? home : later_block_home(region, b); };
    const int h = miss_home(proc, home_of);
    const int others = std::popcount(sharers & ~self_bit);
    double c = miss_cost(proc, h, owner) +
               static_cast<double>(others) * spec_.inval_per_sharer_ns;
    if (!uniform_ && h != proc) ++st.remote_misses;
    st.invalidations_sent += static_cast<std::uint64_t>(others);
    if (spec_.bus_occupancy_ns > 0.0) c += spec_.bus_occupancy_ns;
    // Ownership change: bump the epoch so every other copy goes stale, then
    // refresh our own copy at the new epoch.
    ++epoch;
    line.set_epoch(epoch);
    line.set_sharers(self_bit);
    line.set_owner(proc);
    if (serialized_) {
      // Eager mode: the bump invalidates the other copies NOW instead of at
      // their next probe. Own copy refreshes exactly like the lazy re-touch.
      for (int q = 0; q < nprocs_; ++q)
        if (q != proc) caches_[static_cast<std::size_t>(q)].mark_stale(b);
      caches_[static_cast<std::size_t>(proc)].touch_nv(b);
    } else {
      caches_[static_cast<std::size_t>(proc)].touch(b, epoch);
    }
    cost += static_cast<std::uint64_t>(c);
  }
  return cost;
}

std::uint64_t InvalidationModel::on_rmw(int proc, const void* p, std::uint64_t now) {
  auto& st = stats_[static_cast<std::size_t>(proc)];
  ++st.rmws;
  // Atomic RMW: behaves like a write that always goes to the interconnect
  // (LL/SC or fetch&op bypasses the cache's silent-hit path).
  const BlockRef ref = regions_.resolve(p, nprocs_);
  if (!ref.shared) return static_cast<std::uint64_t>(spec_.local_miss_ns);
  Line& line = lines_[ref.block];
  const std::uint64_t self_bit = 1ull << proc;
  const std::uint64_t sharers = line.sharers();
  const std::int32_t owner = line.owner();
  const int others = std::popcount(sharers & ~self_bit);
  double c = miss_cost(proc, ref.home, owner) +
             static_cast<double>(others) * spec_.inval_per_sharer_ns;
  st.invalidations_sent += static_cast<std::uint64_t>(others);
  std::uint32_t epoch = line.epoch(std::memory_order_relaxed) + 1;
  line.set_epoch(epoch);
  line.set_sharers(self_bit);
  line.set_owner(proc);
  if (serialized_) {
    for (int q = 0; q < nprocs_; ++q)
      if (q != proc) caches_[static_cast<std::size_t>(q)].mark_stale(ref.block);
    caches_[static_cast<std::size_t>(proc)].touch_nv(ref.block);
  } else {
    caches_[static_cast<std::size_t>(proc)].touch(ref.block, epoch);
  }
  (void)now;
  return static_cast<std::uint64_t>(c);
}

std::uint64_t InvalidationModel::on_acquire(int proc, const void* /*lock*/, std::uint64_t /*now*/) {
  (void)proc;
  return static_cast<std::uint64_t>(spec_.lock_ns);
}

std::uint64_t InvalidationModel::on_release(int proc, const void* /*lock*/, std::uint64_t /*now*/) {
  (void)proc;
  return static_cast<std::uint64_t>(spec_.lock_ns * 0.25);
}

std::uint64_t InvalidationModel::on_barrier_arrive(int /*proc*/, std::uint64_t /*now*/) {
  return 0;  // hardware barriers have no release-side protocol work
}

std::uint64_t InvalidationModel::on_barrier_depart(int /*proc*/, std::uint64_t /*now*/) {
  return static_cast<std::uint64_t>(spec_.barrier_base_ns);
}

InvalidationModel::BlockState InvalidationModel::block_state(const void* p) {
  BlockState out;
  const BlockRef ref = regions_.resolve(p, nprocs_);
  if (!ref.shared) return out;
  out.shared_region = true;
  Line& line = lines_[ref.block];
  out.sharers = line.sharers();
  out.owner = line.owner();
  out.epoch = line.epoch(std::memory_order_relaxed);
  out.home = ref.home;
  return out;
}

}  // namespace ptb
