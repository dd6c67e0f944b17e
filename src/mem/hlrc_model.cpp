#include "mem/hlrc_model.hpp"

#include "support/check.hpp"

namespace ptb {

HlrcModel::HlrcModel(const PlatformSpec& spec, int nprocs) : MemModel(spec, nprocs) {
  PTB_CHECK_MSG(nprocs <= 64, "writer bitmask holds at most 64 processors");
  regions_.set_block_bytes(spec.block_bytes);
  wset_.resize(static_cast<std::size_t>(nprocs));
  copies_.resize(static_cast<std::size_t>(nprocs));
  log_pos_.assign(static_cast<std::size_t>(nprocs), 0);
  local_cache_.resize(static_cast<std::size_t>(nprocs));
  for (auto& c : local_cache_) c.init(spec.cache_bytes, 64, spec.cache_ways);
}

void HlrcModel::register_region(const void* base, std::size_t bytes, HomePolicy policy,
                                int fixed_home, std::string name) {
  MemModel::register_region(base, bytes, policy, fixed_home, std::move(name));
  const std::size_t pages = regions_.total_blocks();
  version_.grow(pages);
  for (auto& c : copies_) c.grow(pages);
  wmask_.grow(pages);
}

void HlrcModel::reset() {
  MemModel::reset();
  for (auto& c : local_cache_) c.clear();
  version_.clear();
  for (auto& c : copies_) c.clear();
  wmask_.clear();
  for (auto& w : wset_) w.clear();
  notices_.clear();
  log_pos_.assign(static_cast<std::size_t>(nprocs_), 0);
}

std::uint64_t HlrcModel::track_write(int proc, std::size_t page, int home) {
  const std::uint64_t bit = 1ull << proc;
  if (wmask_[page] & bit) return 0;  // already tracked this interval
  wmask_[page] |= bit;
  wset_[static_cast<std::size_t>(proc)].push_back(static_cast<std::uint32_t>(page));
  if (proc == home) return 0;  // the home writes its copy in place: no twin
  ++stats_[static_cast<std::size_t>(proc)].twins;
  return static_cast<std::uint64_t>(spec_.twin_ns);
}

std::uint64_t HlrcModel::on_write(int proc, const void* p, std::size_t n,
                                  std::uint64_t /*now*/) {
  std::size_t first, last;
  int home;
  std::int32_t region;
  if (!resolve_blocks(proc, p, n, first, last, home, region)) return 0;
  auto& st = stats_[static_cast<std::size_t>(proc)];
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const std::size_t bb = regions_.block_bytes();
  std::uint64_t cost = local_touch_at(proc, first * bb + a % bb, n);
  for (std::size_t b = first; b <= last; ++b) {
    const int h = b == first ? home : later_block_home(region, b);
    ++st.writes;
    cost += maybe_fault(proc, b, h);  // write fault fetches the page too
    cost += track_write(proc, b, h);
  }
  return cost;
}

std::uint64_t HlrcModel::on_rmw(int proc, const void* p, std::uint64_t now) {
  // An atomic fetch&op on SVM is a miniature acquire/write/release through
  // the synchronization manager: this is why ORIG's shared next-cell counter
  // is so damaging on these platforms.
  auto& st = stats_[static_cast<std::size_t>(proc)];
  ++st.rmws;
  std::uint64_t cost = static_cast<std::uint64_t>(spec_.svm_lock_ns);
  cost += apply_notices(proc);
  const BlockRef ref = regions_.resolve(p, nprocs_);
  if (ref.shared) {
    cost += maybe_fault(proc, ref.block, ref.home);
    cost += track_write(proc, ref.block, ref.home);
    // Release the counter page immediately so other processors see it.
    const std::uint32_t v = bump_version(ref.block);
    notices_.push_back(Notice{static_cast<std::uint32_t>(ref.block), v, proc});
    // Our own copy stays valid at the new version.
    copy_of(proc, ref.block).version = v + 1;
    // The page leaves the interval write set (it was just flushed); the
    // pending wset entry is skipped at release via the cleared mask bit.
    wmask_[ref.block] &= ~(1ull << proc);
    cost += static_cast<std::uint64_t>(spec_.diff_per_page_ns);
    ++st.diffs;
  }
  (void)now;
  return cost;
}

std::uint64_t HlrcModel::flush_interval(int proc) {
  auto& st = stats_[static_cast<std::size_t>(proc)];
  auto& ws = wset_[static_cast<std::size_t>(proc)];
  std::uint64_t cost = 0;
  const std::uint64_t bit = 1ull << proc;
  for (std::uint32_t page : ws) {
    if (!(wmask_[page] & bit)) continue;  // flushed by an interleaved rmw path
    wmask_[page] &= ~bit;
    const std::uint32_t v = bump_version(page);
    notices_.push_back(Notice{page, v, proc});
    // The writer's own copy incorporates its writes at the new version.
    copy_of(proc, page).version = v + 1;
    if (regions_.block_home(page, nprocs_) == proc) {
      // Home pages are written in place: only the write notice is posted.
      cost += static_cast<std::uint64_t>(spec_.notice_ns);
    } else {
      cost += static_cast<std::uint64_t>(spec_.diff_per_page_ns);
      ++st.diffs;
    }
  }
  ws.clear();
  return cost;
}

std::uint64_t HlrcModel::apply_notices(int proc) {
  auto& st = stats_[static_cast<std::size_t>(proc)];
  std::size_t& pos = log_pos_[static_cast<std::size_t>(proc)];
  std::uint64_t cost = 0;
  for (; pos < notices_.size(); ++pos) {
    const Notice& nt = notices_[pos];
    if (nt.writer == proc) continue;
    std::uint32_t& req = copy_of(proc, nt.page).required;
    if (nt.version > req) req = nt.version;
    ++st.notices_received;
    cost += static_cast<std::uint64_t>(spec_.notice_ns);
  }
  return cost;
}

std::uint64_t HlrcModel::on_acquire(int proc, const void* /*lock*/, std::uint64_t /*now*/) {
  return static_cast<std::uint64_t>(spec_.svm_lock_ns) + apply_notices(proc);
}

std::uint64_t HlrcModel::on_release(int proc, const void* /*lock*/, std::uint64_t /*now*/) {
  return flush_interval(proc);
}

std::uint64_t HlrcModel::on_barrier_arrive(int proc, std::uint64_t /*now*/) {
  return flush_interval(proc);
}

std::uint64_t HlrcModel::on_barrier_depart(int proc, std::uint64_t /*now*/) {
  return static_cast<std::uint64_t>(spec_.svm_barrier_ns) + apply_notices(proc);
}

HlrcModel::PageState HlrcModel::page_state(const void* p, int proc) {
  PageState out;
  const BlockRef ref = regions_.resolve(p, nprocs_);
  if (!ref.shared) return out;
  out.shared_region = true;
  out.version = home_version(ref.block, std::memory_order_relaxed);
  out.valid_for_proc = copy_valid(proc, ref.block, ref.home);
  out.home = ref.home;
  return out;
}

}  // namespace ptb
