// Home-based Lazy Release Consistency (HLRC) shared-virtual-memory model.
//
// This is the protocol the paper runs on the Intel Paragon and on Typhoon-0
// (Zhou, Iftode & Li, OSDI'96). Coherence is at page granularity and ALL
// protocol activity happens at synchronization points:
//   * A processor's writes within an interval are tracked (first write to a
//     page creates a twin).
//   * At a RELEASE (lock release or barrier arrival) the processor diffs each
//     written page against its twin, sends the diff to the page's home (which
//     bumps the page version), and posts write notices.
//   * At an ACQUIRE (lock acquire or barrier departure) the processor applies
//     the write notices it has not yet seen: every page another processor has
//     released a newer version of becomes invalid locally.
//   * Touching an invalid page faults: the whole page is fetched from home.
//
// The paper's headline effect falls out mechanically: lock acquires are
// expensive (3-hop + notices), and page faults *inside critical sections*
// dilate lock hold times in virtual time, serializing lock-heavy tree builds.
//
// Laziness is modeled faithfully: a stale copy stays readable (no cost) until
// the reader itself passes an acquire that covers the writer's release — the
// valid test is copy_version >= required_version, and required_version only
// advances when notices are applied at the reader's own synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "mem/cache_model.hpp"
#include "mem/model.hpp"
#include "support/zero_pages.hpp"

namespace ptb {

class HlrcModel final : public MemModel {
 public:
  HlrcModel(const PlatformSpec& spec, int nprocs);

  void register_region(const void* base, std::size_t bytes, HomePolicy policy,
                       int fixed_home, std::string name) override;
  void reset() override;

  // The read path is header-inline (see invalidation_model.hpp: the sealed
  // dispatch turns SimProc::read_shared into one direct code path down to
  // the page-validity check).
  std::uint64_t on_read(int proc, const void* p, std::size_t n,
                        std::uint64_t /*now*/) override {
    std::size_t first, last;
    int home;
    std::int32_t region;
    if (!resolve_blocks(proc, p, n, first, last, home, region)) return 0;
    auto& st = stats_[static_cast<std::size_t>(proc)];
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const unsigned sh = regions_.block_shift();
    std::uint64_t cost = local_touch_at(
        proc, (first << sh) + (a & (regions_.block_bytes() - 1)), n);
    for (std::size_t b = first; b <= last; ++b) {
      ++st.reads;
      cost += maybe_fault(proc, b, b == first ? home : later_block_home(region, b));
    }
    return cost;
  }
  std::uint64_t on_write(int proc, const void* p, std::size_t n, std::uint64_t now) override;
  std::uint64_t on_rmw(int proc, const void* p, std::uint64_t now) override;
  std::uint64_t on_acquire(int proc, const void* lock, std::uint64_t now) override;
  std::uint64_t on_release(int proc, const void* lock, std::uint64_t now) override;
  std::uint64_t on_barrier_arrive(int proc, std::uint64_t now) override;
  std::uint64_t on_barrier_depart(int proc, std::uint64_t now) override;
  std::uint64_t on_read_shared(int proc, const void* p, std::size_t n) override {
    // Safe concurrently: touches only this processor's copies_ array and
    // atomically loads version_. A copy's required version changes only at
    // this processor's own synchronizations.
    return on_read(proc, p, n, 0);
  }

  // One region resolution for the whole run. Per (element, page, line) the
  // accounting is bit-identical to the per-element scalar loop (the base
  // implementation, used as fallback whenever the run is not provably inside
  // a single region). Two collapses ride on the span's monotonicity — the
  // virtual offset is (element address + constant), so pages and 64 B lines
  // are visited in nondecreasing order, and an unordered stretch is
  // host-atomic under turn serialization:
  //   * a revisited PAGE is provably valid (the first visit either found it
  //     valid or faulted it in, and required/home versions only move at this
  //     processor's own synchronizations), so maybe_fault — a pure check — is
  //     skipped and only the batched `reads` counter records the visit;
  //   * a revisited LINE is provably still cached when lines-per-element is
  //     below the local cache's associativity (newest-stamp entries survive
  //     fewer-than-ways intervening fills), so it re-stamps via
  //     CacheModel::restamp at zero cost, exactly like the touch() hit the
  //     reference path performs.
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
    const std::size_t bmask = regions_.block_bytes() - 1;
    const std::uintptr_t region_page = r.base >> sh;
    auto& st = stats_[static_cast<std::size_t>(proc)];
    auto& cache = local_cache_[static_cast<std::size_t>(proc)];
    const bool lines_on = spec_.cache_bytes > 0 && spec_.local_miss_ns > 0.0;
    const std::size_t max_lpe = ((nn + 62) >> 6) + 1;  // worst-case lines/element
    const bool collapse_lines = cache.infinite() || max_lpe <= cache.ways();
    const auto local_ns = static_cast<std::uint64_t>(spec_.local_miss_ns);
    std::uint64_t cost = 0;
    std::uint64_t visits = 0;
    std::size_t done_pg = 0;  // region-relative page already visited, +1
    std::size_t done_ln = 0;  // virtual-grid 64 B line already visited, +1
    for (std::size_t i = 0; i < count; ++i) {
      const std::uintptr_t a = a0 + i * stride;
      const std::size_t p0 = ((a >> sh) - region_page);
      const std::size_t p1 = (((a + nn - 1) >> sh) - region_page);
      visits += p1 - p0 + 1;
      if (lines_on) {
        const std::size_t off = ((r.first_block + p0) << sh) + (a & bmask);
        std::size_t l0 = off / 64;
        const std::size_t l1 = (off + nn - 1) / 64;
        if (collapse_lines && l0 < done_ln) {
          const std::size_t dup = l1 < done_ln - 1 ? l1 : done_ln - 1;
          for (std::size_t b = l0; b <= dup; ++b) cache.restamp(b);
          l0 = dup + 1;
        }
        for (std::size_t b = l0; b <= l1; ++b)
          if (!cache.touch(b, 0)) cost += local_ns;
        if (collapse_lines && l1 + 1 > done_ln) done_ln = l1 + 1;
      }
      for (std::size_t pg = p0 < done_pg ? done_pg : p0; pg <= p1; ++pg)
        cost += maybe_fault(proc, r.first_block + pg,
                            regions_.home_in(region, r.first_block + pg, nprocs_));
      done_pg = p1 + 1;
    }
    st.reads += visits;
    return cost;
  }

  MemModelKind kind() const override { return MemModelKind::kHlrc; }

  /// Test hooks.
  struct PageState {
    bool shared_region = false;
    std::uint32_t version = 0;
    bool valid_for_proc = false;
    int home = 0;
  };
  PageState page_state(const void* p, int proc);
  std::size_t notice_log_size() const { return notices_.size(); }

 private:
  struct Notice {
    std::uint32_t page;
    std::uint32_t version;
    std::int32_t writer;
  };

  /// One processor's view of one page; all zero == never fetched.
  struct PageCopy {
    std::uint32_t version;   // fetched home version + 1; 0 == no copy
    std::uint32_t required;  // staleness bound from applied write notices
  };

  PageCopy& copy_of(int proc, std::size_t page) {
    return copies_[static_cast<std::size_t>(proc)][page];
  }
  /// Home copy's version (atomic: read_shared loads it concurrently).
  std::uint32_t home_version(std::size_t page, std::memory_order mo) {
    return std::atomic_ref(version_[page]).load(mo);
  }
  std::uint32_t bump_version(std::size_t page) {
    const std::uint32_t v = home_version(page, std::memory_order_relaxed) + 1;
    std::atomic_ref(version_[page]).store(v, std::memory_order_release);
    return v;
  }
  bool copy_valid(int proc, std::size_t page, int home) {
    // The home node's copy IS the page: it is always valid (home-based LRC
    // applies remote diffs to it; local reads/writes never fault). This is the
    // reason per-processor pools (LOCAL/PARTREE/SPACE) are cheap on SVM while
    // ORIG's interleaved global array is not.
    if (proc == home) return true;
    const PageCopy& c = copy_of(proc, page);
    return c.version != 0 && c.version - 1 >= c.required;
  }
  /// Fault + fetch if the processor's copy is invalid. Returns cost.
  std::uint64_t maybe_fault(int proc, std::size_t page, int home) {
    if (copy_valid(proc, page, home)) return 0;
    auto& st = stats_[static_cast<std::size_t>(proc)];
    ++st.page_faults;
    // Fetch the current home copy; the copy is stamped version+1 so that
    // version v satisfies any required version <= v.
    copy_of(proc, page).version = home_version(page, std::memory_order_acquire) + 1;
    return static_cast<std::uint64_t>(spec_.page_fault_ns);
  }
  /// First-write-in-interval twin bookkeeping. Returns cost (ordered only).
  std::uint64_t track_write(int proc, std::size_t page, int home);
  /// Release-side: diff written pages to home, post notices. Returns cost.
  std::uint64_t flush_interval(int proc);
  /// Acquire-side: apply unseen notices. Returns cost.
  std::uint64_t apply_notices(int proc);

  // Per-page state, all zero until touched (ZeroPages): registering a
  // region grows these without copying, so no layout depends on how many
  // pages exist.
  ZeroPages<std::uint32_t> version_;     // per page, home copy
  std::vector<ZeroPages<PageCopy>> copies_;  // per proc, per page
  ZeroPages<std::uint64_t> wmask_;       // per page: bitmask of writers this interval
  std::vector<std::vector<std::uint32_t>> wset_;  // per proc: pages written this interval
  std::vector<Notice> notices_;                   // global write-notice log
  std::vector<std::size_t> log_pos_;              // per proc: first unseen notice
  /// Per-processor LOCAL cache model: a valid page's data still costs a
  /// local memory miss when it is not in the processor's cache (at 64 B
  /// lines, independent of the 4 KB coherence grain). Keeps the machine's
  /// sequential memory behaviour consistent with the parallel runs.
  std::vector<CacheModel> local_cache_;
  /// Core of the local-cache charge, keyed by the access's stable virtual
  /// offset (global block × block bytes + offset within the block). Callers
  /// derive the offset from their already-resolved first block, so no second
  /// region lookup is paid.
  std::uint64_t local_touch_at(int proc, std::size_t off, std::size_t n) {
    if (spec_.cache_bytes == 0 || spec_.local_miss_ns <= 0.0) return 0;
    // 64 B line grid over the region's virtual offset (coherence is per page;
    // this is the node's own cache, so no epochs are involved). The virtual
    // offset — not the raw address — keys the lines so the cache's set mapping
    // does not depend on where the allocator/ASLR placed the region.
    const std::size_t first = off / 64;
    const std::size_t last = (off + (n > 0 ? n : 1) - 1) / 64;
    std::uint64_t cost = 0;
    auto& cache = local_cache_[static_cast<std::size_t>(proc)];
    for (std::size_t b = first; b <= last; ++b)
      if (!cache.touch(b, 0)) cost += static_cast<std::uint64_t>(spec_.local_miss_ns);
    return cost;
  }
};

}  // namespace ptb
