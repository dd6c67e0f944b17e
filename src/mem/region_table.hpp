// Registered shared-memory regions and address → (region, block) resolution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ptb {

/// Where the blocks (lines or pages) of a region live.
enum class HomePolicy {
  kFixed,             // all blocks homed on one processor (per-proc pools)
  kInterleavedBlock,  // round-robin by block (ORIG's single shared array,
                      // SGI-style interleaved/striped placement)
  kProcStriped,       // region divided into nprocs equal chunks, chunk i
                      // homed on processor i (per-proc slices of one array)
};

struct Region {
  std::uintptr_t base = 0;
  std::size_t bytes = 0;
  HomePolicy policy = HomePolicy::kInterleavedBlock;
  int fixed_home = 0;
  std::string name;
  /// Index of this region's first block in the model's state arrays.
  std::size_t first_block = 0;
  std::size_t num_blocks = 0;
};

/// Resolution of one address.
struct BlockRef {
  bool shared = false;       // false => private memory, not modeled
  std::size_t block = 0;     // global block index into model state arrays
  int home = 0;              // home processor of the block
  std::uint32_t region = 0;  // region index
};

/// Per-processor direct-mapped memoization of the line → (block, home,
/// region) resolution, so hot repeated accesses skip the RegionTable binary
/// search entirely. Pure cache of a pure function: an entry never goes stale
/// from protocol activity (the address→block mapping does not change on
/// coherence transitions); the ONLY invalidation events are region
/// registration (region indices shift when the table re-sorts by base, and a
/// previously-unregistered address may become shared) and table clear — the
/// owning model flushes there. Unregistered lines are cached too
/// (region == kNotShared), which is safe for the same reason. A flush clears
/// only a lookaside filled since its last flush, so the registrations of a
/// run's set-up, before any access, cost nothing here.
class LineLookaside {
 public:
  static constexpr std::int32_t kNotShared = -1;
  /// 16 bytes, so four entries share a host cache line. block fits 32 bits
  /// and the region/home indices 16 each (RegionTable::add() enforces the
  /// bounds where blocks and regions are minted).
  struct Entry {
    std::uintptr_t tag = 0;      // line number + 1; 0 == empty
    std::uint32_t block = 0;     // global block index of the line
    std::int16_t region = -1;    // kNotShared, or index into regions()
    std::uint16_t home = 0;
  };

  Entry& slot(std::uintptr_t line) {
    return slots_[static_cast<std::size_t>(line) & (kEntries - 1)];
  }
  /// Records that an entry was memoized (RegionTable's fill path), so the
  /// next flush() has something to clear.
  void note_fill() { filled_ = true; }
  void flush() {
    if (!filled_) return;
    slots_.assign(kEntries, Entry{});
    filled_ = false;
  }

 private:
  // A force walk touches on the order of a thousand distinct lines per body
  // (tree nodes + interaction-list bodies); direct-mapped at 1024 entries
  // that working set conflict-thrashes and every miss re-pays the region
  // binary search. 4096 × 16 B = 64 KiB per processor keeps the whole walk
  // resident while staying comfortably inside the host L2. Direct-mapped on
  // the low line bits (lines are sequential).
  static constexpr std::size_t kEntries = 4096;
  std::vector<Entry> slots_ = std::vector<Entry>(kEntries);
  bool filled_ = false;  // an entry was memoized since the last flush
};

class RegionTable {
 public:
  /// Configure the block size (coherence granularity) before registering.
  /// Must be a power of two (every real machine's is): the per-access path
  /// turns every /, % by the block size into shift/mask — a hardware divide
  /// by a runtime divisor costs more than the rest of a charged hit.
  void set_block_bytes(std::size_t b);
  std::size_t block_bytes() const { return block_bytes_; }
  /// log2(block_bytes()).
  unsigned block_shift() const { return block_shift_; }

  void add(const void* base, std::size_t bytes, HomePolicy policy, int fixed_home,
           std::string name, int nprocs);
  void clear();

  /// Total blocks across all regions (size protocol state arrays to this).
  std::size_t total_blocks() const { return total_blocks_; }

  /// Resolves an address. Returns shared=false for unregistered memory.
  BlockRef resolve(const void* p, int nprocs) const;

  /// Stable byte offset of a registered address: the region's block span
  /// mapped to registration-ordered virtual bytes, preserving the offset
  /// within each block. Use this instead of the raw address wherever a
  /// finer-than-block grid is needed (e.g. the HLRC local cache's 64 B
  /// lines), so results do not depend on where the allocator/ASLR placed
  /// the region. Returns false for unregistered memory.
  bool virtual_offset(const void* p, std::size_t& off) const;

  /// Range of global block indices [first, last] covered by [p, p+n).
  /// Returns false if the address is not in a registered region.
  bool resolve_range(const void* p, std::size_t n, int nprocs, std::size_t& first,
                     std::size_t& last, int& home_of_first) const;

  /// resolve_range with the first line's resolution served from (and filled
  /// into) `la`. Produces bit-identical results to resolve_range — the
  /// lookaside memoizes a pure mapping — and additionally reports the region
  /// index (kNotShared on failure) so callers can resolve the remaining
  /// lines of a multi-line access with home_in() instead of the block_home
  /// binary search. The owner of `la` must flush it on add()/clear().
  /// Header-inline: the lookaside-hit path is a handful of instructions and
  /// sits under every charged access; only the miss (find + memoize) goes
  /// out of line.
  bool resolve_range_cached(const void* p, std::size_t n, int nprocs, LineLookaside& la,
                            std::size_t& first, std::size_t& last, int& home_of_first,
                            std::int32_t& region) const {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t line = a >> block_shift_;
    LineLookaside::Entry& e = la.slot(line);
    if (e.tag != line + 1) {
      la.note_fill();
      fill_lookaside(e, a, line, nprocs);
    }
    region = e.region;
    if (e.region == LineLookaside::kNotShared) return false;
    const Region& r = regions_[static_cast<std::size_t>(e.region)];
    first = e.block;
    home_of_first = e.home;
    // Same clamp as resolve_range: the range never crosses into an adjacent
    // region.
    const std::uintptr_t end = a + (n > 0 ? n : 1);
    const std::uintptr_t cend = end < r.base + r.bytes ? end : r.base + r.bytes;
    last = r.first_block + (((cend - 1) >> block_shift_) - (r.base >> block_shift_));
    return true;
  }

  /// Home of a global block known to lie inside `region` (all blocks of one
  /// resolve_range result do: the range is clamped to its region). Same
  /// value block_home() would compute, without the binary search.
  int home_in(std::int32_t region, std::size_t global_block, int nprocs) const {
    const Region& r = regions_[static_cast<std::size_t>(region)];
    return home_of(r, global_block - r.first_block, nprocs);
  }

  /// Home processor of a global block index (binary search over the regions
  /// ordered by first_block; hit on every block of a multi-block access that
  /// spans interleaved homes).
  int block_home(std::size_t global_block, int nprocs) const;

  const std::vector<Region>& regions() const { return regions_; }

 private:
  const Region* find(std::uintptr_t a) const;
  /// Lookaside-miss slow path of resolve_range_cached: one full resolution,
  /// memoized (negative results too) for the next access to this line.
  void fill_lookaside(LineLookaside::Entry& e, std::uintptr_t a, std::uintptr_t line,
                      int nprocs) const;
  int home_of(const Region& r, std::size_t block_in_region, int nprocs) const {
    switch (r.policy) {
      case HomePolicy::kFixed:
        return r.fixed_home;
      case HomePolicy::kInterleavedBlock:
        return static_cast<int>(block_in_region % static_cast<std::size_t>(nprocs));
      case HomePolicy::kProcStriped: {
        const std::size_t chunk = (r.num_blocks + static_cast<std::size_t>(nprocs) - 1) /
                                  static_cast<std::size_t>(nprocs);
        const std::size_t c = block_in_region / chunk;
        const auto np1 = static_cast<std::size_t>(nprocs) - 1;
        return static_cast<int>(c < np1 ? c : np1);
      }
    }
    return 0;
  }

  std::size_t block_bytes_ = 128;
  unsigned block_shift_ = 7;
  std::size_t total_blocks_ = 0;
  std::vector<Region> regions_;  // sorted by base
  // regions_ indices ordered by first_block: global block indices are assigned
  // in registration order, which the sort by base permutes, so block_home
  // needs its own sorted view to binary-search.
  std::vector<std::uint32_t> block_order_;
};

}  // namespace ptb
