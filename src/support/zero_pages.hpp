// Host memory that costs only what a run touches.
//
// The simulator sizes several host arrays for the worst case: node pools
// (paper §2.2's per-processor cell pools are over 100x what a run uses) and
// per-block protocol and observer state, one entry per block of every
// registered region. Both are backed by anonymous private mappings here. The
// kernel maps a page on its first write, so pages a run never writes are
// not resident and read as zero bytes; growing a mapping moves page-table
// entries (mremap), never the data already held.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace ptb {

/// Owner of one anonymous, page-aligned, read-write mapping. Untouched pages
/// cost address space only and read as zero bytes.
class PageMap {
 public:
  PageMap() = default;
  /// Maps at least `bytes`, rounded up to whole pages (0 maps nothing).
  /// Aborts when the kernel refuses the mapping.
  explicit PageMap(std::size_t bytes);
  ~PageMap();
  PageMap(PageMap&& o) noexcept;
  PageMap& operator=(PageMap&& o) noexcept;
  PageMap(const PageMap&) = delete;
  PageMap& operator=(const PageMap&) = delete;

  /// Grows the mapping to at least `bytes`. Contents are kept, the new tail
  /// reads as zero bytes, and the base address may move.
  void grow(std::size_t bytes);

  void* data() const { return base_; }
  std::size_t bytes() const { return bytes_; }

 private:
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Growable array whose default entry is all zero bytes: per-block state
/// sized from RegionTable::total_blocks(). Entries nobody wrote read as the
/// default without ever being stored, so growing by a region's worth of
/// blocks costs no copy and no clearing. T must encode its default state as
/// zero bytes (store "no owner" as owner + 1, and so on).
template <class T>
class ZeroPages {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "ZeroPages holds plain data whose zero bytes are a valid T");

 public:
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return static_cast<T*>(map_.data())[i]; }

  /// Makes size() at least `n`; entries past the old size read as zero.
  /// The mapping at least doubles when it must grow, so a run of
  /// registrations costs a logarithmic number of remaps.
  void grow(std::size_t n) {
    if (n <= size_) return;
    if (n > map_.bytes() / sizeof(T)) map_.grow(std::max(n * sizeof(T), 2 * map_.bytes()));
    size_ = n;
  }

  /// Drops every entry and returns its pages.
  void clear() {
    map_ = PageMap();
    size_ = 0;
  }

 private:
  PageMap map_;
  std::size_t size_ = 0;
};

}  // namespace ptb
