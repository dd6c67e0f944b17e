// Node pools.
//
// ORIG allocates every cell from one contiguous shared array with a global
// next-index counter (paper Fig. 1); LOCAL/UPDATE/PARTREE/SPACE give each
// processor its own contiguous pool (paper Fig. 2). The pool is deliberately
// dumb — a bump allocator over a pre-sized array — because the *addresses*
// matter to the memory-system models: interleaved allocation from a shared
// pool is precisely what creates ORIG's false sharing and remote misses.
//
// Capacities are worst-case reservations (builder_common.hpp), far above
// what a run uses, so the array is reserved as untouched pages (PageMap) and
// a node is constructed only when it is handed out: memory follows the
// nodes a run allocates, not the reservation.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <type_traits>

#include "bh/node.hpp"
#include "support/check.hpp"
#include "support/zero_pages.hpp"

namespace ptb {

// The pool never runs destructors: releasing the pages ends every node.
static_assert(std::is_trivially_destructible_v<Node>);

class NodePool {
 public:
  NodePool() = default;

  // Movable so pools can live in std::vector (the atomic counter is copied
  // by value; moves only happen during single-threaded setup).
  NodePool(NodePool&& o) noexcept
      : pages_(std::move(o.pages_)), capacity_(o.capacity_),
        next_(o.next_.load(std::memory_order_relaxed)) {
    o.capacity_ = 0;
    o.next_.store(0, std::memory_order_relaxed);
  }
  NodePool& operator=(NodePool&& o) noexcept {
    pages_ = std::move(o.pages_);
    capacity_ = o.capacity_;
    next_.store(o.next_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    o.capacity_ = 0;
    o.next_.store(0, std::memory_order_relaxed);
    return *this;
  }

  /// Reserves page-aligned, untouched storage for `capacity` nodes. Must be
  /// called before any take(); re-calling reallocates and resets the pool.
  void init(std::size_t capacity) {
    pages_ = PageMap(capacity * sizeof(Node));
    capacity_ = capacity;
    next_.store(0, std::memory_order_relaxed);
  }

  /// Resets the bump pointer without releasing storage (start of a rebuild).
  void reset() { next_.store(0, std::memory_order_relaxed); }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const {
    return static_cast<std::size_t>(next_.load(std::memory_order_relaxed));
  }

  Node* base() { return static_cast<Node*>(pages_.data()); }
  const Node* base() const { return static_cast<const Node*>(pages_.data()); }
  std::size_t size_bytes() const { return capacity_ * sizeof(Node); }

  /// The shared next-index counter (ORIG fetch&adds this through the runtime
  /// so the coherence models see the contention on its cache line).
  std::atomic<std::int64_t>& counter() { return next_; }

  /// Hands out the node at an index the caller reserved through counter(),
  /// default-constructed. Only the reserving thread may call this for an
  /// index: construction is a plain write, so concurrent callers (ORIG's
  /// shared pool under NativeRt/OmpRt) must each own the index they build.
  Node* at(std::int64_t idx) {
    PTB_CHECK_MSG(idx >= 0 && static_cast<std::size_t>(idx) < capacity_,
                  "node pool exhausted — raise pool capacity");
    return ::new (static_cast<void*>(base() + idx)) Node();
  }

  /// Single-owner allocation (per-processor pools; no atomicity needed).
  /// Like at(), returns a default-constructed node, also after reset().
  Node* take() {
    const std::int64_t idx = next_.load(std::memory_order_relaxed);
    next_.store(idx + 1, std::memory_order_relaxed);
    return at(idx);
  }

 private:
  PageMap pages_;
  std::size_t capacity_ = 0;
  std::atomic<std::int64_t> next_{0};
};

}  // namespace ptb
