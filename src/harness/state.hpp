// Shared application state for the Barnes–Hut timestep pipeline.
//
// One AppState instance is shared by all (simulated or real) processors; the
// pieces that live in "the shared arena" of the paper's codes are registered
// with the memory model by the driver so the protocol models see them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bh/body.hpp"
#include "bh/config.hpp"
#include "bh/forcekernel.hpp"
#include "bh/node.hpp"
#include "bh/pool.hpp"
#include "support/aligned.hpp"

namespace ptb {

/// Per-processor scratch slots for global reductions (bounding box, max tree
/// level, total cost). Deliberately packed adjacently in one array — exactly
/// how ORIG keeps "frequently accessed variables together in shared arrays,
/// increasing the potential for false sharing" (paper §2.2); LOCAL-family
/// builders pad their way around it in the real codes, which we model by the
/// per-processor *pools* being the hot structures instead.
struct ReduceSlot {
  double min_v[3];
  double max_v[3];
  double sum;
  std::int64_t value;
};

/// Tree state shared by every builder. Page-aligned so the registered
/// "tree.globals" region (root + root_cube, the first members) starts on a
/// page boundary like every other shared region — the line/page grid must
/// not depend on where the enclosing AppState happens to live (DESIGN.md
/// decision 6).
struct alignas(kRegionAlignment) TreeShared {
  Node* root = nullptr;
  Cube root_cube;

  /// Per-processor lists of nodes created by that processor (the paper's
  /// "local arrays of cell pointers"); the moments phase walks these.
  std::vector<std::vector<Node*>> created;

  /// body index -> leaf currently holding it. Maintained by every builder;
  /// required by UPDATE, used by tests for all of them. Entries are atomic:
  /// they are published under a leaf's lock but read lock-free by the body's
  /// owner.
  AlignedArrayPtr<std::atomic<Node*>> body_leaf;
  int nbodies = 0;

  /// Reduction scratch, one slot per processor (shared region).
  AlignedVec<ReduceSlot> reduce;

  void init(int nprocs, int nbodies_in) {
    root = nullptr;
    created.assign(static_cast<std::size_t>(nprocs), {});
    for (auto& c : created) c.reserve(1024);
    nbodies = nbodies_in;
    body_leaf = make_aligned_array<std::atomic<Node*>>(static_cast<std::size_t>(nbodies_in));
    reduce.assign(static_cast<std::size_t>(nprocs), ReduceSlot{});
  }

  Node* leaf_of(std::int32_t bi) const {
    return body_leaf[static_cast<std::size_t>(bi)].load(std::memory_order_acquire);
  }
};

/// Backing storage for tree nodes. Owned by the AppState (NOT by the
/// builders) so a built tree remains valid after its builder is gone; each
/// builder initializes the layout it needs in its constructor (ORIG: the
/// single global pool; the others: one pool per processor).
struct TreeStorage {
  NodePool global;
  std::vector<NodePool> per_proc;
};

struct AppState {
  BHConfig cfg;
  int nprocs = 1;

  Bodies bodies;
  /// Force-calculation ownership: per-processor body index lists (the
  /// paper's "local arrays of body pointers"). Rewritten by costzones.
  std::vector<AlignedVec<std::int32_t>> partition;

  /// Migration shadow arena. The SPLASH-2 codes physically MOVE a body
  /// between per-processor arrays when it is reassigned (paper §2.2), so a
  /// processor's bodies are contiguous in its local memory. We keep body
  /// *indices* stable (the tree stores them) and instead model the layout:
  /// all body-data traffic is charged at a shadow address, contiguous per
  /// owner — body_slot[i] is body i's slot in the shadow arena, maintained by
  /// the partition phase exactly like the real migration.
  AlignedVec<Body> body_arena;
  std::vector<std::int32_t> body_slot;

  /// SPLASH-style ALOCK pool: when cfg.lock_buckets > 0, node locks are
  /// addresses inside this array (hashed), so distinct cells can contend on
  /// one lock. Empty when per-node locks are used.
  AlignedVec<char> lock_table;

  TreeShared tree;
  TreeStorage storage;

  /// Number of interactions each processor performed in the last force phase
  /// (diagnostics / load-balance reporting), plus the cell/body kind split
  /// (surfaced as forces.interactions{kind=...} metrics).
  std::vector<std::uint64_t> interactions;
  std::vector<std::uint64_t> interactions_cell;
  std::vector<std::uint64_t> interactions_body;

  /// Per-processor gather scratch for the batched force kernel. Host-side
  /// working memory, NOT a registered shared region: the simulated cost of
  /// an interaction is charged where its source operand lives (the tree
  /// node / the other body), exactly as in the scalar walk.
  std::vector<bh::InteractionList> force_ilist;

  /// Shadow-arena slots per processor (chunk size).
  std::int32_t arena_chunk() const {
    return static_cast<std::int32_t>((cfg.n + nprocs - 1) / nprocs);
  }
  /// Charge address for body i's data.
  const Body* body_charge(std::int32_t i) const {
    return body_arena.data() + body_slot[static_cast<std::size_t>(i)];
  }

  void init(Bodies b, int np) {
    nprocs = np;
    bodies = std::move(b);
    cfg.n = static_cast<int>(bodies.size());
    partition.assign(static_cast<std::size_t>(np), {});
    body_arena.resize(bodies.size());
    body_slot.assign(bodies.size(), 0);
    const std::int32_t chunk = arena_chunk();
    std::vector<std::int32_t> rank(static_cast<std::size_t>(np), 0);
    // Initial even assignment (paper §2.1: "for the first time step, the
    // particles are evenly assigned to processors").
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const int p = static_cast<int>(i % static_cast<std::size_t>(np));
      bodies[i].proc = p;
      partition[static_cast<std::size_t>(p)].push_back(static_cast<std::int32_t>(i));
      body_slot[i] = static_cast<std::int32_t>(p) * chunk +
                     std::min(rank[static_cast<std::size_t>(p)]++, chunk - 1);
    }
    tree.init(np, cfg.n);
    storage.per_proc.resize(static_cast<std::size_t>(np));
    interactions.assign(static_cast<std::size_t>(np), 0);
    interactions_cell.assign(static_cast<std::size_t>(np), 0);
    interactions_body.assign(static_cast<std::size_t>(np), 0);
    force_ilist.assign(static_cast<std::size_t>(np), {});
    if (cfg.lock_buckets > 0)
      lock_table.assign(static_cast<std::size_t>(cfg.lock_buckets), 0);
  }

  /// Lock identity for a tree node: the node itself, or its ALOCK bucket.
  /// The bucket hashes the node's pool and its index there, not its host
  /// address, so every process maps a node to the same bucket (DESIGN.md
  /// decision 6). A node from no pool (unit tests) hashes its address.
  const void* node_lock(const Node* n) const {
    if (lock_table.empty()) return n;
    const auto addr = reinterpret_cast<std::uintptr_t>(n);
    std::uint64_t h = addr / sizeof(Node);
    for (std::size_t i = 0; i <= storage.per_proc.size(); ++i) {
      const NodePool& pool = i == 0 ? storage.global : storage.per_proc[i - 1];
      const std::uintptr_t offset = addr - reinterpret_cast<std::uintptr_t>(pool.base());
      if (offset < pool.size_bytes()) {
        h = (static_cast<std::uint64_t>(i) << 40) + offset / sizeof(Node);
        break;
      }
    }
    h ^= h >> 13;
    h *= 0x9e3779b97f4a7c15ull;
    return lock_table.data() + (h >> 32) % lock_table.size();
  }
};

/// Abstract work-unit charges (1 unit ≈ 1 inner-loop flop). These feed
/// RT::compute(); the platform's ns_per_work converts to virtual time.
namespace work {
inline constexpr double kBodyBodyInteraction = 60.0;
inline constexpr double kBodyCellInteraction = 60.0;
inline constexpr double kTraversalStep = 6.0;
// Insertion steps are pointer-chasing and branchy — far more cycles per
// useful flop than the force inner loop. Calibrated so the sequential tree
// build lands at the paper's "< 3%" of total time (paper §1).
inline constexpr double kDescendStep = 40.0;
inline constexpr double kInsertBody = 60.0;
inline constexpr double kSubdivide = 200.0;
inline constexpr double kMomentsPerChild = 12.0;
inline constexpr double kIntegrateBody = 35.0;
inline constexpr double kPartitionPerNode = 6.0;
inline constexpr double kBinBody = 8.0;
// RADIX builder: the sort/construct pipeline is streaming integer work, far
// cheaper per element than the pointer-chasing insertion steps above.
inline constexpr double kMortonKey = 12.0;     // quantize + 3x bit-spread
inline constexpr double kSortStep = 6.0;       // one histogram/scatter element
inline constexpr double kGatherBody = 4.0;     // one SoA position copy
inline constexpr double kCellFromKeys = 24.0;  // split a sorted range (8 searches)
inline constexpr double kLeafFromKeys = 8.0;   // emit one leaf from a key run
}  // namespace work

}  // namespace ptb
