// Helpers shared by the concrete builders.
#pragma once

#include <cstddef>

#include "harness/state.hpp"
#include "treebuild/insert.hpp"
#include "treebuild/types.hpp"

namespace ptb {

/// Sizing for node pools. Empirically a Plummer distribution with leaf_cap 8
/// uses ~0.45 nodes/body, so these are worst-case reservations, not
/// estimates: the global pool is about 20x a run's use at n=1024, and each
/// per-processor pool over 100x at n=1024, p=16. The headroom costs only
/// address space, because NodePool constructs a node when it hands it out and
/// pages nobody touches are never resident. Capacities set region sizes and
/// so the block numbering, which is why they stay fixed: shrinking them would
/// re-baseline every virtual number.
inline std::size_t global_pool_capacity(int n) {
  return static_cast<std::size_t>(n) + 8192;
}
inline std::size_t proc_pool_capacity(int n, int nprocs) {
  return global_pool_capacity(n) * 2 / static_cast<std::size_t>(nprocs) + 4096;
}

/// Publishes the root pointer/cube (processor 0) and hands every processor a
/// consistent view. Includes the barrier separating root creation from
/// concurrent insertion.
template <class RT>
Node* publish_root(RT& rt, AppState& st, const Cube& rc, Node* root_if_p0) {
  if (rt.self() == 0) {
    st.tree.root = root_if_p0;
    st.tree.root_cube = rc;
    rt.write(&st.tree.root, sizeof(Node*) + sizeof(Cube));
  }
  rt.barrier();
  rt.read(&st.tree.root, sizeof(Node*) + sizeof(Cube));
  return st.tree.root;
}

}  // namespace ptb
