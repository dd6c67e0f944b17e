// One configuration run several ways over ONE AppState, for the tests that
// demand bit-identical RunResults across those ways (scheduler backends,
// memory and force paths, the walk-ahead replay). The builder and its node
// pools are shared and the inputs restored before every way, so each way
// touches the same addresses and any difference is the way's own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "harness/app.hpp"
#include "treebuild/dispatch.hpp"

namespace ptb {

/// The pre-run values of everything a timestep mutates. Restoring copies
/// values back into the existing containers (capacities are never exceeded,
/// so data(), and with it every registered region's address, is stable).
class StateSnapshot {
 public:
  explicit StateSnapshot(const AppState& st)
      : bodies_(st.bodies), partition_(st.partition), body_slot_(st.body_slot) {}

  void restore(AppState& st) const {
    std::copy(bodies_.begin(), bodies_.end(), st.bodies.begin());
    for (std::size_t p = 0; p < st.partition.size(); ++p)
      st.partition[p].assign(partition_[p].begin(), partition_[p].end());
    std::copy(body_slot_.begin(), body_slot_.end(), st.body_slot.begin());
    st.tree.root = nullptr;
    for (auto& c : st.tree.created) c.clear();
    for (std::size_t i = 0; i < static_cast<std::size_t>(st.tree.nbodies); ++i)
      st.tree.body_leaf[i].store(nullptr, std::memory_order_relaxed);
    std::fill(st.tree.reduce.begin(), st.tree.reduce.end(), ReduceSlot{});
    std::fill(st.interactions.begin(), st.interactions.end(), 0);
    std::fill(st.interactions_cell.begin(), st.interactions_cell.end(), 0);
    std::fill(st.interactions_body.begin(), st.interactions_body.end(), 0);
    st.storage.global.reset();
    for (auto& pool : st.storage.per_proc) pool.reset();
  }

 private:
  Bodies bodies_;
  std::vector<AlignedVec<std::int32_t>> partition_;
  std::vector<std::int32_t> body_slot_;
};

/// Builds `alg` over a Plummer galaxy of `n` bodies on `nprocs` processors
/// and returns run(i, st, builder) for each way i < `ways`, restoring the
/// inputs before each.
template <class F>
std::vector<RunResult> rerun(Algorithm alg, int n, int nprocs, std::size_t ways, F&& run) {
  BHConfig bh;
  bh.n = n;
  AppState st = make_app_state(bh, nprocs);
  const StateSnapshot snap(st);
  std::vector<RunResult> out;
  with_builder(alg, st, [&](auto& builder) {
    for (std::size_t i = 0; i < ways; ++i) {
      snap.restore(st);
      out.push_back(run(i, st, builder));
    }
  });
  return out;
}

/// Sets environment variable `name` to "1" for the scope, or unsets it: the
/// PTB_MEM_SLOWPATH and PTB_FORCE_SLOWPATH oracles are selected this way.
class ScopedEnvFlag {
 public:
  ScopedEnvFlag(const char* name, bool on) : name_(name) {
    if (on)
      ::setenv(name, "1", 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnvFlag() { ::unsetenv(name_); }

 private:
  const char* name_;
};

}  // namespace ptb
