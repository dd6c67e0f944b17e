// The application driver: runs the full Barnes–Hut timestep pipeline on the
// simulator with any tree builder, and collects the run's whole virtual
// outcome (RunResult).
//
// Per the paper's methodology, timing begins after `warmup_steps` time-steps
// ("to eliminate unrepresentative cold-start and let the partitioning scheme
// settle down"): warm-up work is attributed to Phase::kOther and excluded
// from the reported totals.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bh/generate.hpp"
#include "bh/verify.hpp"
#include "harness/orb.hpp"
#include "harness/phases.hpp"
#include "harness/state.hpp"
#include "mem/model.hpp"
#include "mem/region_table.hpp"
#include "rt/phase.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/builder_common.hpp"

namespace ptb {

struct RunConfig {
  int warmup_steps = 2;
  int measured_steps = 2;
};

/// The whole virtual outcome of a simulated run: every number the simulation
/// itself produces (observers' reports aside). Two runs are bit-identical
/// exactly when their RunResults compare equal; first_difference below is
/// that one definition.
struct RunResult {
  /// Per-phase time (ns) of the measured steps: max over processors (phases
  /// are barrier-aligned, so this is the phase's wall/virtual duration).
  std::array<double, kNumPhases> phase_ns{};
  /// Sum of the measured phases (the whole-application time).
  double total_ns = 0.0;
  /// Per-processor runtime statistics (locks, barrier waits, ...).
  std::vector<ProcStats> proc_stats;
  /// Per processor: the final virtual clock, the protocol counters, and the
  /// last force phase's interaction counts split by partner kind.
  std::vector<std::uint64_t> clock_ns;
  std::vector<MemProcStats> mem;
  std::vector<std::uint64_t> interactions_cell;
  std::vector<std::uint64_t> interactions_body;
  /// A hash of every body's final position, velocity and acceleration bits.
  std::uint64_t bodies_hash = 0;

  double treebuild_fraction() const {
    return total_ns > 0.0 ? phase_ns[static_cast<int>(Phase::kTreeBuild)] / total_ns : 0.0;
  }
  double phase(Phase p) const { return phase_ns[static_cast<int>(p)]; }
};

/// The RunResult of a finished simulation over `st`: O(n + p) work.
RunResult collect_run_result(const SimContext& ctx, const AppState& st);

/// Names the first field in which `a` and `b` differ, with both values
/// ("proc 3 clock_ns: 1200 vs 1201"), or returns "" when the runs are
/// bit-identical.
std::string first_difference(const RunResult& a, const RunResult& b);

inline bool operator==(const RunResult& a, const RunResult& b) {
  return first_difference(a, b).empty();
}

/// The "best sequential version" tree build: straight private insertion with
/// none of the parallel machinery (baseline for all speedups, paper Table 1).
class SeqBuilder {
 public:
  static constexpr Algorithm kAlgorithm = Algorithm::kLocal;  // closest shape

  explicit SeqBuilder(AppState& st) : st_(&st) {
    pool_.init(global_pool_capacity(st.cfg.n));
  }

  template <class Ctx>
  void register_regions(Ctx& ctx) {
    ctx.register_region(pool_.base(), pool_.size_bytes(), HomePolicy::kFixed, 0,
                        "seq.cells");
  }

  void reset() {}

  template <class RT>
  void build(RT& rt) {
    PTB_CHECK_MSG(rt.nprocs() == 1, "SeqBuilder is the uniprocessor baseline");
    AppState& st = *st_;
    const Cube rc = reduce_root_cube(rt, st);
    st.tree.created[0].clear();
    pool_.reset();

    ProcAlloc alloc;
    alloc.proc = 0;
    alloc.pool = &pool_;
    alloc.created = &st.tree.created[0];

    Node* root = alloc_node(rt, alloc);
    root->init_leaf(rc, nullptr, 0, 0);
    rt.write(root, 64);
    st.tree.root = root;
    st.tree.root_cube = rc;

    const InsertEnv env{&st.cfg, st.bodies.data(), &st, st.tree.body_leaf.get(), false};
    for (std::int32_t bi : st.partition[0]) {
      rt.read(st.body_charge(bi), sizeof(Vec3));
      private_insert(rt, env, alloc, root, bi);
    }
  }

 private:
  AppState* st_;
  NodePool pool_;
};

/// Registers the regions every run shares (bodies, reduction slots, the tree
/// root globals, the per-processor partition arrays).
template <class Ctx>
void register_common_regions(Ctx& ctx, AppState& st) {
  // Body data traffic is charged at the migration shadow arena (per-owner
  // contiguous, like the real codes' per-processor body arrays).
  ctx.register_region(st.body_arena.data(), st.body_arena.size() * sizeof(Body),
                      HomePolicy::kProcStriped, 0, "bodies");
  ctx.register_region(st.tree.reduce.data(), st.tree.reduce.size() * sizeof(ReduceSlot),
                      HomePolicy::kFixed, 0, "reduce");
  ctx.register_region(&st.tree.root, sizeof(Node*) + sizeof(Cube), HomePolicy::kFixed, 0,
                      "tree.globals");
  for (int p = 0; p < st.nprocs; ++p) {
    auto& part = st.partition[static_cast<std::size_t>(p)];
    part.reserve(st.bodies.size());  // stable address for the region table
    ctx.register_region(part.data(), st.bodies.size() * sizeof(std::int32_t),
                        HomePolicy::kFixed, p, "partition.p" + std::to_string(p));
  }
}

/// One SPMD time-step pipeline (called from inside ctx.run()).
template <class RT, class Builder>
void timestep(RT& rt, AppState& st, Builder& builder, bool measured) {
  rt.begin_phase(measured ? Phase::kTreeBuild : Phase::kOther);
  builder.build(rt);
  rt.barrier();
  rt.begin_phase(measured ? Phase::kMoments : Phase::kOther);
  moments_phase(rt, st);  // ends on a barrier
  rt.begin_phase(measured ? Phase::kPartition : Phase::kOther);
  if (st.cfg.partitioner == Partitioner::kOrb)
    partition_orb_phase(rt, st);  // ends on a barrier
  else
    partition_phase(rt, st);  // ends on a barrier
  rt.begin_phase(measured ? Phase::kForces : Phase::kOther);
  forces_phase(rt, st);
  rt.barrier();
  rt.begin_phase(measured ? Phase::kUpdate : Phase::kOther);
  integrate_phase(rt, st);
  rt.barrier();
  rt.begin_phase(Phase::kOther);
}

/// Runs the whole simulation and collects its outcome.
template <class Builder>
RunResult run_simulation(SimContext& ctx, AppState& st, Builder& builder,
                         const RunConfig& rc) {
  register_common_regions(ctx, st);
  builder.register_regions(ctx);
  builder.reset();
  ctx.reset_stats();

  const int steps = rc.warmup_steps + rc.measured_steps;
  ctx.run([&](SimProc& rt) {
    for (int s = 0; s < steps; ++s) timestep(rt, st, builder, s >= rc.warmup_steps);
  });
  return collect_run_result(ctx, st);
}

/// Convenience: a fully initialized AppState over a Plummer galaxy.
AppState make_app_state(const BHConfig& cfg, int nprocs);

}  // namespace ptb
