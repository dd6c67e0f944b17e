// The six parallel tree builders: structural invariants, equivalence with
// the sequential reference tree, creator bookkeeping, body->leaf map.
// Parameterized sweep over algorithm x processor count x size x leaf_cap.
#include <gtest/gtest.h>

#include <set>

#include "bh/seqtree.hpp"
#include "bh/verify.hpp"
#include "harness/app.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/dispatch.hpp"

namespace ptb {
namespace {

struct BuildCase {
  Algorithm alg;
  int n;
  int np;
  int leaf_cap;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<BuildCase>& info) {
  return std::string(algorithm_name(info.param.alg)) + "_n" +
         std::to_string(info.param.n) + "_p" + std::to_string(info.param.np) + "_k" +
         std::to_string(info.param.leaf_cap);
}

/// Builds the tree once (one tree-build phase) with the given algorithm.
void run_build(Algorithm alg, AppState& st) {
  SimContext ctx(PlatformSpec::ideal(), st.nprocs);
  register_common_regions(ctx, st);
  with_builder(alg, st, [&](auto& builder) {
    builder.register_regions(ctx);
    ctx.run([&](SimProc& rt) {
      builder.build(rt);
      rt.barrier();
      moments_phase(rt, st);
    });
  });
}

/// Ground-truth tree over the same bodies.
std::uint64_t reference_hash(const AppState& st) {
  NodePool pool;
  pool.init(static_cast<std::size_t>(st.cfg.n) * 2 + 1024);
  Node* root = SeqTree::build(st.bodies, st.cfg, pool);
  return canonical_hash(root, st.bodies);
}

void expect_created_lists_consistent(const AppState& st) {
  // Every reachable alive node appears exactly once in its creator's list.
  std::set<const Node*> reachable;
  std::vector<const Node*> stack{st.tree.root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ASSERT_TRUE(reachable.insert(n).second);
    if (n->is_cell(std::memory_order_relaxed))
      for (int o = 0; o < 8; ++o)
        if (const Node* c = n->get_child(o, std::memory_order_relaxed))
          stack.push_back(c);
  }
  std::size_t listed = 0;
  for (int p = 0; p < st.nprocs; ++p) {
    for (const Node* n : st.tree.created[static_cast<std::size_t>(p)]) {
      if (n->dead) continue;
      EXPECT_EQ(n->creator, p);
      EXPECT_TRUE(reachable.count(n)) << "created node not reachable";
      ++listed;
    }
  }
  EXPECT_EQ(listed, reachable.size());
}

void expect_body_leaf_map_correct(const AppState& st) {
  for (int bi = 0; bi < st.cfg.n; ++bi) {
    const Node* leaf = st.tree.leaf_of(bi);
    ASSERT_NE(leaf, nullptr) << "body " << bi << " has no recorded leaf";
    ASSERT_TRUE(leaf->is_leaf(std::memory_order_relaxed));
    bool found = false;
    for (int i = 0; i < leaf->nbodies; ++i)
      if (leaf->bodies[i] == bi) found = true;
    EXPECT_TRUE(found) << "body " << bi << " not in its recorded leaf";
  }
}

class BuilderP : public ::testing::TestWithParam<BuildCase> {};

TEST_P(BuilderP, MatchesSequentialReference) {
  const BuildCase c = GetParam();
  BHConfig cfg;
  cfg.n = c.n;
  cfg.leaf_cap = c.leaf_cap;
  cfg.seed = c.seed;
  AppState st = make_app_state(cfg, c.np);
  run_build(c.alg, st);

  const TreeCheckResult res = check_tree(st.tree.root, st.bodies, st.cfg,
                                         /*check_moments=*/true);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.body_count, c.n);
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st))
      << "parallel tree differs structurally from the sequential reference";
  expect_created_lists_consistent(st);
  expect_body_leaf_map_correct(st);
}

std::vector<BuildCase> sweep_cases() {
  std::vector<BuildCase> cases;
  for (Algorithm alg : all_algorithms()) {
    for (int np : {1, 2, 4, 8, 16}) {
      cases.push_back(BuildCase{alg, 3000, np, 8, 11});
    }
    cases.push_back(BuildCase{alg, 300, 4, 8, 7});    // small n edge
    cases.push_back(BuildCase{alg, 3000, 4, 1, 13});  // k=1 (deep tree)
    cases.push_back(BuildCase{alg, 3000, 4, 16, 17}); // k=capacity
    cases.push_back(BuildCase{alg, 8000, 6, 8, 19});  // non-power-of-two procs
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuilderP, ::testing::ValuesIn(sweep_cases()), case_name);

// --- distribution sweep: the builders must agree with the reference on any
// body distribution, not just Plummer ---

struct DistCase {
  Algorithm alg;
  const char* dist;
};

class BuilderDistP : public ::testing::TestWithParam<DistCase> {};

TEST_P(BuilderDistP, MatchesReferenceOnDistribution) {
  const DistCase c = GetParam();
  BHConfig cfg;
  cfg.n = 2500;
  AppState st;
  st.cfg = cfg;
  if (std::string(c.dist) == "uniform")
    st.init(make_uniform_cube(cfg.n, 3), 4);
  else
    st.init(make_colliding_pair(cfg.n, 3), 4);
  st.cfg = cfg;
  run_build(c.alg, st);
  const TreeCheckResult res = check_tree(st.tree.root, st.bodies, st.cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

std::vector<DistCase> dist_cases() {
  std::vector<DistCase> cases;
  for (Algorithm alg : all_algorithms())
    for (const char* d : {"uniform", "colliding"}) cases.push_back(DistCase{alg, d});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Distributions, BuilderDistP, ::testing::ValuesIn(dist_cases()),
                         [](const auto& info) {
                           return std::string(algorithm_name(info.param.alg)) + "_" +
                                  info.param.dist;
                         });

TEST(SpaceBuilderEdge, SingleSubspaceWhenSmall) {
  // n below the SPACE threshold: the whole space is one subspace; the tree
  // must still be correct and equivalent.
  BHConfig cfg;
  cfg.n = 100;
  cfg.space_threshold = 1000;
  AppState st = make_app_state(cfg, 4);
  run_build(Algorithm::kSpace, st);
  ASSERT_TRUE(check_tree(st.tree.root, st.bodies, st.cfg).ok);
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

TEST(SpaceBuilderEdge, TinyThresholdManySubspaces) {
  BHConfig cfg;
  cfg.n = 2000;
  cfg.space_threshold = 16;  // deep partitioning tree, many subspaces
  AppState st = make_app_state(cfg, 4);
  run_build(Algorithm::kSpace, st);
  ASSERT_TRUE(check_tree(st.tree.root, st.bodies, st.cfg).ok);
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

TEST(BuilderDeterminism, SameInputsSameTreeAndClocks) {
  BHConfig cfg;
  cfg.n = 2000;
  auto once = [&](Algorithm alg) {
    AppState st = make_app_state(cfg, 8);
    SimContext ctx(PlatformSpec::origin2000(), 8);
    register_common_regions(ctx, st);
    std::uint64_t hash = 0;
    with_builder(alg, st, [&](auto& b) {
      b.register_regions(ctx);
      ctx.run([&](SimProc& rt) {
        b.build(rt);
        rt.barrier();
      });
      hash = canonical_hash(st.tree.root, st.bodies);
    });
    return std::make_pair(hash, collect_run_result(ctx, st));
  };
  for (Algorithm alg : {Algorithm::kOrig, Algorithm::kSpace}) {
    const auto a = once(alg);
    const auto b = once(alg);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(first_difference(a.second, b.second), "") << algorithm_name(alg);
  }
}

TEST(BuilderLocks, SpaceUsesNoLocksOrigUsesMany) {
  // PARTREE's low lock count depends on the partition being spatially
  // coherent (paper §2.4: "if the partitioning incorporates physical
  // locality, this overhead should be small"), so run one full time-step
  // first — its costzones pass replaces the round-robin initial assignment —
  // and measure the locks of a second, representative build.
  BHConfig cfg;
  cfg.n = 4000;
  auto locks_of = [&](Algorithm alg) {
    AppState st = make_app_state(cfg, 8);
    SimContext ctx(PlatformSpec::ideal(), 8);
    register_common_regions(ctx, st);
    std::uint64_t locks = 0;
    with_builder(alg, st, [&](auto& b) {
      b.register_regions(ctx);
      ctx.run([&](SimProc& rt) {
        timestep(rt, st, b, /*measured=*/false);
        rt.begin_phase(Phase::kTreeBuild);
        b.build(rt);
        rt.barrier();
        rt.begin_phase(Phase::kOther);
      });
      for (const auto& ps : ctx.stats())
        locks += ps.lock_acquires[static_cast<int>(Phase::kTreeBuild)];
    });
    return locks;
  };
  const auto orig = locks_of(Algorithm::kOrig);
  const auto partree = locks_of(Algorithm::kPartree);
  const auto space = locks_of(Algorithm::kSpace);
  const auto radix = locks_of(Algorithm::kRadix);
  EXPECT_GT(orig, 0u);
  EXPECT_LT(partree, orig / 2) << "PARTREE must lock far less than ORIG";
  EXPECT_EQ(space, 0u) << "SPACE must be entirely lock-free";
  EXPECT_EQ(radix, 0u) << "RADIX must be entirely lock-free";
}

TEST(RadixBuilderEdge, SingleSegmentWhenSmall) {
  // n below the segmentation threshold: no upper cells; the one claimed
  // segment builds the whole tree (root may even be a leaf).
  BHConfig cfg;
  cfg.n = 100;
  cfg.space_threshold = 1000;
  AppState st = make_app_state(cfg, 4);
  run_build(Algorithm::kRadix, st);
  ASSERT_TRUE(check_tree(st.tree.root, st.bodies, st.cfg).ok);
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

TEST(RadixBuilderEdge, TinyThresholdManySegments) {
  BHConfig cfg;
  cfg.n = 2000;
  cfg.space_threshold = 16;  // deep upper tree, many claimed segments
  AppState st = make_app_state(cfg, 4);
  run_build(Algorithm::kRadix, st);
  ASSERT_TRUE(check_tree(st.tree.root, st.bodies, st.cfg).ok);
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

TEST(RadixBuilderEdge, CoincidentBodiesFallBackGeometrically) {
  // More bodies than leaf_cap inside one 2^-21 Morton quantum: the key bits
  // run out and the builder must split the identical-key run geometrically,
  // matching the reference's coincident-body handling.
  BHConfig cfg;
  cfg.n = 64;
  cfg.leaf_cap = 2;
  AppState st = make_app_state(cfg, 4);
  // Collapse bodies into two clusters much tighter than the key quantum.
  for (std::size_t i = 0; i < st.bodies.size(); ++i) {
    const double eps = 1e-12 * static_cast<double>(i % 5);
    const double base = (i % 2 == 0) ? 0.25 : -0.25;
    st.bodies[i].pos = Vec3{base + eps, base - eps, base + 2.0 * eps};
  }
  run_build(Algorithm::kRadix, st);
  const TreeCheckResult res = check_tree(st.tree.root, st.bodies, st.cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

}  // namespace
}  // namespace ptb
