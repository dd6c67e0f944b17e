// Output checks of the traced pass. They need no pinned digest: the tree is
// checked against its structural invariants and the accelerations against
// direct summation, so a deliberate re-baseline of virtual times leaves
// them valid.
#include <algorithm>
#include <cmath>
#include <span>

#include "bh/verify.hpp"
#include "traced.hpp"

namespace perfbench {

using namespace ptb;

namespace {

/// Bodies sampled for the direct-summation comparison.
constexpr int kSampledBodies = 32;
/// Barnes–Hut at the default opening angle (theta = 1) approximates far
/// cells by their centre of mass. The median per-body relative error is a
/// few percent; the largest error is measured against the sample's RMS
/// acceleration, because a body whose pulls nearly cancel has a tiny
/// reference and an unbounded relative error.
constexpr double kMedianRelErrTol = 0.05;
constexpr double kMaxErrVsRmsTol = 0.25;

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Vec3 direct_accel(std::span<const Body> bodies, std::size_t i, double eps2) {
  Vec3 acc{};
  const Vec3 pos = bodies[i].pos;
  for (std::size_t j = 0; j < bodies.size(); ++j) {
    if (j == i) continue;
    const Vec3 d = bodies[j].pos - pos;
    const double r2 = norm2(d) + eps2;
    acc += (bodies[j].mass / (r2 * std::sqrt(r2))) * d;
  }
  return acc;
}

}  // namespace

CheckResult check_final_step(const AppState& st, const Bodies& built_from,
                             std::uint64_t seed) {
  CheckResult cr;
  const std::span<const Body> bodies(built_from.data(), built_from.size());
  const TreeCheckResult tc = check_tree(st.tree.root, bodies, st.cfg, /*check_moments=*/true);
  cr.tree_ok = tc.ok && tc.body_count == static_cast<std::int64_t>(bodies.size());
  cr.tree_error = tc.ok ? (cr.tree_ok ? "" : "tree does not hold every body") : tc.error;

  const double eps2 = st.cfg.eps * st.cfg.eps;
  std::vector<double> rel;
  std::vector<double> err;
  double sum_sq = 0.0;
  std::uint64_t rng = seed ^ 0x5eedull;
  const int k = std::min<int>(kSampledBodies, static_cast<int>(bodies.size()));
  for (int s = 0; s < k; ++s) {
    const std::size_t i = splitmix64(rng) % bodies.size();
    const Vec3 ref = direct_accel(bodies, i, eps2);
    const double mag = norm(ref);
    if (mag <= 0.0) continue;
    err.push_back(norm(st.bodies[i].acc - ref));
    rel.push_back(err.back() / mag);
    sum_sq += mag * mag;
  }
  if (rel.empty()) {
    cr.accel_ok = false;
    return cr;
  }
  std::sort(rel.begin(), rel.end());
  cr.median_rel_err = rel[rel.size() / 2];
  cr.max_err_vs_rms =
      *std::max_element(err.begin(), err.end()) / std::sqrt(sum_sq / static_cast<double>(err.size()));
  cr.accel_ok = std::isfinite(cr.max_err_vs_rms) && cr.median_rel_err <= kMedianRelErrTol &&
                cr.max_err_vs_rms <= kMaxErrVsRmsTol;
  return cr;
}

}  // namespace perfbench
