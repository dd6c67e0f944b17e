// Ablation: particle-distribution sensitivity.
// The paper's workload is a (centrally condensed) Plummer galaxy. This bench
// compares every builder on a uniform distribution and on a colliding
// cluster pair, on the SVM platform where tree-build costs dominate: the
// uniform case has a shallow, balanced tree (less lock contention, fewer
// subdivision chains); the colliding pair stresses UPDATE's incremental
// maintenance.
#include "bench_common.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/dispatch.hpp"

namespace {

using namespace ptb;

AppState make_state(const std::string& dist, int n, int np) {
  BHConfig cfg;
  cfg.n = n;
  AppState st;
  st.cfg = cfg;
  if (dist == "plummer")
    st.init(make_plummer(n, cfg.seed), np);
  else if (dist == "uniform")
    st.init(make_uniform_cube(n, cfg.seed), np);
  else
    st.init(make_colliding_pair(n, cfg.seed), np);
  st.cfg = cfg;
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptb::bench;
  BenchOptions opt = parse_options(argc, argv, "8192", "32768", "16");
  banner("Ablation: particle distribution",
         "tree-build cost vs workload shape, typhoon0 (HLRC)");

  const int np = static_cast<int>(opt.procs[0]);
  const int n = static_cast<int>(opt.sizes[0]);
  Table t("distribution ablation, n=" + size_label(n) + ", " + std::to_string(np) +
          "p — treebuild seconds (whole-app virtual s)");
  t.set_header({"algorithm", "plummer", "uniform", "colliding"});
  for (Algorithm alg : all_algorithms()) {
    std::vector<std::string> row = {algorithm_name(alg)};
    for (const std::string dist : {"plummer", "uniform", "colliding"}) {
      AppState st = make_state(dist, n, np);
      SimContext ctx(PlatformSpec::typhoon0_hlrc(), np);
      RunResult r;
      with_builder(alg, st, [&](auto& b) {
        r = run_simulation(ctx, st, b, RunConfig{opt.warmup, opt.measured});
      });
      row.push_back(Table::num(r.phase(Phase::kTreeBuild) * 1e-9, 3) + " (" +
                    Table::num(r.total_ns * 1e-9, 2) + ")");
    }
    t.add_row(row);
  }
  t.print();
  return 0;
}
