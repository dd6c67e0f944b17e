// Ablation: sensitivity of the algorithm ranking to synchronization cost.
// The paper's thesis is that the BEST algorithm depends on how expensive
// synchronization is on the platform. This bench sweeps a synthetic lock
// cost on an otherwise Origin-like machine and reports where the crossover
// from LOCAL-best to SPACE-best falls.
#include "bench_common.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/dispatch.hpp"

int main(int argc, char** argv) {
  using namespace ptb;
  using namespace ptb::bench;
  BenchOptions opt = parse_options(argc, argv, "8192", "65536", "16");
  banner("Ablation: lock cost",
         "algorithm ranking vs synchronization latency (crossover hunt)");

  const int np = static_cast<int>(opt.procs[0]);
  const int n = static_cast<int>(opt.sizes[0]);
  Table t("lock-cost ablation, origin-like machine, n=" + size_label(n) + ", " +
          std::to_string(np) + "p — whole-app virtual seconds");
  t.set_header({"lock cost", "ORIG", "LOCAL", "PARTREE", "SPACE", "winner"});
  for (double lock_us : {0.8, 4.0, 20.0, 100.0, 500.0}) {
    std::vector<std::string> row = {Table::num(lock_us, 1) + "us"};
    double best = 1e300;
    const char* winner = "";
    for (Algorithm alg : {Algorithm::kOrig, Algorithm::kLocal, Algorithm::kPartree,
                          Algorithm::kSpace}) {
      PlatformSpec spec = PlatformSpec::origin2000();
      spec.lock_ns = lock_us * 1000.0;
      BHConfig bh;
      bh.n = n;
      AppState st = make_app_state(bh, np);
      SimContext ctx(spec, np);
      RunResult res;
      with_builder(alg, st, [&](auto& b) {
        res = run_simulation(ctx, st, b, RunConfig{opt.warmup, opt.measured});
      });
      const double s = res.total_ns * 1e-9;
      row.push_back(Table::num(s, 3));
      if (s < best) {
        best = s;
        winner = algorithm_name(alg);
      }
    }
    row.push_back(winner);
    t.add_row(row);
  }
  t.print();
  return 0;
}
