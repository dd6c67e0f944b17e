// Anatomy micro/identity bench: cost and bit-identity of the speedup-loss
// ledger.
//
// For every algorithm the same (challenge, n, p) cell is run with the ledger
// off and on: the virtual results must be bit-identical (the ledger is a
// pure observer — that identity is the license for leaving it attachable to
// every run), and the host-side throughput of ledgered runs is the gated
// perf metric. A p-sweep per algorithm then prints the speedup-loss
// waterfall the ledger exists for.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "anatomy/sweep.hpp"
#include "bench_common.hpp"
#include "harness/report.hpp"
#include "support/cli.hpp"
#include "support/provenance.hpp"
#include "support/table.hpp"

using namespace ptb;
using namespace ptb::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 2048, "bodies per cell"));
  const int np = static_cast<int>(cli.get_int("procs", 4, "sweep endpoint processors"));
  const int reps = static_cast<int>(cli.get_int("reps", 3, "repetitions (best kept)"));
  const std::string json_path =
      cli.get_string("json", "BENCH_anatomy.json", "JSON output path (empty disables)");
  cli.finish();

  banner("anatomy micro", "speedup-loss ledger: overhead and bit-identity");
  std::printf("challenge, n=%d, p=%d vs p=1, best of %d reps\n\n", n, np, reps);

  JsonReport json;
  json.set_path(json_path);
  json.context("git_sha", support::git_sha()).context("build_type", support::build_type());

  ExperimentRunner runner;
  std::string diverged;  // the first difference found, "" while identical
  Table t("ledgered runs (anatomy on; identity checked against anatomy off)");
  t.set_header({"algorithm", "virtual total", "busy share", "loss attributed",
                "runs/s (host)", "identical"});
  for (Algorithm alg : all_algorithms()) {
    ExperimentSpec spec;
    spec.platform = "challenge";
    spec.algorithm = alg;
    spec.n = n;
    spec.nprocs = np;
    spec.warmup_steps = 1;
    spec.measured_steps = 2;

    spec.anatomy = false;
    const ExperimentResult off = runner.run(spec);
    spec.anatomy = true;
    ExperimentResult on;
    double best_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer wall;
      on = runner.run(spec);
      const double s = wall.seconds();
      if (rep == 0 || s < best_s) best_s = s;
    }
    const std::string diff = first_difference(off.run, on.run);
    const bool same = diff.empty();
    if (diverged.empty() && !same) diverged = algorithm_name(alg) + (": " + diff);

    // The waterfall against a p=1 reference: its category deltas must
    // attribute the whole loss (asserted inside build_waterfall).
    ExperimentSpec ref = spec;
    ref.nprocs = 1;
    const ExperimentResult r1 = runner.run(ref);
    const anatomy::Waterfall wf = anatomy::build_waterfall(r1.anatomy, on.anatomy);

    const double pt = static_cast<double>(np) * on.anatomy.total_ns;
    const double busy_share =
        pt > 0.0 ? on.anatomy.category_ns(anatomy::Category::kBusy) / pt : 0.0;
    const double rate = best_s > 0.0 ? 1.0 / best_s : 0.0;
    t.add_row({algorithm_name(alg), fmt_seconds(on.run.total_ns * 1e-9),
               fmt_percent(busy_share), fmt_seconds(wf.loss_ns * 1e-9),
               Table::num(rate, 2), same ? "yes" : "NO"});

    json.row()
        .field("bench", std::string("anatomy_sweep"))
        .field("platform", std::string("challenge"))
        .field("algorithm", std::string(algorithm_name(alg)))
        .field("n", static_cast<std::int64_t>(n))
        .field("procs", static_cast<std::int64_t>(np))
        .field("virtual_total_ns", on.run.total_ns)
        .field("loss_ns", wf.loss_ns)
        .field("busy_share", busy_share)
        .field("imbalance_ns", on.anatomy.imbalance_ns())
        .field("lock_wait_ns", on.anatomy.category_ns(anatomy::Category::kLockWait))
        .field("host_seconds", best_s)
        .field("ledgered_runs_per_sec", rate);
  }
  t.print();

  const bool identical = diverged.empty();
  std::printf("\nanatomy on vs off: virtual results %s\n",
              identical ? "identical" : "DIVERGED");
  json.row()
      .field("bench", std::string("anatomy_summary"))
      .field("procs", static_cast<std::int64_t>(np))
      .field("virtual_results_identical", std::string(identical ? "yes" : "no"));
  json.save();

  if (!identical) {
    std::fprintf(stderr, "FAIL: the anatomy ledger perturbed virtual results (%s)\n",
                 diverged.c_str());
    return 1;
  }
  return 0;
}
