// RADIX headline bench: the paper's question re-asked 25 years later.
//
// Part 1 sweeps ORIG (the 1998 baseline), SPACE (the paper's winner) and
// RADIX (the lock-free Morton-sort builder) across the four 1998 machines
// and the two 2020s models (numa2020, simt2020), reporting whole-app and
// tree-build speedups — the (platform, algorithm) speedup rows are the gated
// regression metric. Part 2 prints the anatomy waterfalls that ATTRIBUTE the
// SPACE-vs-RADIX difference, one 1998 config and one 2020s config. Part 3 is
// the identity license + honest host numbers: RADIX's virtual results must
// be bit-identical across the fiber and parallel backends (its sort phases
// are unordered sections, so kParallel genuinely overlaps them on host
// threads), and the measured host-side wall time of the parallel backend
// under --workers is reported as-is.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "support/cli.hpp"
#include "support/provenance.hpp"
#include "support/table.hpp"
#include "treebuild/radix.hpp"

namespace {

using namespace ptb;
using namespace ptb::bench;

void print_waterfall_line(const char* tag, const anatomy::Waterfall& wf) {
  std::printf("  %-28s loss %8.1f us:", tag, wf.loss_ns * 1e-3);
  for (int c = 0; c < anatomy::kNumCategories; ++c)
    std::printf(" %s=%.1f", anatomy::category_name(static_cast<anatomy::Category>(c)),
                wf.delta[static_cast<std::size_t>(c)] * 1e-3);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 16384, "number of bodies"));
  const int np = static_cast<int>(cli.get_int("procs", 8, "simulated processors"));
  const int reps = static_cast<int>(cli.get_int("reps", 3, "host-time repetitions"));
  const int workers =
      static_cast<int>(cli.get_int("workers", 4, "host workers for the parallel backend"));
  const std::string json_path =
      cli.get_string("json", "BENCH_radix.json", "JSON output path (empty disables)");
  cli.finish();

  banner("radix", "lock-free Morton builder vs SPACE, 1998 and 2020s machines");
  std::printf("n=%d, p=%d\n\n", n, np);

  JsonReport json;
  json.set_path(json_path);
  json.context("git_sha", support::git_sha()).context("build_type", support::build_type());

  // --- Part 1: the (platform, algorithm) speedup matrix ---------------------
  const std::vector<std::string> platforms = {
      "challenge", "origin2000",   "paragon", "typhoon0_hlrc",
      "typhoon0_sc", "numa2020", "simt2020"};
  const Algorithm algos[] = {Algorithm::kOrig, Algorithm::kSpace, Algorithm::kRadix};

  ExperimentRunner runner;
  // Ledgers saved for the waterfall section: [platform][algorithm] at p=np
  // and the p=1 references.
  struct Cell {
    anatomy::Ledger at_p;
    anatomy::Ledger at_1;
    double treebuild_speedup = 0.0;
  };
  std::vector<std::vector<Cell>> cells(platforms.size(), std::vector<Cell>(3));

  Table t("speedup at p=" + std::to_string(np) + " (whole app / tree build)");
  t.set_header({"platform", "ORIG", "SPACE", "RADIX", "tb ORIG", "tb SPACE", "tb RADIX"});
  for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
    std::vector<std::string> row{platforms[pi]};
    std::vector<std::string> tb_cols;
    for (int ai = 0; ai < 3; ++ai) {
      ExperimentSpec spec;
      spec.platform = platforms[pi];
      spec.algorithm = algos[ai];
      spec.n = n;
      spec.nprocs = np;
      spec.warmup_steps = 1;
      spec.measured_steps = 1;
      spec.anatomy = true;
      const ExperimentResult r = runner.run(spec);
      ExperimentSpec ref = spec;
      ref.nprocs = 1;
      const ExperimentResult r1 = runner.run(ref);
      cells[pi][static_cast<std::size_t>(ai)] =
          Cell{r.anatomy, r1.anatomy, r.treebuild_speedup};
      row.push_back(Table::num(r.speedup, 2));
      tb_cols.push_back(Table::num(r.treebuild_speedup, 2));
      json.row()
          .field("bench", std::string("radix_matrix"))
          .field("platform", platforms[pi])
          .field("algorithm", std::string(algorithm_name(algos[ai])))
          .field("n", static_cast<std::int64_t>(n))
          .field("procs", static_cast<std::int64_t>(np))
          .field("speedup", r.speedup)
          .field("treebuild_speedup", r.treebuild_speedup)
          .field("treebuild_frac", r.treebuild_fraction)
          .field("virtual_total_ns", r.run.total_ns)
          .field("treebuild_locks", static_cast<std::int64_t>(r.treebuild_locks_total))
          .field("lock_wait_ns", r.anatomy.category_ns(anatomy::Category::kLockWait))
          .field("imbalance_ns", r.anatomy.imbalance_ns());
    }
    for (auto& c : tb_cols) row.push_back(std::move(c));
    t.add_row(row);
  }
  t.print();

  // --- Part 2: anatomy waterfalls attributing SPACE vs RADIX ----------------
  // One 1998 config and one 2020s config, as ledger-category deltas of the
  // p-processor run against its own p=1 reference (deltas in us).
  for (const char* plat : {"challenge", "numa2020", "simt2020"}) {
    const auto pi = static_cast<std::size_t>(
        std::find(platforms.begin(), platforms.end(), plat) - platforms.begin());
    std::printf("\n%s, p=%d — where the cycles went (vs p=1):\n", plat, np);
    for (int ai = 1; ai < 3; ++ai) {  // SPACE, RADIX
      const Cell& c = cells[pi][static_cast<std::size_t>(ai)];
      const anatomy::Waterfall wf = anatomy::build_waterfall(c.at_1, c.at_p);
      print_waterfall_line(algorithm_name(algos[ai]), wf);
    }
  }

  // --- Part 3: backend identity + honest host time --------------------------
  // RADIX on the two eras' flagship machines across both backends. Each run
  // builds its own state: virtual results may not depend on host addresses
  // (DESIGN.md decision 6). Any divergence fails the bench (and the
  // regression gate reads the row).
  std::string diverged;  // the first difference found, "" while identical
  std::printf("\nbackend identity + host wall time (RADIX, %d reps best):\n", reps);
  for (const char* plat : {"challenge", "numa2020"}) {
    BHConfig bh;
    bh.n = n;
    const RunConfig rc{/*warmup_steps=*/0, /*measured_steps=*/1};
    RunResult ref_run;
    for (const SimBackend backend : kSimBackends) {
      double best_s = 0.0;
      RunResult run;
      for (int rep = 0; rep < reps; ++rep) {
        AppState st = make_app_state(bh, np);
        RadixBuilder builder(st);
        SimContext ctx(PlatformSpec::by_name(plat), np, backend);
        if (backend == SimBackend::kParallel && workers > 0) ctx.set_workers(workers);
        WallTimer wall;
        run = run_simulation(ctx, st, builder, rc);
        const double s = wall.seconds();
        if (rep == 0 || s < best_s) best_s = s;
      }
      if (backend == SimBackend::kFibers)
        ref_run = run;
      else if (diverged.empty() && ref_run != run)
        diverged = plat + (": " + first_difference(ref_run, run));
      std::printf("  %-10s %-8s %8.4f s host\n", plat, to_string(backend), best_s);
      json.row()
          .field("bench", std::string("radix_host"))
          .field("platform", std::string(plat))
          .field("backend", std::string(to_string(backend)))
          .field("workers", static_cast<std::int64_t>(
                                backend == SimBackend::kParallel ? workers : 1))
          .field("n", static_cast<std::int64_t>(n))
          .field("procs", static_cast<std::int64_t>(np))
          .field("host_seconds", best_s);
    }
  }
  const bool identical = diverged.empty();
  std::printf("virtual_results_identical: %s\n", identical ? "yes" : "no");
  json.row()
      .field("bench", std::string("radix_summary"))
      .field("procs", static_cast<std::int64_t>(np))
      .field("virtual_results_identical", std::string(identical ? "yes" : "no"));
  json.save();

  if (!identical) {
    std::fprintf(stderr, "FAIL: RADIX virtual results diverged across backends (%s)\n",
                 diverged.c_str());
    return 1;
  }
  return 0;
}
