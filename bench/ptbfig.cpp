// ptbfig: regenerates the paper's tables and figures, the §4.4.2 fine-grain
// SC comparison, the portability matrix and the ablations, from one table of
// entries (kFigures below).
//
//   ./build/bench/ptbfig                         # every entry, in DESIGN.md §4 order
//   ./build/bench/ptbfig --figure=fig13,table1   # just these, in this order
//   ./build/bench/ptbfig --figure=fig8 --full    # the paper's sizes (slow)
//
// By default each entry runs scaled-down body counts so the whole suite
// completes in minutes; --full runs the paper's largest sizes (hundreds of
// thousands of bodies — slow on the execution-driven simulator). --sizes,
// --procs, --warmup and --steps override every selected entry's sweep. One
// ExperimentRunner serves the invocation, so entries share p=1 baselines.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "anatomy/anatomy.hpp"
#include "bench_common.hpp"
#include "bh/generate.hpp"
#include "harness/app.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "platform/spec.hpp"
#include "sim/sim_rt.hpp"
#include "support/cli.hpp"
#include "support/provenance.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "treebuild/dispatch.hpp"
#include "treebuild/types.hpp"

namespace {

using namespace ptb;
using namespace ptb::bench;

struct BenchOptions {
  std::vector<std::int64_t> sizes;  // --sizes; empty = each entry's own
  std::vector<std::int64_t> procs;  // --procs; empty = each entry's own
  int warmup = 1;
  int measured = 2;
  bool full = false;
  SimBackend backend = default_sim_backend();
  /// Host worker threads for the parallel backend (0 = default).
  int workers = 0;
};

ExperimentSpec make_spec(const std::string& platform, Algorithm alg, int n, int np,
                         const BenchOptions& opt) {
  ExperimentSpec s;
  s.platform = platform;
  s.algorithm = alg;
  s.n = n;
  s.nprocs = np;
  s.warmup_steps = opt.warmup;
  s.measured_steps = opt.measured;
  s.backend = opt.backend;
  s.sim_workers = opt.workers;
  return s;
}

std::string size_label(std::int64_t n) {
  if (n % 1024 == 0) return std::to_string(n / 1024) + "k";
  return std::to_string(n);
}

std::string joined(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::int64_t x : v) {
    if (!out.empty()) out += ',';
    out += std::to_string(x);
  }
  return out;
}

/// What one entry runs with: the invocation's runner and report, and the
/// entry's sizes and processor counts after --sizes / --procs / --full.
struct Sweep {
  const BenchOptions& opt;
  ExperimentRunner& runner;
  JsonReport& json;
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> procs;

  int n() const { return static_cast<int>(sizes[0]); }
  int np() const { return static_cast<int>(procs[0]); }
  /// A JSON row stamped with this entry's sweep.
  JsonReport& json_row() const {
    return json.row().field("sizes", joined(sizes)).field("procs", joined(procs));
  }
};

// --- grids: one experiment per (row, column) cell ---------------------------

using CellFormat = std::string (*)(const ExperimentResult&);

/// One row or column of a grid: its label, and what it sets in a cell's spec.
struct Point {
  std::string label;
  std::function<void(ExperimentSpec&)> set;
};

std::vector<Point> algorithm_points() {
  std::vector<Point> out;
  for (Algorithm alg : all_algorithms())
    out.push_back({algorithm_name(alg), [alg](ExperimentSpec& s) { s.algorithm = alg; }});
  return out;
}

/// Runs rows × cols experiments from `base` and prints them as one table. With
/// `best`, a last column names the column of each row's highest speedup.
void print_grid(const Sweep& sw, const std::string& title, const char* corner,
                const std::vector<Point>& rows, const std::vector<Point>& cols,
                const ExperimentSpec& base, CellFormat cell, bool best) {
  Table t(title);
  std::vector<std::string> header = {corner};
  for (const Point& c : cols) header.push_back(c.label);
  if (best) header.push_back("best");
  t.set_header(header);
  for (const Point& r : rows) {
    std::vector<std::string> row = {r.label};
    double top = 0.0;
    std::string top_label;
    for (const Point& c : cols) {
      ExperimentSpec spec = base;
      r.set(spec);
      c.set(spec);
      const ExperimentResult res = sw.runner.run(spec);
      row.push_back(cell(res));
      if (res.speedup > top) {
        top = res.speedup;
        top_label = c.label;
      }
    }
    if (best) row.push_back(top_label);
    t.add_row(row);
  }
  t.print();
}

enum class Axis { kSizes, kProcs };

/// A paper figure: the algorithms (rows) on one platform, swept over the body
/// counts at procs[0] or over the processor counts at sizes[0] (columns).
struct Grid {
  const char* platform;
  Axis axis;
  const char* title;  // "{n}" stands for sizes[0], "{p}" for procs[0]
  CellFormat cell;
};

std::string fill(std::string title, const Sweep& sw) {
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"{n}", size_label(sw.n())},
        {"{p}", std::to_string(sw.np())}})
    if (const auto at = title.find(key); at != std::string::npos)
      title.replace(at, key.size(), value);
  return title;
}

void run_grid(const Grid& g, const Sweep& sw) {
  std::vector<Point> cols;
  if (g.axis == Axis::kSizes) {
    for (std::int64_t n : sw.sizes)
      cols.push_back(
          {size_label(n), [n](ExperimentSpec& s) { s.n = static_cast<int>(n); }});
  } else {
    for (std::int64_t p : sw.procs)
      cols.push_back({std::to_string(p) + "p",
                      [p](ExperimentSpec& s) { s.nprocs = static_cast<int>(p); }});
  }
  print_grid(sw, fill(g.title, sw), "algorithm", algorithm_points(), cols,
             make_spec(g.platform, Algorithm::kOrig, sw.n(), sw.np(), sw.opt), g.cell,
             false);
}

std::string speedup(const ExperimentResult& r) { return fmt_speedup(r.speedup); }
std::string treebuild_speedup(const ExperimentResult& r) {
  return fmt_speedup(r.treebuild_speedup);
}
std::string treebuild_share(const ExperimentResult& r) {
  return fmt_percent(r.treebuild_fraction);
}
std::string speedup_and_share(const ExperimentResult& r) {
  return fmt_speedup(r.speedup) + " | " + fmt_percent(r.treebuild_fraction);
}
std::string barrier_wait(const ExperimentResult& r) {
  return Table::num(r.barrier_wait_seconds_avg, 4);
}

// --- entries with tables of their own ---------------------------------------

void table1(const Sweep& sw) {
  Table t("Table 1: sequential execution time (s), " + std::to_string(sw.opt.measured) +
          " timed steps");
  std::vector<std::string> header = {"platform"};
  for (auto n : sw.sizes) header.push_back(size_label(n));
  t.set_header(header);
  for (const char* platform : {"origin2000", "challenge", "typhoon0_hlrc", "paragon"}) {
    std::vector<std::string> row = {platform};
    for (auto n : sw.sizes)
      row.push_back(Table::num(sw.runner.sequential_seconds(platform, static_cast<int>(n),
                                                            BHConfig{}, sw.opt.warmup,
                                                            sw.opt.measured),
                               2));
    t.add_row(row);
  }
  t.print();
}

// The execution-time breakdown comes from the anatomy ledger (every cell runs
// with the ledger enabled — virtual times are unchanged). The test
// AnatomyLedger.ExactAcrossTheAlgorithmPlatformMatrix holds the ledger equal
// to the metrics registry's time.* / sync.* sums.
void fig6(const Sweep& sw) {
  const int np = sw.np();
  Table t("Fig 6: speedup on challenge, " + std::to_string(np) + " processors");
  std::vector<std::string> header = {"algorithm"};
  for (auto n : sw.sizes) header.push_back(size_label(n));
  t.set_header(header);
  // Paper-style busy / memory / sync decomposition at the largest size, from
  // the anatomy ledger summed over processors (skew folded into barrier: it
  // is imbalance seen at the next phase boundary rather than a barrier).
  Table bdt("Fig 6: execution-time breakdown, n=" + size_label(sw.sizes.back()));
  bdt.set_header({"algorithm", "busy", "memory", "lock", "barrier"});
  for (Algorithm alg : all_algorithms()) {
    std::vector<std::string> row = {algorithm_name(alg)};
    for (auto n : sw.sizes) {
      WallTimer wall;
      ExperimentSpec spec = make_spec("challenge", alg, static_cast<int>(n), np, sw.opt);
      spec.anatomy = true;
      const auto r = sw.runner.run(spec);
      row.push_back(fmt_speedup(r.speedup));

      const anatomy::Ledger& led = r.anatomy;
      const double busy_ns = led.category_ns(anatomy::Category::kBusy);
      const double mem_local_ns = led.category_ns(anatomy::Category::kMemLocal);
      const double mem_remote_ns = led.category_ns(anatomy::Category::kMemRemote);
      const double mem_ns = mem_local_ns + mem_remote_ns;
      const double lock_ns = led.category_ns(anatomy::Category::kLockWait);
      const double barrier_ns = led.category_ns(anatomy::Category::kBarrierWait);
      const double skew_ns = led.category_ns(anatomy::Category::kPhaseSkew);
      const double pt_ns = static_cast<double>(np) * led.total_ns;
      const auto frac = [&](double ns) { return pt_ns > 0.0 ? ns / pt_ns : 0.0; };
      if (n == sw.sizes.back())
        bdt.add_row({algorithm_name(alg), fmt_percent(frac(busy_ns)),
                     fmt_percent(frac(mem_ns)), fmt_percent(frac(lock_ns)),
                     fmt_percent(frac(barrier_ns + skew_ns))});
      sw.json_row()
          .field("figure", std::string("fig6"))
          .field("platform", std::string("challenge"))
          .field("algorithm", std::string(algorithm_name(alg)))
          .field("n", n)
          .field("procs", static_cast<std::int64_t>(np))
          .field("backend", to_string(sw.opt.backend))
          .field("speedup", r.speedup)
          .field("virtual_ns", r.run.total_ns)
          .field("busy_s", busy_ns * 1e-9 / np)
          .field("mem_stall_s", mem_ns * 1e-9 / np)
          .field("mem_local_s", mem_local_ns * 1e-9 / np)
          .field("mem_remote_s", mem_remote_ns * 1e-9 / np)
          .field("lock_wait_s", lock_ns * 1e-9 / np)
          .field("barrier_wait_s", barrier_ns * 1e-9 / np)
          .field("skew_s", skew_ns * 1e-9 / np)
          .field("host_seconds", wall.seconds());
    }
    t.add_row(row);
  }
  t.print();
  std::printf("\n");
  bdt.print();
}

void fig15(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
  constexpr int kHistBuckets = 8;
  for (const std::string platform : {"typhoon0_hlrc", "origin2000"}) {
    Table t("Fig 15: locks per processor, " + platform + ", n=" + size_label(n) + ", " +
            std::to_string(sw.opt.measured) + " steps");
    std::vector<std::string> header = {"algorithm", "total"};
    for (int p = 0; p < np; ++p) header.push_back("P" + std::to_string(p));
    t.set_header(header);
    struct Row {
      Algorithm alg;
      std::vector<std::uint64_t> locks;
      WaitSummary wait;
    };
    std::vector<Row> rows;
    std::uint64_t max_locks = 0;
    for (Algorithm alg : all_algorithms()) {
      const auto r = sw.runner.run(make_spec(platform, alg, n, np, sw.opt));
      std::vector<std::string> row = {algorithm_name(alg),
                                      std::to_string(r.treebuild_locks_total)};
      for (auto locks : r.treebuild_locks_per_proc) {
        row.push_back(std::to_string(locks));
        max_locks = std::max(max_locks, locks);
      }
      t.add_row(row);
      rows.push_back({alg, r.treebuild_locks_per_proc, r.lock_wait});
    }
    t.print();
    std::printf("\n");

    // Lock-wait latency view: the acquisition *counts* above drive waiting
    // only through contention, so show the per-event wait quantiles too.
    Table wt("Fig 15: per-event lock wait, " + platform);
    wt.set_header({"algorithm", "events", "mean", "p50", "p95", "p99", "max"});
    for (const Row& row : rows)
      wt.add_row({algorithm_name(row.alg), std::to_string(row.wait.events),
                  fmt_seconds(row.wait.mean_s), fmt_seconds(row.wait.p50_s),
                  fmt_seconds(row.wait.p95_s), fmt_seconds(row.wait.p99_s),
                  fmt_seconds(row.wait.max_s)});
    wt.print();
    std::printf("\n");

    // Distribution view: how evenly the lock traffic spreads over the
    // processors (a shared histogram range so algorithms are comparable).
    const double hi = static_cast<double>(max_locks) + 1.0;
    Table ht("Fig 15: locks-per-processor distribution, " + platform);
    std::vector<std::string> hh = {"algorithm"};
    {
      const Histogram edges(0.0, hi, kHistBuckets);
      for (int b = 0; b < kHistBuckets; ++b)
        hh.push_back("[" + std::to_string(static_cast<std::uint64_t>(edges.bucket_lo(b))) +
                     "," + std::to_string(static_cast<std::uint64_t>(edges.bucket_hi(b))) +
                     ")");
    }
    ht.set_header(hh);
    for (const Row& row : rows) {
      Histogram h(0.0, hi, kHistBuckets);
      for (auto locks : row.locks) h.add(static_cast<double>(locks));
      std::vector<std::string> cells = {algorithm_name(row.alg)};
      for (int b = 0; b < kHistBuckets; ++b)
        cells.push_back(std::to_string(h.bucket_count(b)));
      ht.add_row(cells);

      std::uint64_t total = 0;
      for (auto locks : row.locks) total += locks;
      auto& jr = sw.json_row()
                     .field("figure", std::string("fig15"))
                     .field("platform", platform)
                     .field("algorithm", std::string(algorithm_name(row.alg)))
                     .field("n", static_cast<std::int64_t>(n))
                     .field("procs", static_cast<std::int64_t>(np))
                     .field("locks_total", static_cast<std::int64_t>(total));
      for (int b = 0; b < kHistBuckets; ++b)
        jr.field("hist_b" + std::to_string(b),
                 static_cast<std::int64_t>(h.bucket_count(b)));
    }
    ht.print();
    std::printf("\n");
  }
}

void portability(const Sweep& sw) {
  std::vector<Point> platforms;
  for (const char* p :
       {"challenge", "origin2000", "typhoon0_sc", "typhoon0_hlrc", "paragon"})
    platforms.push_back({p, [p](ExperimentSpec& s) { s.platform = p; }});
  print_grid(sw,
             fill("Portability: whole-application speedup, n={n}, {p} processors "
                  "(rows: platform, columns: algorithm)",
                  sw),
             "platform", platforms, algorithm_points(),
             make_spec("", Algorithm::kOrig, sw.n(), sw.np(), sw.opt), speedup, true);
}

// --- ablations --------------------------------------------------------------

void ablate_leafcap(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
  for (const std::string platform : {"origin2000", "typhoon0_hlrc"}) {
    Table t("leaf-capacity ablation, " + platform + ", n=" + size_label(n) + ", " +
            std::to_string(np) + "p — treebuild seconds (speedup)");
    t.set_header({"k", "ORIG", "LOCAL", "PARTREE", "SPACE"});
    for (int k : {1, 2, 4, 8, 16}) {
      std::vector<std::string> row = {std::to_string(k)};
      for (Algorithm alg : {Algorithm::kOrig, Algorithm::kLocal, Algorithm::kPartree,
                            Algorithm::kSpace}) {
        ExperimentSpec spec = make_spec(platform, alg, n, np, sw.opt);
        spec.bh.leaf_cap = k;
        const auto r = sw.runner.run(spec);
        row.push_back(Table::num(r.treebuild_seconds, 3) + " (" +
                      fmt_speedup(r.speedup) + ")");
      }
      t.add_row(row);
    }
    t.print();
    std::printf("\n");
  }
}

void ablate_spacethresh(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
  for (const std::string platform : {"typhoon0_hlrc", "origin2000"}) {
    Table t("SPACE threshold ablation, " + platform + ", n=" + size_label(n) + ", " +
            std::to_string(np) + "p");
    t.set_header({"threshold", "treebuild(s)", "app speedup", "tb speedup"});
    for (int thresh : {n / 256, n / 64, n / 16, n / 4, n}) {
      if (thresh < 8) continue;
      ExperimentSpec spec = make_spec(platform, Algorithm::kSpace, n, np, sw.opt);
      spec.bh.space_threshold = thresh;
      const auto r = sw.runner.run(spec);
      t.add_row({std::to_string(thresh), Table::num(r.treebuild_seconds, 3),
                 fmt_speedup(r.speedup), fmt_speedup(r.treebuild_speedup)});
    }
    t.print();
    std::printf("\n");
  }
}

/// One parallel run outside ExperimentRunner (no p=1 baseline), on the
/// sweep's backend and with no observer, whatever PTB_RACE / PTB_SIGHT say:
/// nothing here reads one.
RunResult simulate(const Sweep& sw, const PlatformSpec& platform, Algorithm alg,
                   AppState& st) {
  SimContext ctx(platform, st.nprocs, sw.opt.backend, /*race_detect=*/false,
                 /*sight_observe=*/false);
  if (sw.opt.workers > 0) ctx.set_workers(sw.opt.workers);
  RunResult res;
  with_builder(alg, st, [&](auto& b) {
    res = run_simulation(ctx, st, b, RunConfig{sw.opt.warmup, sw.opt.measured});
  });
  return res;
}

void ablate_lockcost(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
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
      const double s = simulate(sw, spec, alg, st).total_ns * 1e-9;
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
}

void ablate_lockhash(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
  for (const std::string platform : {"origin2000", "typhoon0_hlrc"}) {
    Table t("ALOCK ablation (LOCAL builder), " + platform + ", n=" + size_label(n) +
            ", " + std::to_string(np) + "p");
    t.set_header({"lock pool", "speedup", "treebuild(s)", "lock wait(s)/proc"});
    for (int buckets : {8, 64, 512, 2048, 0}) {
      ExperimentSpec spec = make_spec(platform, Algorithm::kLocal, n, np, sw.opt);
      spec.bh.lock_buckets = buckets;
      const auto r = sw.runner.run(spec);
      t.add_row({buckets == 0 ? "per-cell" : std::to_string(buckets),
                 fmt_speedup(r.speedup), Table::num(r.treebuild_seconds, 3),
                 Table::num(r.lock_wait_seconds_avg, 4)});
    }
    t.print();
    std::printf("\n");
  }
}

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

void ablate_distribution(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
  Table t("distribution ablation, n=" + size_label(n) + ", " + std::to_string(np) +
          "p — treebuild seconds (whole-app virtual s)");
  t.set_header({"algorithm", "plummer", "uniform", "colliding"});
  for (Algorithm alg : all_algorithms()) {
    std::vector<std::string> row = {algorithm_name(alg)};
    for (const std::string dist : {"plummer", "uniform", "colliding"}) {
      AppState st = make_state(dist, n, np);
      const RunResult r = simulate(sw, PlatformSpec::typhoon0_hlrc(), alg, st);
      row.push_back(Table::num(r.phase(Phase::kTreeBuild) * 1e-9, 3) + " (" +
                    Table::num(r.total_ns * 1e-9, 2) + ")");
    }
    t.add_row(row);
  }
  t.print();
}

void ablate_partitioner(const Sweep& sw) {
  const int np = sw.np();
  const int n = sw.n();
  for (const std::string platform : {"origin2000", "typhoon0_hlrc"}) {
    Table t("partitioner ablation, " + platform + ", n=" + size_label(n) + ", " +
            std::to_string(np) + "p — speedup (partition phase s)");
    t.set_header({"algorithm", "costzones", "ORB"});
    for (Algorithm alg : {Algorithm::kLocal, Algorithm::kSpace}) {
      std::vector<std::string> row = {algorithm_name(alg)};
      for (Partitioner part : {Partitioner::kCostzones, Partitioner::kOrb}) {
        ExperimentSpec spec = make_spec(platform, alg, n, np, sw.opt);
        spec.bh.partitioner = part;
        const auto r = sw.runner.run(spec);
        row.push_back(fmt_speedup(r.speedup) + " (" +
                      Table::num(r.run.phase(Phase::kPartition) * 1e-9, 3) + ")");
      }
      t.add_row(row);
    }
    t.print();
    std::printf("\n");
  }
}

// --- the entries --------------------------------------------------------------

struct Figure {
  const char* id;    // --figure value
  const char* name;  // banner
  const char* what;
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> full_sizes;  // with --full
  std::vector<std::int64_t> procs;
  std::variant<Grid, void (*)(const Sweep&)> body;
};

// Paper entries in DESIGN.md §4 order, then the ablations.
const std::vector<Figure>& figures() {
  static const std::vector<Figure> kFigures = {
      // Table 1: best sequential execution time on each of the four
      // platforms, across problem sizes.
      {"table1", "Table 1", "best sequential time (seconds) on the four platforms",
       {8192, 16384, 32768}, {8192, 16384, 32768, 65536, 131072, 524288}, {1}, table1},
      // Figure 6: whole-application speedups on the SGI Challenge (16
      // processors) for the tree-building algorithms across problem sizes.
      // Paper shape: all five between ~12 and ~15; LOCAL best, ORIG worst.
      {"fig6", "Figure 6", "speedups on SGI Challenge, 16 processors", {8192, 16384},
       {8192, 16384, 32768, 65536, 131072}, {16}, fig6},
      // Figure 7: tree-building cost as a percentage of total execution time
      // on the SGI Challenge (paper: 128k bodies; 4, 8, 16 processors).
      // Paper shape: small (<~10%) for the good algorithms, largest for ORIG.
      {"fig7", "Figure 7", "tree-build share of total time on SGI Challenge", {16384},
       {131072}, {4, 8, 16},
       Grid{"challenge", Axis::kProcs,
            "Fig 7: tree-build % of total time, challenge, n={n}", treebuild_share}},
      // Figure 8: whole-application speedups on the SGI Origin2000 (30
      // processors) across problem sizes.
      // Paper shape: LOCAL/UPDATE/PARTREE close together and best, SPACE
      // slightly behind (locality/load balance), ORIG far behind (false
      // sharing + remote misses), gap growing with problem size.
      {"fig8", "Figure 8", "speedups on SGI Origin2000, 30 processors", {8192, 16384},
       {8192, 16384, 32768, 65536, 131072, 524288}, {30},
       Grid{"origin2000", Axis::kSizes, "Fig 8: speedup on origin2000, {p} processors",
            speedup}},
      // Figure 9: speedups of the TREE-BUILDING PHASE ALONE on the SGI
      // Origin2000 (30 processors) across problem sizes.
      // Paper shape: same relative ordering as the whole application (Fig 8)
      // but much lower absolute speedups.
      {"fig9", "Figure 9", "tree-build-phase speedups on SGI Origin2000, 30 processors",
       {8192, 16384}, {8192, 16384, 32768, 65536, 131072, 524288}, {30},
       Grid{"origin2000", Axis::kSizes,
            "Fig 9: tree-build phase speedup on origin2000, {p} processors",
            treebuild_speedup}},
      // Figure 10: whole-application speedups on the SGI Origin2000 for 16,
      // 24 and 30 processors at the paper's largest size (512k; scaled down
      // by default).
      // Paper shape: LOCAL/UPDATE/PARTREE scale well, LOCAL best; ORIG flat.
      {"fig10", "Figure 10", "speedup vs processor count on SGI Origin2000", {16384},
       {524288}, {16, 24, 30},
       Grid{"origin2000", Axis::kProcs, "Fig 10: speedup on origin2000, n={n}", speedup}},
      // Figure 11: tree-build share of total execution time on the SGI
      // Origin2000 as the processor count grows (paper: 512k bodies, up to
      // 30 processors).
      // Paper shape: ORIG's share climbs to ~60% at 30p; the others stay
      // small.
      {"fig11", "Figure 11", "tree-build share vs processor count on SGI Origin2000",
       {16384}, {524288}, {1, 8, 16, 24, 30},
       Grid{"origin2000", Axis::kProcs, "Fig 11: tree-build % of total, origin2000, n={n}",
            treebuild_share}},
      // Table 2: time spent in BARRIER operations on the SGI Origin2000 with
      // 16 processors (paper: 64k and 512k bodies).
      // Paper shape: ORIG's barrier time ~15x LOCAL's (load imbalance from
      // remote misses and false sharing accumulates at barriers); UPDATE
      // distant second.
      {"table2", "Table 2", "BARRIER time (s, mean per processor) on SGI Origin2000",
       {16384, 32768}, {65536, 524288}, {16},
       Grid{"origin2000", Axis::kSizes,
            "Table 2: barrier time (s), origin2000, {p} processors", barrier_wait}},
      // Figure 12: speedups and tree-build share on the Intel Paragon (HLRC
      // shared virtual memory, 16 processors).
      // The paper could only afford to run PARTREE and SPACE (the other three
      // were "almost intolerably long" — substantial slowdowns); we report
      // every algorithm by default at reduced sizes so the slowdowns are
      // visible, matching the text.
      // Paper shape: SPACE clearly best (the only one with real speedup; tree
      // build <20% of time); PARTREE second (~50% of time in tree build).
      {"fig12", "Figure 12", "speedups + tree-build share on Intel Paragon (HLRC SVM)",
       {8192, 16384}, {8192, 16384, 32768, 65536}, {16},
       Grid{"paragon", Axis::kSizes,
            "Fig 12: paragon (HLRC), {p} processors — speedup | treebuild%",
            speedup_and_share}},
      // Figure 13: speedups and tree-build share on Typhoon-0 under the
      // page-based HLRC SVM protocol (16 processors), every algorithm.
      // Paper shape: SPACE vastly outperforms; PARTREE second; ORIG/LOCAL/
      // UPDATE deliver SLOWDOWNS (down to ~16x slower than sequential at
      // 64k); with the lock-heavy algorithms nearly all time goes to tree
      // building.
      {"fig13", "Figure 13", "speedups + tree-build share on Typhoon-0 (HLRC SVM)",
       {8192, 16384}, {8192, 16384, 32768, 65536}, {16},
       Grid{"typhoon0_hlrc", Axis::kSizes,
            "Fig 13: typhoon0 (HLRC), {p} processors — speedup | treebuild%",
            speedup_and_share}},
      // Figure 14: tree-building-phase speedups on Typhoon-0 under HLRC SVM
      // (16 processors).
      // Paper shape: poor everywhere — SPACE reaches ~1.5x; every other
      // algorithm is a slowdown (<1x) in the tree-build phase itself.
      {"fig14", "Figure 14", "tree-build-phase speedups on Typhoon-0 (HLRC SVM)",
       {8192, 16384}, {8192, 16384, 32768, 65536}, {16},
       Grid{"typhoon0_hlrc", Axis::kSizes,
            "Fig 14: tree-build phase speedup, typhoon0 (HLRC), {p} processors",
            treebuild_speedup}},
      // Section 4.4.2: Typhoon-0 under fine-grained SEQUENTIAL CONSISTENCY
      // (64-byte access control, software protocol), 16 processors.
      // Paper shape: the gap between algorithms compresses dramatically
      // compared to HLRC on the same hardware. LOCAL best (~7x at 16k), ORIG
      // worst (false sharing at 64 B is expensive when every miss is a
      // software handler), UPDATE/PARTREE/SPACE clustered around ~4x.
      {"sec442_sc", "Section 4.4.2", "speedups on Typhoon-0 under fine-grain SC",
       {8192, 16384}, {8192, 16384, 32768, 65536}, {16},
       Grid{"typhoon0_sc", Axis::kSizes,
            "Sec 4.4.2: typhoon0 (fine-grain SC), {p} processors — speedup | treebuild%",
            speedup_and_share}},
      // Figure 15: number of lock acquisitions per processor during the
      // tree-build phase (two timed steps, 16 processors; paper: 64k bodies)
      // on Typhoon-0 (HLRC) and on the Origin2000.
      // Paper shape: lock counts fall off very quickly from ORIG to SPACE
      // (which is zero); HLRC requires additional synchronization vs. the
      // Origin.
      {"fig15", "Figure 15", "tree-build lock acquisitions per processor", {16384},
       {65536}, {16}, fig15},
      // Performance portability: one problem on the five paper platforms ×
      // every algorithm, the matrix the paper's conclusion is about ("no
      // single version always delivers absolutely the best performance on
      // all platforms"). --full runs the largest size of the SVM figures.
      // Paper shape: on the hardware-coherent machines (top rows) the
      // algorithms are close; on the SVM machines (bottom rows) only SPACE —
      // the paper's contribution — delivers a real speedup, so SPACE is the
      // most performance-portable choice overall.
      {"portability", "Portability", "whole-application speedup on the five platforms",
       {8192}, {65536}, {16}, portability},

      // Ablation: leaf capacity k.
      // The paper's §5 recounts that allowing MULTIPLE bodies per leaf
      // "essentially eliminated the difference between tree-building
      // algorithms" on CC-NUMA machines (which is why PARTREE was shelved),
      // while k=1 resurrects it. Sweeps k on the Origin2000 and on
      // Typhoon-0/HLRC and reports the ORIG-vs-SPACE gap as a function of k.
      {"ablate_leafcap", "Ablation: leaf capacity k",
       "tree-build cost vs k (paper §5: multiple bodies per leaf)", {8192}, {65536}, {16},
       ablate_leafcap},
      // Ablation: SPACE subdivision threshold.
      // Paper §2.5: "the trade-off between load imbalance and partitioning
      // time is influenced by the value of the threshold used in subdividing
      // cells". Small thresholds give fine load balance but a deeper
      // partitioning pass (more counting rounds, more subspaces, more
      // cross-processor body gathering); large thresholds give few subspaces
      // and imbalance.
      {"ablate_spacethresh", "Ablation: SPACE threshold",
       "load balance vs partitioning cost (paper §2.5)", {8192}, {65536}, {16},
       ablate_spacethresh},
      // Ablation: sensitivity of the algorithm ranking to synchronization
      // cost. The paper's thesis is that the BEST algorithm depends on how
      // expensive synchronization is on the platform. Sweeps a synthetic lock
      // cost on an otherwise Origin-like machine and reports where the
      // crossover from LOCAL-best to SPACE-best falls.
      {"ablate_lockcost", "Ablation: lock cost",
       "algorithm ranking vs synchronization latency (crossover hunt)", {8192}, {65536},
       {16}, ablate_lockcost},
      // Ablation: SPLASH-style ALOCK lock pools.
      // The original SPLASH/SPLASH-2 codes do not allocate one lock per cell:
      // cell locks are hashed into a fixed lock array, so unrelated cells
      // contend on the same lock. Sweeps the pool size for the LOCAL builder
      // and shows the false-lock-contention cost (virtual lock-wait time per
      // processor) and its effect on application speedup.
      {"ablate_lockhash", "Ablation: ALOCK pool size",
       "false lock contention (SPLASH lock hashing)", {8192}, {65536}, {16},
       ablate_lockhash},
      // Ablation: particle-distribution sensitivity.
      // The paper's workload is a (centrally condensed) Plummer galaxy. This
      // compares every builder on a uniform distribution and on a colliding
      // cluster pair, on the SVM platform where tree-build costs dominate:
      // the uniform case has a shallow, balanced tree (less lock contention,
      // fewer subdivision chains); the colliding pair stresses UPDATE's
      // incremental maintenance.
      {"ablate_distribution", "Ablation: particle distribution",
       "tree-build cost vs workload shape, typhoon0 (HLRC)", {8192}, {32768}, {16},
       ablate_distribution},
      // Ablation: costzones vs. orthogonal recursive bisection (ORB).
      // The paper's lineage (Singh et al. [3]) replaced Salmon's ORB with
      // costzones on shared-memory machines. Compares the two partitioners
      // under the LOCAL and SPACE builders on the Origin2000 and the SVM
      // Typhoon-0: costzones partitions in tree order (cheap, cache-friendly);
      // ORB pays a replicated O(n log n) bisection each step.
      {"ablate_partitioner", "Ablation: partitioner", "costzones [3] vs ORB [4]", {8192},
       {65536}, {16}, ablate_partitioner},
  };
  return kFigures;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::string ids;
  for (const Figure& f : figures()) {
    if (!ids.empty()) ids += ',';
    ids += f.id;
  }
  const std::string wanted =
      cli.get_string("figure", ids, "comma-separated entries to run, in this order");
  BenchOptions opt;
  opt.full = cli.get_bool("full", false, "run the paper-scale problem sizes (slow)");
  opt.sizes = cli.get_int_list("sizes", "",
                               "comma-separated body counts (empty: each entry's own)", 1);
  opt.procs = cli.get_int_list(
      "procs", "", "comma-separated processor counts (empty: each entry's own)", 1,
      kMaxSimProcs);
  opt.warmup = static_cast<int>(cli.get_int("warmup", 1, "warm-up steps (untimed)", 0));
  opt.measured = static_cast<int>(cli.get_int("steps", 2, "measured time-steps", 1));
  const std::string backend_names = sim_backend_names_joined();
  const std::string backend = cli.get_string("backend", to_string(default_sim_backend()),
                                             "scheduler backend: " + backend_names);
  const std::optional<SimBackend> parsed = parse_sim_backend(backend);
  if (!parsed) usage_error("bad --backend: " + backend + " (want " + backend_names + ")");
  opt.backend = *parsed;
  opt.workers = static_cast<int>(
      cli.get_int("workers", 0, "host workers for --backend=parallel (0 = auto)"));
  JsonReport json;
  json.set_path(cli.get_string("json", "", "also write results to this JSON file"));
  cli.finish();
  json.context("git_sha", support::git_sha())
      .context("build_type", support::build_type())
      .context("backend", to_string(opt.backend));

  std::vector<const Figure*> selected;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = std::min(wanted.find(',', pos), wanted.size());
    const std::string id = wanted.substr(pos, comma - pos);
    const Figure* found = nullptr;
    for (const Figure& f : figures())
      if (id == f.id) found = &f;
    if (found == nullptr)
      usage_error("unknown --figure: '" + id + "' (want one of " + ids + ")");
    selected.push_back(found);
    if (comma == wanted.size()) break;
    pos = comma + 1;
  }

  ExperimentRunner runner;
  for (const Figure* f : selected) {
    const Sweep sw{opt, runner, json,
                   !opt.sizes.empty() ? opt.sizes : opt.full ? f->full_sizes : f->sizes,
                   !opt.procs.empty() ? opt.procs : f->procs};
    banner(f->name, f->what);
    if (const Grid* g = std::get_if<Grid>(&f->body))
      run_grid(*g, sw);
    else
      std::get<void (*)(const Sweep&)>(f->body)(sw);
  }
  json.save();
  return 0;
}
