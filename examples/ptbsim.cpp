// ptbsim — the kitchen-sink experiment driver.
//
// Runs one fully-specified configuration (platform, algorithm, workload,
// partitioner, tuning knobs) on the platform simulator and reports speedup,
// per-phase breakdown, synchronization and memory-system statistics. With
// --csv the result is emitted as a single machine-readable line (with a
// header via --csv-header), so sweeps can be scripted:
//
//   for a in ORIG LOCAL UPDATE PARTREE SPACE RADIX; do
//     ./examples/ptbsim --platform typhoon0_hlrc --algorithm $a --n 16384 --csv
//   done
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "anatomy/sweep.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/trace.hpp"

int main(int argc, char** argv) {
  using namespace ptb;
  Cli cli(argc, argv);
  ExperimentSpec spec;
  // Help strings enumerate from the same tables the lookups use, so a new
  // platform or algorithm can never be missing from --help.
  const std::string platform_help = PlatformSpec::names_joined();
  const std::string algorithm_help = algorithm_names_joined();
  spec.platform = cli.get_string("platform", "typhoon0_hlrc", platform_help.c_str());
  spec.algorithm = algorithm_from_name(
      cli.get_string("algorithm", "SPACE", algorithm_help.c_str()));
  spec.n = static_cast<int>(cli.get_int("n", 16384, "number of bodies"));
  spec.nprocs = static_cast<int>(cli.get_int("procs", 16, "simulated processors"));
  spec.warmup_steps = static_cast<int>(cli.get_int("warmup", 2, "untimed steps"));
  spec.measured_steps = static_cast<int>(cli.get_int("steps", 2, "timed steps"));
  spec.bh.theta = cli.get_double("theta", 1.0, "opening criterion");
  spec.bh.leaf_cap = static_cast<int>(cli.get_int("leaf-cap", 8, "bodies per leaf"));
  spec.bh.space_threshold = static_cast<int>(
      cli.get_int("space-threshold", 0, "SPACE subdivision threshold (0 = auto)"));
  spec.bh.lock_buckets = static_cast<int>(
      cli.get_int("lock-buckets", 0, "ALOCK pool size (0 = per-cell locks)"));
  spec.bh.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345, "RNG seed"));
  spec.bh.partitioner = cli.get_string("partitioner", "costzones", "costzones|orb") == "orb"
                            ? Partitioner::kOrb
                            : Partitioner::kCostzones;
  const std::string backend_names = sim_backend_names_joined();
  const std::string backend =
      cli.get_string("backend", to_string(default_sim_backend()),
                     "scheduler backend: " + backend_names + " (or PTB_SIM_BACKEND)");
  const std::optional<SimBackend> parsed = parse_sim_backend(backend);
  if (!parsed) {
    std::fprintf(stderr, "ptbsim: bad --backend '%s' (want %s)\n", backend.c_str(),
                 backend_names.c_str());
    return 2;
  }
  spec.backend = *parsed;
  spec.sim_workers = static_cast<int>(cli.get_int(
      "workers", 0, "host workers for --backend=parallel (0 = auto / PTB_SIM_WORKERS)"));
  spec.race = cli.get_bool("race", false,
                           "run under the data-race detector (or set PTB_RACE); "
                           "exits 2 if any race is found");
  spec.bh.elide_locks = cli.get_bool(
      "elide-locks", false, "skip tree-build lock acquisitions (race-detector demo)");
  const bool csv = cli.get_bool("csv", false, "emit one CSV line instead of tables");
  const bool csv_header = cli.get_bool("csv-header", false, "print the CSV header line");
  const std::string trace_path = trace::trace_path_from(cli.get_string(
      "trace", "", "write a Chrome trace-event JSON here (or set PTB_TRACE)"));
  const std::string prof_path = prof::prof_path_from(cli.get_string(
      "prof", "", "profile the run and write prof JSON here (or set PTB_PROF)"));
  const std::string sight_path = sight::sight_path_from(cli.get_string(
      "sight", "",
      "observe sharing patterns / false sharing / working sets and write the "
      "sight JSON here (or set PTB_SIGHT)"));
  const std::string anatomy_path = anatomy::anatomy_path_from(cli.get_string(
      "anatomy", "",
      "ledger every virtual cycle into the speedup-loss categories and write "
      "the anatomy JSON (with a p=1 reference run and waterfall) here (or set "
      "PTB_ANATOMY)"));
  cli.epilogue(
      "Environment variables (each pairs with a flag; the flag wins):\n"
      "  PTB_TRACE=<path>        --trace          Chrome trace-event JSON output\n"
      "  PTB_RACE=1              --race           data-race detector\n"
      "  PTB_PROF=<path>         --prof           critical-path / what-if profile JSON\n"
      "  PTB_SIGHT=<path>        --sight          sharing / false-sharing / working-set JSON\n"
      "  PTB_ANATOMY=<path>      --anatomy        speedup-loss ledger / waterfall JSON\n"
      "  PTB_SIGHT_WINDOW_NS=<n> (no flag)        false-sharing invalidation window override\n"
      "  PTB_MEM_SLOWPATH=1      (no flag)        force the memory model's virtual-dispatch path\n"
      "  PTB_FORCE_SLOWPATH=1    (no flag)        force the scalar force-interaction path\n"
      "  PTB_SIM_BACKEND=<name>  --backend        scheduler backend (" +
      backend_names +
      ")\n"
      "  PTB_SIM_WORKERS=<n>     --workers        host worker threads for --backend=parallel\n"
      "\n"
      "Exit codes: 0 = run completed (observers may have written reports);\n"
      "            2 = data races found under --race/PTB_RACE, or bad flags.");
  cli.finish();

  // Open output files up front so a bad path fails before the simulation
  // runs, not after minutes of work.
  const auto open_output = [](const std::string& path, const char* what) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ptbsim: cannot open %s output '%s': %s\n", what,
                   path.c_str(), std::strerror(errno));
      std::exit(1);
    }
    return f;
  };
  std::FILE* trace_out = trace_path.empty() ? nullptr : open_output(trace_path, "trace");
  std::FILE* prof_out = prof_path.empty() ? nullptr : open_output(prof_path, "prof");
  std::FILE* sight_out = sight_path.empty() ? nullptr : open_output(sight_path, "sight");
  std::FILE* anatomy_out =
      anatomy_path.empty() ? nullptr : open_output(anatomy_path, "anatomy");

  std::unique_ptr<trace::Tracer> tracer;
  if (trace_out != nullptr) {
    tracer = std::make_unique<trace::Tracer>(spec.nprocs);
    spec.tracer = tracer.get();
  }
  spec.prof = prof_out != nullptr;
  spec.sight = sight_out != nullptr;
  spec.anatomy = anatomy_out != nullptr;

  if (csv_header) {
    std::printf("platform,algorithm,n,procs,seq_s,par_s,speedup,treebuild_s,"
                "treebuild_frac,treebuild_speedup,locks,lock_wait_s,barrier_wait_s,"
                "page_faults,remote_misses,invalidations\n");
    if (!csv) return 0;
  }

  ExperimentRunner runner;
  const ExperimentResult r = runner.run(spec);
  // Race findings go to stderr (csv mode keeps stdout machine-readable);
  // any race turns the exit status into 2 so CI can gate on it.
  const int exit_code = r.race.enabled && r.race.races > 0 ? 2 : 0;
  if (r.race.enabled)
    std::fprintf(stderr, "%s", race::format_race_report(r.race).c_str());

  if (tracer != nullptr) {
    tracer->write_chrome_json(trace_out);
    std::fclose(trace_out);
    std::fprintf(stderr, "wrote %llu trace events to %s (load in Perfetto)\n",
                 static_cast<unsigned long long>(tracer->total_events()),
                 trace_path.c_str());
  }
  if (prof_out != nullptr) {
    prof::write_profile_json(r.profile, prof_out);
    std::fclose(prof_out);
    std::fprintf(stderr, "wrote profile (%llu sync events) to %s\n",
                 static_cast<unsigned long long>(r.profile.events),
                 prof_path.c_str());
  }
  if (sight_out != nullptr) {
    sight::write_sight_json(r.sight, sight_out);
    std::fclose(sight_out);
    std::fprintf(stderr, "wrote sight report (%llu lines observed) to %s\n",
                 static_cast<unsigned long long>(r.sight.lines_observed),
                 sight_path.c_str());
  }
  anatomy::Waterfall anatomy_wf;
  if (anatomy_out != nullptr) {
    anatomy::SweepResult sr;
    sr.prov.platform = spec.platform;
    sr.prov.algorithm = algorithm_name(spec.algorithm);
    sr.prov.nbodies = spec.n;
    sr.prov.nprocs = spec.nprocs;
    anatomy::SweepPoint pt;
    pt.procs = spec.nprocs;
    pt.speedup = r.speedup;
    pt.ledger = r.anatomy;
    if (spec.nprocs > 1) {
      // One extra p=1 reference run of the same configuration turns the
      // ledger into a speedup-loss waterfall; observers stay off it.
      ExperimentSpec ref = spec;
      ref.nprocs = 1;
      ref.tracer = nullptr;
      ref.race = ref.prof = ref.sight = false;
      const ExperimentResult r1 = runner.run(ref);
      anatomy::SweepPoint p1;
      p1.procs = 1;
      p1.speedup = r1.speedup;
      p1.ledger = r1.anatomy;
      anatomy_wf = anatomy::build_waterfall(p1.ledger, pt.ledger);
      pt.waterfall = anatomy_wf;
      sr.points.push_back(std::move(p1));
    }
    sr.points.push_back(std::move(pt));
    anatomy::write_anatomy_json(sr, anatomy_out);
    std::fclose(anatomy_out);
    std::fprintf(stderr, "wrote anatomy ledger (%d categories, p=%d vs p=1) to %s\n",
                 anatomy::kNumCategories, spec.nprocs, anatomy_path.c_str());
  }

  if (csv) {
    std::printf("%s,%s,%d,%d,%.6f,%.6f,%.3f,%.6f,%.4f,%.3f,%llu,%.6f,%.6f,%llu,%llu,%llu\n",
                spec.platform.c_str(), algorithm_name(spec.algorithm), spec.n,
                spec.nprocs, r.seq_seconds, r.par_seconds, r.speedup,
                r.treebuild_seconds, r.treebuild_fraction, r.treebuild_speedup,
                static_cast<unsigned long long>(r.treebuild_locks_total),
                r.lock_wait_seconds_avg, r.barrier_wait_seconds_avg,
                static_cast<unsigned long long>(r.mem.page_faults),
                static_cast<unsigned long long>(r.mem.remote_misses),
                static_cast<unsigned long long>(r.mem.invalidations_sent));
    return exit_code;
  }

  std::printf("%s\n\n", summarize(spec, r).c_str());

  Table phases("per-phase virtual time (measured steps)");
  phases.set_header({"phase", "seconds", "share"});
  for (int ph = 0; ph < kNumPhases; ++ph) {
    if (ph == static_cast<int>(Phase::kOther)) continue;
    const double s = r.run.phase_ns[static_cast<std::size_t>(ph)] * 1e-9;
    phases.add_row({phase_name(static_cast<Phase>(ph)), Table::num(s, 4),
                    fmt_percent(s / (r.par_seconds > 0 ? r.par_seconds : 1.0))});
  }
  phases.print();

  const Breakdown bd = breakdown_from(r.metrics, spec.nprocs);
  Table breakdown("execution-time breakdown (per-processor average, measured steps)");
  breakdown.set_header({"component", "seconds", "share"});
  breakdown.add_row({"busy", Table::num(bd.busy_s, 4), fmt_percent(bd.frac(bd.busy_s))});
  breakdown.add_row(
      {"memory stall", Table::num(bd.mem_stall_s, 4), fmt_percent(bd.frac(bd.mem_stall_s))});
  breakdown.add_row(
      {"lock wait", Table::num(bd.lock_wait_s, 4), fmt_percent(bd.frac(bd.lock_wait_s))});
  breakdown.add_row({"barrier wait", Table::num(bd.barrier_wait_s, 4),
                     fmt_percent(bd.frac(bd.barrier_wait_s))});
  breakdown.print();

  Table sync("synchronization & memory-system events (whole run)");
  sync.set_header({"metric", "value"});
  sync.add_row({"tree-build lock acquisitions", std::to_string(r.treebuild_locks_total)});
  sync.add_row({"mean lock wait / proc", fmt_seconds(r.lock_wait_seconds_avg)});
  sync.add_row({"mean barrier wait / proc", fmt_seconds(r.barrier_wait_seconds_avg)});
  sync.add_row({"lock wait / event", fmt_wait(r.lock_wait)});
  sync.add_row({"barrier wait / episode", fmt_wait(r.barrier_wait)});
  sync.add_row({"page faults", std::to_string(r.mem.page_faults)});
  sync.add_row({"twins / diffs", std::to_string(r.mem.twins) + " / " +
                                     std::to_string(r.mem.diffs)});
  sync.add_row({"write notices received", std::to_string(r.mem.notices_received)});
  sync.add_row({"read misses (hw)", std::to_string(r.mem.read_misses)});
  sync.add_row({"remote misses (hw)", std::to_string(r.mem.remote_misses)});
  sync.add_row({"invalidations sent (hw)", std::to_string(r.mem.invalidations_sent)});
  sync.print();

  print_profile(r.profile);
  print_sight(r.sight);
  print_anatomy(r.anatomy);
  print_waterfall(anatomy_wf);
  return exit_code;
}
