// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every binary reproduces one table or figure of the paper. By default the
// sweeps run scaled-down body counts so the whole bench suite completes in
// minutes on a laptop; pass --full to run the paper's largest sizes
// (hundreds of thousands of bodies — slow on the execution-driven simulator).
// Pass --procs / --sizes / --steps to override any sweep dimension.
#pragma once

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "sim/sim_rt.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/provenance.hpp"
#include "support/table.hpp"
#include "treebuild/types.hpp"

namespace ptb::bench {

/// Machine-readable result sink behind the --json=<path> flag: every
/// measured cell is appended as one flat object (config strings + numeric
/// measurements), and save() writes the whole array. The files accumulate
/// the perf trajectory across PRs (e.g. BENCH_sched.json), so each row
/// carries a provenance prefix (git SHA, build type, backend, sweep shape)
/// set once via context() and prepended to every row at save().
class JsonReport {
 public:
  /// Exits (2) if the path is not writable — fail before the (possibly
  /// hours-long) run, not at save() after it.
  void set_path(std::string path) {
    if (!path.empty()) {
      std::FILE* f = std::fopen(path.c_str(), "a");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json path for writing: %s\n", path.c_str());
        std::exit(2);
      }
      std::fclose(f);
    }
    path_ = std::move(path);
  }
  bool enabled() const { return !path_.empty(); }

  /// Run-wide provenance key; prepended (in insertion order) to every row.
  JsonReport& context(const std::string& key, const std::string& v) {
    context_.emplace_back(key, quoted(v));
    return *this;
  }

  JsonReport& row() {
    rows_.emplace_back();
    return *this;
  }
  JsonReport& field(const std::string& key, const std::string& v) {
    rows_.back().emplace_back(key, quoted(v));
    return *this;
  }
  JsonReport& field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    rows_.back().emplace_back(key, buf);
    return *this;
  }
  JsonReport& field(const std::string& key, std::int64_t v) {
    rows_.back().emplace_back(key, std::to_string(v));
    return *this;
  }

  /// Writes the accumulated rows; no-op unless --json was given.
  void save() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    PTB_CHECK_MSG(f != nullptr, "cannot open --json output path");
    std::fprintf(f, "[\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "  {");
      std::size_t col = 0;
      for (const auto& kv : context_)
        std::fprintf(f, "%s\"%s\": %s", col++ == 0 ? "" : ", ", kv.first.c_str(),
                     kv.second.c_str());
      for (const auto& kv : rows_[r])
        std::fprintf(f, "%s\"%s\": %s", col++ == 0 ? "" : ", ", kv.first.c_str(),
                     kv.second.c_str());
      std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote %zu JSON rows to %s\n", rows_.size(), path_.c_str());
  }

 private:
  // Builds the quoted JSON string in one buffer; the chained operator+ form
  // trips gcc-12's -Wrestrict on the temporary self-append.
  static std::string quoted(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  std::string path_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

struct BenchOptions {
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> procs;
  int warmup = 1;
  int measured = 2;
  bool full = false;
  /// Run every cell under the data-race detector (--race / PTB_RACE). Virtual
  /// times are unchanged; race counts land in each ExperimentResult.
  bool race = false;
  /// Run every cell under the sharing observer (--sight / PTB_SIGHT). Virtual
  /// times are unchanged; the report lands in each ExperimentResult.
  bool sight = false;
  SimBackend backend = default_sim_backend();
  /// Host worker threads for the parallel backend (0 = default).
  int workers = 0;
  JsonReport json;
};

/// Parses the standard flags. `default_sizes`/`default_procs` are the quick
/// defaults; `full_sizes` replaces the sizes when --full is given.
inline BenchOptions parse_options(int argc, char** argv, const std::string& default_sizes,
                                  const std::string& full_sizes,
                                  const std::string& default_procs) {
  Cli cli(argc, argv);
  BenchOptions opt;
  opt.full = cli.get_bool("full", false, "run the paper-scale problem sizes (slow)");
  const std::string sizes =
      cli.get_string("sizes", opt.full ? full_sizes : default_sizes,
                     "comma-separated body counts");
  const std::string procs = cli.get_string("procs", default_procs,
                                           "comma-separated processor counts");
  opt.warmup = static_cast<int>(cli.get_int("warmup", 1, "warm-up steps (untimed)"));
  opt.measured = static_cast<int>(cli.get_int("steps", 2, "measured time-steps"));
  const std::string backend_names = sim_backend_names_joined();
  const std::string backend = cli.get_string("backend", to_string(default_sim_backend()),
                                             "scheduler backend: " + backend_names);
  const std::optional<SimBackend> parsed = parse_sim_backend(backend);
  if (!parsed) {
    std::fprintf(stderr, "bad --backend: %s (want %s)\n", backend.c_str(),
                 backend_names.c_str());
    std::exit(2);
  }
  opt.backend = *parsed;
  opt.workers = static_cast<int>(
      cli.get_int("workers", 0, "host workers for --backend=parallel (0 = auto)"));
  opt.race = cli.get_bool("race", false,
                          "run under the data-race detector (or set PTB_RACE)");
  opt.sight = cli.get_bool("sight", false,
                           "run under the sharing observer (or set PTB_SIGHT)");
  const std::string json_path =
      cli.get_string("json", "", "also write results to this JSON file");
  opt.json.set_path(json_path);
  cli.finish();
  opt.json.context("git_sha", support::git_sha())
      .context("build_type", support::build_type())
      .context("backend", to_string(opt.backend))
      .context("sizes", sizes)
      .context("procs", procs);
  // Parse the comma-separated lists.
  auto parse_list = [](const std::string& v) {
    std::vector<std::int64_t> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
      std::size_t next = v.find(',', pos);
      if (next == std::string::npos) next = v.size();
      out.push_back(std::strtoll(v.substr(pos, next - pos).c_str(), nullptr, 10));
      pos = next + 1;
    }
    return out;
  };
  opt.sizes = parse_list(sizes);
  opt.procs = parse_list(procs);
  return opt;
}

inline ExperimentSpec make_spec(const std::string& platform, Algorithm alg, int n, int np,
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
  s.race = opt.race;
  s.sight = opt.sight;
  return s;
}

/// Wall-clock timer for host-side cost of a measured cell.
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

inline std::string size_label(std::int64_t n) {
  if (n % 1024 == 0) return std::to_string(n / 1024) + "k";
  return std::to_string(n);
}

/// Header banner shared by all bench binaries.
inline void banner(const std::string& id, const std::string& what) {
  std::printf("### %s — %s\n", id.c_str(), what.c_str());
  std::printf("### (paper: Shan & Singh, IPPS'98; shapes, not absolute times, "
              "are the reproduction target)\n\n");
}

}  // namespace ptb::bench
