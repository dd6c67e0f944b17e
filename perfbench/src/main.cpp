// perfbench — host cost of the simulator, end to end and per layer.
//
//   perfbench --workload gate|sweep|observed --seed N --seconds S --trace 0|1 [--tiny]
//
// --trace 0 runs closed-loop repetitions through ExperimentRunner::run for
// S seconds, then one traced verification pass; --trace 1 alternates an
// untraced repetition, a traced repetition and the observer-cost runs for S
// seconds. Prints one JSON object of raw samples on stdout; run.py turns it
// into the benchmark's metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/sim_rt.hpp"
#include "support/provenance.hpp"
#include "traced.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace ptb;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload gate|sweep|observed --seed N "
               "--seconds S --trace 0|1 [--tiny]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      a.seconds = std::atof(v);
    else if (k == "--trace")
      a.trace = std::atoi(v);
    else
      usage(("unknown flag " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Refuses configurations whose numbers would not be comparable: any PTB_*
/// variable (backend, slow paths, observers) and unoptimized builds.
void refuse_unrepresentative() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PTB_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set (unset every PTB_* "
                           "variable)\n", *e);
      std::exit(2);
    }
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to run an unoptimized build\n");
  std::exit(2);
#endif
}

/// One untraced repetition as a child process reports it.
struct ChildRep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  double calibration_s = 0.0;
  long peak_rss_kb = 0;
  int nvirt = 0;
  VirtualResult virt[ptb::kNumAlgorithms];
  char error[120] = {};
};
static_assert(std::is_trivially_copyable_v<ChildRep>);

/// Runs one untraced repetition, then one set-up sample and the calibration
/// kernel, in a forked child. Each repetition thus starts from a fresh
/// process, as one cold single-experiment call does: repetitions in one
/// long-lived process reuse the same heap pages and their host times come
/// in correlated stretches, and their peak memory measures the allocator's
/// history. The kernel runs right after the repetition, on the same core,
/// so it sees the host as the repetition did. Returns false when the child
/// fails.
bool run_in_child(const Workload& w, std::uint64_t seed, ChildRep& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    ChildRep c;
    const UntracedRep r = run_untraced(w, seed);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    c.peak_rss_kb = ru.ru_maxrss;
    c.setup_s = measure_setup(w, seed);
    c.calibration_s = calibration_seconds();
    c.wall_s = r.wall_s;
    c.cpu_s = r.cpu_s;
    c.nvirt = static_cast<int>(r.virt.size());
    for (int i = 0; i < c.nvirt; ++i) c.virt[i] = r.virt[static_cast<std::size_t>(i)];
    std::snprintf(c.error, sizeof c.error, "%s", r.error.c_str());
    const char* p = reinterpret_cast<const char*>(&c);
    std::size_t left = sizeof c;
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  char* p = reinterpret_cast<char*>(&out);
  std::size_t got = 0;
  while (got < sizeof out) {
    const ssize_t n = read(fds[0], p + got, sizeof out - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  return exited && got == sizeof out;
}

/// Minimal JSON object writer: keys in insertion order, numbers with every
/// significant digit.
class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}
  void open(const char* key = nullptr) {
    sep(key);
    std::fputc('{', f_);
    first_ = true;
  }
  void open_array(const char* key) {
    sep(key);
    std::fputc('[', f_);
    first_ = true;
  }
  void close() {
    std::fputc('}', f_);
    first_ = false;
  }
  void close_array() {
    std::fputc(']', f_);
    first_ = false;
  }
  void num(const char* key, double v) {
    sep(key);
    std::fprintf(f_, "%.17g", v);
  }
  void boolean(const char* key, bool v) {
    sep(key);
    std::fputs(v ? "true" : "false", f_);
  }
  void str(const char* key, const std::string& v) {
    sep(key);
    std::fputc('"', f_);
    for (char c : v) {
      if (c == '"' || c == '\\')
        std::fprintf(f_, "\\%c", c);
      else if (static_cast<unsigned char>(c) < 0x20)
        std::fprintf(f_, "\\u%04x", c);
      else
        std::fputc(c, f_);
    }
    std::fputc('"', f_);
  }

 private:
  void sep(const char* key) {
    if (!first_) std::fputc(',', f_);
    first_ = false;
    if (key != nullptr) std::fprintf(f_, "\"%s\":", key);
  }
  std::FILE* f_;
  bool first_ = true;
};

void write_provenance(Json& j, const Workload& w, const Args& a) {
  const SimBackend backend = default_sim_backend();
  j.open("provenance");
  j.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.str("compiler", std::string("g++ ") + __VERSION__);
  j.str("flags", PERFBENCH_CXX_FLAGS);
  j.str("build_type", support::build_type());
  j.str("git_sha", support::git_sha());
  j.str("backend", to_string(backend));
  // The fiber backend runs every simulated processor on one host thread;
  // only kParallel uses the worker pool.
  j.num("host_threads", backend == SimBackend::kParallel ? default_sim_workers() : 1);
  j.str("workload", w.name);
  j.str("platform", w.platform);
  std::string algs;
  for (Algorithm alg : w.algorithms) algs += std::string(algs.empty() ? "" : ",") +
                                             algorithm_name(alg);
  j.str("algorithms", algs);
  j.num("n", w.n);
  j.num("nprocs", w.nprocs);
  j.num("steps", w.warmup_steps + w.measured_steps);
  j.num("seed", static_cast<double>(a.seed));
  j.boolean("tiny", a.tiny);
  j.close();
}

void write_virtual(Json& j, const std::vector<VirtualResult>& virt) {
  double seq = 0.0, par = 0.0, speedup = 0.0, tb = 0.0;
  for (const VirtualResult& v : virt) {
    seq = v.seq_s;  // one shared baseline per repetition
    par += v.par_s;
    speedup += v.speedup;
    tb += v.treebuild_s;
  }
  j.open("virtual");
  j.num("seq_s", seq);
  j.num("par_s", par);
  j.num("speedup", speedup / static_cast<double>(virt.size()));
  j.num("treebuild_s", tb);
  j.close();
}

void write_traced(Json& j, const TracedRep& t, const UntracedRep& u, const ObserverCosts& oc,
                  const std::string& error) {
  j.open();
  j.num("wall_s", t.wall_s);
  j.num("untraced_wall_s", u.wall_s);
  j.num("sim_run_s", t.clock.run_seconds());
  j.open("layers");
  for (int l = 0; l < kNumLayers; ++l)
    j.num(layer_name(static_cast<Layer>(l)), t.clock.seconds(static_cast<Layer>(l)));
  j.close();
  MemProcStats mem;
  std::uint64_t locks = 0, ordered = 0;
  for (const VirtualResult& v : t.virt) {
    for (const MemCounterDesc& c : kMemCounters) mem.*c.field += v.mem.*c.field;
    locks += v.lock_acquires;
    ordered += v.lock_acquires + v.barriers + v.fetch_adds;
  }
  j.open("counts");
  j.num("cells", static_cast<double>(t.counts.cells));
  j.num("interactions", static_cast<double>(t.counts.interactions));
  j.num("lock_acquires", static_cast<double>(locks));
  j.num("ordered_ops", static_cast<double>(ordered));
  for (const MemCounterDesc& c : kMemCounters)
    j.num(c.metric, static_cast<double>(mem.*c.field));
  j.close();
  j.open("observers");
  j.num("trace_s", oc.trace_s);
  j.num("race_s", oc.race_s);
  j.num("prof_s", oc.prof_s);
  j.num("sight_s", oc.sight_s);
  j.num("anatomy_s", oc.anatomy_s);
  j.num("report_s", oc.report_s);
  j.close();
  write_virtual(j, t.virt);
  double med = 0.0, mx = 0.0;
  for (const CheckResult& c : t.checks) {
    med = std::max(med, c.median_rel_err);
    mx = std::max(mx, c.max_err_vs_rms);
  }
  j.open("checks");
  j.num("accel_median_rel_err", med);
  j.num("accel_max_err_vs_rms", mx);
  j.close();
  j.str("error", error);
  j.close();
}

/// Output checks of one traced repetition against an untraced one.
std::string traced_error(const TracedRep& t, const UntracedRep& u) {
  if (t.virt != u.virt) return "traced copy's virtual results differ from ExperimentRunner::run";
  for (const CheckResult& c : t.checks) {
    if (!c.tree_ok) return "bh::verify failed: " + c.tree_error;
    if (!c.accel_ok) return "accelerations disagree with direct summation";
    if (c.races != 0) return "data races reported";
  }
  return {};
}

int run(const Args& a) {
  Workload w;
  if (!workload_by_name(a.workload, a.tiny, w)) usage(("unknown workload " + a.workload).c_str());

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  const auto note = [&](const std::string& err) {
    ++attempted;
    if (!err.empty()) {
      ++failed;
      errors.push_back(err);
    }
  };
  std::vector<UntracedRep> reps;
  // The first repetition's virtual results are the reference every later
  // one must repeat exactly.
  const auto check_repeat = [&](const UntracedRep& r) -> std::string {
    if (!r.error.empty()) return r.error;
    if (!reps.empty() && r.virt != reps.front().virt)
      return "virtual results changed between repetitions";
    return {};
  };

  std::FILE* out = stdout;
  Json j(out);
  j.open();
  write_provenance(j, w, a);
  j.num("body_steps", body_steps(w));
  const double t_end = wall_now() + a.seconds;

  if (a.trace == 0) {
    std::vector<ChildRep> kept;  // host-side figures of the passing repetitions
    do {
      ChildRep c;
      UntracedRep r;
      if (run_in_child(w, a.seed, c)) {
        r.wall_s = c.wall_s;
        r.cpu_s = c.cpu_s;
        r.virt.assign(c.virt, c.virt + c.nvirt);
        r.error = c.error;
      } else {
        r.error = "repetition process failed";
      }
      const std::string err = check_repeat(r);
      note(err);
      if (err.empty()) {
        reps.push_back(std::move(r));
        kept.push_back(c);
      }
    } while (wall_now() < t_end);
    // One traced verification pass: the copy must reproduce the runs above,
    // and the final tree and accelerations must check out.
    if (!reps.empty()) {
      const TracedRep t = run_traced(w, a.seed);
      note(traced_error(t, reps.front()));
    }
    j.open_array("untraced");
    for (const ChildRep& c : kept) {
      j.open();
      j.num("wall_s", c.wall_s);
      j.num("cpu_s", c.cpu_s);
      j.num("setup_s", c.setup_s);
      j.num("calibration_s", c.calibration_s);
      j.num("peak_rss_kb", static_cast<double>(c.peak_rss_kb));
      j.close();
    }
    j.close_array();
  } else {
    j.open_array("traced");
    do {
      UntracedRep u = run_untraced(w, a.seed);
      note(check_repeat(u));
      const TracedRep t = run_traced(w, a.seed);
      const std::string err = traced_error(t, u);
      note(err);
      const ObserverCosts oc = measure_observers(w, a.seed);
      write_traced(j, t, u, oc, err);
      reps.push_back(std::move(u));
    } while (wall_now() < t_end);
    j.close_array();
  }
  j.open_array("errors");
  for (const std::string& e : errors) j.str(nullptr, e);
  j.close_array();
  j.num("attempted", attempted);
  j.num("failed", failed);
  j.close();
  std::fputc('\n', out);
  std::fflush(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  perfbench::refuse_unrepresentative();
  return perfbench::run(a);
}
