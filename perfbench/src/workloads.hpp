// Workload definitions and the untraced, closed-loop repetition the
// end-to-end metrics are measured on. Everything here goes through the
// public harness API (ExperimentRunner::run); the traced copy lives in
// traced.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string platform;
  /// One simulation per algorithm, all through ONE ExperimentRunner, so the
  /// p=1 baseline is computed once and shared (a figure sweep's shape).
  std::vector<ptb::Algorithm> algorithms;
  int n = 0;
  int nprocs = 0;
  int warmup_steps = 2;
  int measured_steps = 2;
  /// Attach tracer, race detector, profiler, sight and anatomy, and
  /// serialize every report.
  bool observers = false;
};

/// The three benchmark workloads; `tiny` shrinks them for the self-test.
/// Returns false for an unknown name.
bool workload_by_name(const std::string& name, bool tiny, Workload& out);

/// The spec of one simulation of `w`, over the Plummer galaxy of `seed`.
/// Observers are off; the caller attaches what it needs.
ptb::ExperimentSpec spec_for(const Workload& w, ptb::Algorithm alg, std::uint64_t seed);

/// Bodies x time-steps one repetition simulates: every simulation, warm-up
/// steps and the p=1 baseline included.
double body_steps(const Workload& w);

/// The virtual (simulated) outcome of one simulation. Exact: two runs of
/// the same configuration must compare equal field for field.
struct VirtualResult {
  double seq_s = 0.0;
  double par_s = 0.0;
  double speedup = 0.0;
  double treebuild_s = 0.0;
  std::array<double, ptb::kNumPhases> phase_ns{};
  ptb::MemProcStats mem;
  std::uint64_t lock_acquires = 0;
  std::uint64_t barriers = 0;
  std::uint64_t fetch_adds = 0;
  std::uint64_t interactions = 0;
  std::uint64_t races = 0;

  bool operator==(const VirtualResult& o) const;
};

/// The virtual outcome of one ExperimentResult (the untraced runs and the
/// traced copy both go through this one extraction).
VirtualResult virtual_of(const ptb::ExperimentResult& r);

/// A stdio stream that discards everything written to it: reports are
/// serialized in full but never touch the file system.
std::FILE* discard_sink();

/// Host clocks: monotonic wall seconds, and process CPU seconds
/// (user + system, all threads).
double wall_now();
double cpu_now();

/// Host seconds of a fixed calibration kernel: three passes of 300k
/// updates to a freshly allocated 64k-key hash table. It shares no code with
/// the simulator, so no change to src/ moves it, but like the simulator it
/// allocates small nodes and chases pointers through them, so it slows as
/// much when other tenants contend for the core, its caches and memory.
/// Timed right after a repetition, it gives that repetition's host speed.
double calibration_seconds();

struct UntracedRep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<VirtualResult> virt;
  /// Empty when every output check of the repetition passed.
  std::string error;
};

/// One closed-loop repetition: a fresh ExperimentRunner runs every
/// simulation of `w` (observers attached and reports serialized when the
/// workload asks for them).
UntracedRep run_untraced(const Workload& w, std::uint64_t seed);

/// Host seconds of everything one repetition does before its first
/// simulated step, timed as calls from the benchmark: runner construction,
/// and per simulation (the p=1 baseline included) make_app_state,
/// SimContext construction with its observers, builder construction and
/// region registration.
double measure_setup(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
