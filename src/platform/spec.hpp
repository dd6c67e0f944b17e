// Platform parameter sets.
//
// One PlatformSpec per machine in the paper's §3, plus an "ideal" PRAM-like
// machine used by tests. Constants carry provenance comments in spec.cpp;
// where the paper's scraped text lost digits we use era-accurate published
// values and calibrate against the paper's Table 1 ratios (see DESIGN.md §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ptb {

enum class Protocol {
  kIdeal,        // zero-cost shared memory (tests)
  kBus,          // snooping bus, uniform miss cost (SGI Challenge)
  kDirectory,    // CC-NUMA invalidation directory (SGI Origin2000)
  kHlrc,         // page-grain home-based lazy release consistency (SVM)
  kFineGrainSC,  // fine-grain access control, SC, software protocol
};

struct PlatformSpec {
  std::string name;
  Protocol protocol = Protocol::kIdeal;

  /// Nanoseconds per abstract work unit (≈ one floating-point operation of
  /// the N-body inner loop, including its share of integer overhead).
  double ns_per_work = 1.0;

  /// Coherence granularity in bytes (cache line or SVM page).
  std::size_t block_bytes = 128;

  // --- hardware-coherent parameters ---
  double read_hit_ns = 0.0;
  double local_miss_ns = 0.0;    // miss satisfied by local memory
  double remote_miss_ns = 0.0;   // miss satisfied by a remote home
  double dirty_miss_ns = 0.0;    // 3-hop: remote and dirty in a third cache
  double inval_per_sharer_ns = 0.0;
  double bus_occupancy_ns = 0.0;  // per bus transaction (Challenge contention)
  double lock_ns = 0.0;           // uncontended lock acquire/release transfer
  double barrier_base_ns = 0.0;   // latency of the barrier primitive itself

  // --- cache model (per processor, used by hardware-coherent platforms) ---
  std::size_t cache_bytes = 0;  // 0 => infinite cache (SVM platforms)
  int cache_ways = 2;

  // --- SVM (HLRC) parameters ---
  double page_fault_ns = 0.0;    // full fault: trap + request + page + map
  double twin_ns = 0.0;          // copy-on-first-write twin creation
  double diff_per_page_ns = 0.0; // diff computation + transfer to home
  double notice_ns = 0.0;        // apply one write notice (invalidate a page)
  double svm_lock_ns = 0.0;      // 3-hop lock acquire through the manager
  double svm_barrier_ns = 0.0;   // barrier message round + protocol entry

  // --- fine-grain software-coherence parameters (Typhoon-0 SC) ---
  // Reuses local/remote/dirty miss fields, which then include the software
  // access-control handler cost on both ends.

  static PlatformSpec ideal();
  static PlatformSpec challenge();
  static PlatformSpec origin2000();
  static PlatformSpec paragon();
  static PlatformSpec typhoon0_hlrc();
  static PlatformSpec typhoon0_sc();
  // 2020s additions (ROADMAP item 4): the machines the RADIX builder was
  // designed for. Parameter provenance in spec.cpp and docs/MODEL.md §2.3.
  static PlatformSpec numa2020();  // modern many-core CC-NUMA node
  static PlatformSpec simt2020();  // GPU-like wide-SIMT device

  /// Lookup by name ("ideal", "challenge", "origin2000", "paragon",
  /// "typhoon0_hlrc", "typhoon0_sc", "numa2020", "simt2020"), or nullopt
  /// for an unknown name.
  static std::optional<PlatformSpec> parse(const std::string& name);
  /// parse() for a name known to be valid: aborts on an unknown one.
  static PlatformSpec by_name(const std::string& name);
  static std::vector<std::string> all_names();
  /// "ideal|challenge|..." — the one shared platform listing for CLI help.
  static std::string names_joined(char sep = '|');
};

/// The virtual ns one compute(units) call charges: units × ns_per_work,
/// truncated per call. The one cost rule for compute, whether charged
/// directly (SimProc) or recorded for a later replay (ChargeRecorder).
inline std::uint64_t compute_ns(double units, double ns_per_work) {
  return static_cast<std::uint64_t>(units * ns_per_work);
}

}  // namespace ptb
