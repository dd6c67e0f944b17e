#include "platform/spec.hpp"

#include "support/check.hpp"

namespace ptb {

// Provenance of constants
// -----------------------
// Paper §3 gives most figures directly; the scraped text dropped trailing
// digits of several numbers, which we restore from the machines' published
// specifications (SGI POWERpath-2 and Origin2000 papers, Paragon NX/2 and
// HLRC/OSDI'96 measurements, Typhoon-zero ISCA'94/'96 papers):
//   * Challenge: 150 MHz R4400 ("15MHz R44"), 1.2 GB/s POWERpath-2 bus,
//     secondary-cache miss penalty ~1100 ns ("about 11ns").
//   * Origin2000: 200 MHz R10000, 4 MB L2, local miss 313 ns ("313ns"),
//     remote miss up to 703 ns ("73ns" with a digit eaten), 128 B lines.
//   * Paragon: 50 MHz i860, 4-byte NX/2 one-way latency ~50 us, HLRC at
//     4 KB pages; SVM page fault costs are dominated by software protocol
//     handling (Zhou/Iftode/Li OSDI'96 report ~1 ms-class fault costs).
//   * Typhoon-0: 66 MHz HyperSPARC, Myrinet; fine-grain access control in
//     hardware, protocols in software on the second processor.
// ns_per_work calibrates the relative single-processor speed of the four
// machines (paper Table 1): Origin < Challenge < Typhoon-0 < Paragon.

PlatformSpec PlatformSpec::ideal() {
  PlatformSpec s;
  s.name = "ideal";
  s.protocol = Protocol::kIdeal;
  s.ns_per_work = 1.0;
  s.block_bytes = 64;
  return s;
}

PlatformSpec PlatformSpec::challenge() {
  PlatformSpec s;
  s.name = "challenge";
  s.protocol = Protocol::kBus;
  s.ns_per_work = 7.0;         // 150 MHz R4400
  s.block_bytes = 128;         // POWERpath-2 coherence granularity
  s.read_hit_ns = 0.0;
  s.local_miss_ns = 1100.0;    // centralized memory: every miss costs the same
  s.remote_miss_ns = 1100.0;
  s.dirty_miss_ns = 1400.0;    // cache-to-cache intervention
  s.inval_per_sharer_ns = 0.0; // snooping broadcast: no per-sharer cost
  s.bus_occupancy_ns = 120.0;  // 128 B at ~1.2 GB/s including arbitration
  s.lock_ns = 1200.0;          // LL/SC pair, roughly one bus transaction
  s.barrier_base_ns = 4000.0;
  s.cache_bytes = 1u << 20;    // 1 MB secondary cache
  s.cache_ways = 4;
  return s;
}

PlatformSpec PlatformSpec::origin2000() {
  PlatformSpec s;
  s.name = "origin2000";
  s.protocol = Protocol::kDirectory;
  s.ns_per_work = 2.5;         // 200 MHz R10000, superscalar
  s.block_bytes = 128;
  s.read_hit_ns = 0.0;
  s.local_miss_ns = 313.0;     // paper §3.2
  s.remote_miss_ns = 703.0;    // paper §3.2 (max remote access time)
  s.dirty_miss_ns = 1000.0;    // 3-hop intervention
  s.inval_per_sharer_ns = 160.0;
  s.bus_occupancy_ns = 0.0;
  s.lock_ns = 800.0;           // uncontended LL/SC on a remote line
  s.barrier_base_ns = 5000.0;
  s.cache_bytes = 4u << 20;    // 4 MB L2 per processor
  s.cache_ways = 2;
  return s;
}

PlatformSpec PlatformSpec::paragon() {
  PlatformSpec s;
  s.name = "paragon";
  s.protocol = Protocol::kHlrc;
  s.ns_per_work = 20.0;        // 50 MHz i860 running compiled C
  s.block_bytes = 4096;        // SVM page
  s.page_fault_ns = 1'000'000.0;  // trap + request + 4 KB over the mesh +
                                  // software handlers on both ends (HLRC
                                  // papers report ~1 ms-class faults here)
  s.twin_ns = 90'000.0;           // 4 KB copy at memory speed + bookkeeping
  s.diff_per_page_ns = 250'000.0;
  s.notice_ns = 20'000.0;         // applying a notice mprotects a page:
                                  // a syscall on a 50 MHz i860
  s.svm_lock_ns = 550'000.0;      // 3 one-way NX/2 messages + manager handler
  s.svm_barrier_ns = 600'000.0;
  s.lock_ns = 0.0;             // unused under HLRC (svm_lock_ns applies)
  s.barrier_base_ns = 0.0;
  // Local (non-protocol) memory behaviour: the i860 XP has only a 16 KB
  // data cache and no L2, so the Paragon is strongly memory-bound even
  // sequentially (the paper's Table 1 shows it far slower than its clock
  // ratio alone explains). Valid pages still pay these local misses.
  s.local_miss_ns = 350.0;
  s.cache_bytes = 64u << 10;   // 16 KB D-cache + stream buffers, modeled as 64 KB
  s.cache_ways = 2;
  return s;
}

PlatformSpec PlatformSpec::typhoon0_hlrc() {
  PlatformSpec s;
  s.name = "typhoon0_hlrc";
  s.protocol = Protocol::kHlrc;
  s.ns_per_work = 11.0;        // 66 MHz HyperSPARC
  s.block_bytes = 4096;
  s.page_fault_ns = 650'000.0;  // Myrinet is faster than the Paragon mesh
                                // but the SBus limits transfer bandwidth
  s.twin_ns = 60'000.0;
  s.diff_per_page_ns = 150'000.0;
  s.notice_ns = 12'000.0;       // mprotect-per-invalidated-page on a 66 MHz
                                // HyperSPARC
  s.svm_lock_ns = 300'000.0;
  s.svm_barrier_ns = 400'000.0;
  // Local memory behaviour of the HyperSPARC node (1 MB external cache).
  s.local_miss_ns = 500.0;
  s.cache_bytes = 1u << 20;
  s.cache_ways = 4;
  return s;
}

PlatformSpec PlatformSpec::typhoon0_sc() {
  PlatformSpec s;
  s.name = "typhoon0_sc";
  s.protocol = Protocol::kFineGrainSC;
  s.ns_per_work = 11.0;
  s.block_bytes = 64;          // fine-grain access control granularity
  s.read_hit_ns = 0.0;
  // Misses are serviced by the software protocol running on the second
  // processor plus a Myrinet round trip; no page faults, no diffs.
  s.local_miss_ns = 2'000.0;   // local access-control check + memory
  s.remote_miss_ns = 26'000.0; // request/response through both coprocessors
  s.dirty_miss_ns = 38'000.0;
  s.inval_per_sharer_ns = 8'000.0;
  s.lock_ns = 14'000.0;        // uncached RMW round trip, no protocol entry
  s.barrier_base_ns = 60'000.0;
  s.cache_bytes = 1u << 20;    // 1 MB HyperSPARC external cache
  s.cache_ways = 4;
  return s;
}

// 2020s platform models (ROADMAP item 4)
// --------------------------------------
// The paper's question, re-asked 25 years later, needs machines from 25 years
// later. Constants are order-of-magnitude figures from the literature the
// RADIX builder is grounded in, not one specific SKU:
//   * numa2020: a ~64-core server CC-NUMA node of the kind Cornerstone
//     (arXiv:2307.06345) uses as its CPU baseline. ~3 GHz superscalar cores
//     (ns_per_work 0.3 ≈ 20x Challenge's R4400 per abstract work unit), 64 B
//     lines, ~90 ns local DRAM, ~140 ns cross-socket, ~200 ns dirty 3-hop
//     (cf. published EPYC/Xeon NUMA latency measurements), atomics resolved
//     in the cache hierarchy (~120 ns uncontended remote CAS — ~7x cheaper
//     relative to a miss than Origin2000's LL/SC), hundreds-of-ns tree
//     barriers, ~4 MB effective cache per core (shared L3 slice).
//   * simt2020: a GPU-like wide-SIMT device in the style of Tokuue &
//     Ishiyama's tree-code timings (arXiv:2312.06102) and Cornerstone's GPU
//     path. One "processor" models an SM-class throughput engine: enormous
//     arithmetic rate (ns_per_work 0.05), uniform high-latency device memory
//     (~400 ns to HBM, modeled as a flat bus protocol), 128 B coalescing
//     granularity, NEAR-FREE atomics (~40 ns: resolved at the memory-side L2
//     without stalling the pipe — the single biggest change from 1998), fast
//     hardware grid barriers, and only ~128 KB of close storage per SM.
// Both keep read_hit at 0 like the 1998 entries; only relative shapes are
// claimed, exactly as for the paper's own machines.

PlatformSpec PlatformSpec::numa2020() {
  PlatformSpec s;
  s.name = "numa2020";
  s.protocol = Protocol::kDirectory;
  s.ns_per_work = 0.3;
  s.block_bytes = 64;
  s.read_hit_ns = 0.0;
  s.local_miss_ns = 90.0;
  s.remote_miss_ns = 140.0;
  s.dirty_miss_ns = 200.0;
  s.inval_per_sharer_ns = 30.0;
  s.bus_occupancy_ns = 0.0;
  s.lock_ns = 120.0;
  s.barrier_base_ns = 2000.0;
  s.cache_bytes = 4u << 20;
  s.cache_ways = 8;
  return s;
}

PlatformSpec PlatformSpec::simt2020() {
  PlatformSpec s;
  s.name = "simt2020";
  s.protocol = Protocol::kBus;  // uniform-latency device memory
  s.ns_per_work = 0.05;
  s.block_bytes = 128;          // coalesced transaction granularity
  s.read_hit_ns = 0.0;
  s.local_miss_ns = 400.0;
  s.remote_miss_ns = 400.0;
  s.dirty_miss_ns = 450.0;
  s.inval_per_sharer_ns = 0.0;
  s.bus_occupancy_ns = 1.0;     // HBM-class bandwidth: contention is light
  s.lock_ns = 40.0;             // memory-side atomics, no pipeline stall
  s.barrier_base_ns = 1000.0;
  s.cache_bytes = 128u << 10;   // SM-local L1/shared storage
  s.cache_ways = 8;
  return s;
}

std::optional<PlatformSpec> PlatformSpec::parse(const std::string& name) {
  if (name == "ideal") return ideal();
  if (name == "challenge") return challenge();
  if (name == "origin2000") return origin2000();
  if (name == "paragon") return paragon();
  if (name == "typhoon0_hlrc") return typhoon0_hlrc();
  if (name == "typhoon0_sc") return typhoon0_sc();
  if (name == "numa2020") return numa2020();
  if (name == "simt2020") return simt2020();
  return std::nullopt;
}

PlatformSpec PlatformSpec::by_name(const std::string& name) {
  const std::optional<PlatformSpec> spec = parse(name);
  PTB_CHECK_MSG(spec.has_value(), "unknown platform name");
  return *spec;
}

std::vector<std::string> PlatformSpec::all_names() {
  return {"ideal",         "challenge", "origin2000", "paragon",
          "typhoon0_hlrc", "typhoon0_sc", "numa2020",  "simt2020"};
}

std::string PlatformSpec::names_joined(char sep) {
  std::string out;
  for (const std::string& n : all_names()) {
    if (!out.empty()) out.push_back(sep);
    out += n;
  }
  return out;
}

}  // namespace ptb
