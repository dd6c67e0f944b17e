// The five parallel tree-building algorithms studied by the paper, plus
// RADIX — the 2020s-era Morton-sort builder the modern platforms favour.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace ptb {

enum class Algorithm : int {
  kOrig = 0,     // §2.1 SPLASH: one shared cell array, per-cell locks,
                 //      global next-cell counter, shared count arrays
  kLocal = 1,    // §2.2 SPLASH-2: per-processor pools, private counters
  kUpdate = 2,   // §2.3 incremental per-step tree update
  kPartree = 3,  // §2.4 local trees merged subtree-wise into the global tree
  kSpace = 4,    // §2.5 the paper's new algorithm: separate spatial
                 //      partition for tree building; zero locks
  kRadix = 5,    // beyond the paper: fully-parallel Morton-key radix sort +
                 //      lock-free construction from sorted keys (Cornerstone
                 //      lineage, arXiv:2307.06345); zero locks, cheap atomics
};

inline constexpr int kNumAlgorithms = 6;

const char* algorithm_name(Algorithm a);
/// The builder named `name` (algorithm_name, or the same in lowercase), or
/// nullopt for an unknown name.
std::optional<Algorithm> parse_algorithm(const std::string& name);
std::vector<Algorithm> all_algorithms();

/// "ORIG|LOCAL|UPDATE|PARTREE|SPACE|RADIX" — the one shared builder listing
/// for CLI help strings (ptbsim, benches); never hand-maintain a copy.
std::string algorithm_names_joined(char sep = '|');

}  // namespace ptb
