#include "treebuild/types.hpp"

namespace ptb {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kOrig:
      return "ORIG";
    case Algorithm::kLocal:
      return "LOCAL";
    case Algorithm::kUpdate:
      return "UPDATE";
    case Algorithm::kPartree:
      return "PARTREE";
    case Algorithm::kSpace:
      return "SPACE";
    case Algorithm::kRadix:
      return "RADIX";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(const std::string& name) {
  for (Algorithm a : all_algorithms())
    if (name == algorithm_name(a)) return a;
  // Accept lowercase too.
  if (name == "orig") return Algorithm::kOrig;
  if (name == "local") return Algorithm::kLocal;
  if (name == "update") return Algorithm::kUpdate;
  if (name == "partree") return Algorithm::kPartree;
  if (name == "space") return Algorithm::kSpace;
  if (name == "radix") return Algorithm::kRadix;
  return std::nullopt;
}

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::kOrig,    Algorithm::kLocal, Algorithm::kUpdate,
          Algorithm::kPartree, Algorithm::kSpace, Algorithm::kRadix};
}

std::string algorithm_names_joined(char sep) {
  std::string out;
  for (Algorithm a : all_algorithms()) {
    if (!out.empty()) out.push_back(sep);
    out += algorithm_name(a);
  }
  return out;
}

}  // namespace ptb
