#include "mem/model.hpp"

#include <cstdlib>

#include "mem/hlrc_model.hpp"
#include "mem/ideal_model.hpp"
#include "mem/invalidation_model.hpp"
#include "support/check.hpp"

namespace ptb {

bool mem_slowpath_enabled() {
  // Deliberately NOT cached in a static: equivalence tests flip the variable
  // between SimContext constructions within one process.
  const char* env = std::getenv("PTB_MEM_SLOWPATH");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

void MemModel::register_region(const void* base, std::size_t bytes, HomePolicy policy,
                               int fixed_home, std::string name) {
  PTB_CHECK(fixed_home >= 0 && fixed_home < nprocs_);
  regions_.add(base, bytes, policy, fixed_home, std::move(name), nprocs_);
  flush_lookasides();
}

void MemModel::reset() {
  regions_.clear();
  reset_stats();
  flush_lookasides();
}

void MemModel::reset_stats() {
  stats_.assign(static_cast<std::size_t>(nprocs_), MemProcStats{});
}

std::unique_ptr<MemModel> make_mem_model(const PlatformSpec& spec, int nprocs) {
  switch (spec.protocol) {
    case Protocol::kIdeal:
      return std::make_unique<IdealModel>(spec, nprocs);
    case Protocol::kBus:
    case Protocol::kDirectory:
    case Protocol::kFineGrainSC:
      return std::make_unique<InvalidationModel>(spec, nprocs);
    case Protocol::kHlrc:
      return std::make_unique<HlrcModel>(spec, nprocs);
  }
  PTB_CHECK_MSG(false, "unhandled protocol");
  return nullptr;
}

}  // namespace ptb
