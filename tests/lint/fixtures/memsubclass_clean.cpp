// Clean counterpart of memsubclass_violation.cpp: an observer outside
// src/mem/ implements SimObserver and may hold the model it reports on, but
// does not derive from it.
// ptblint-path: src/sight/fixture_mem_subclass_clean.cpp
// ptblint-expect: mem-subclass 0 0
#include <cstdint>

namespace ptb {

// Minimal stand-ins for src/mem/model.hpp and src/sim/observer.hpp.
class MemModel;
struct ChargeEvent {
  int proc;
  std::uint64_t cost;
};
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_charge(const ChargeEvent&) {}
};

class CostObserver final : public SimObserver {
 public:
  void on_charge(const ChargeEvent& e) override { total_ += e.cost; }

 private:
  const MemModel* model_ = nullptr;  // read-only handle: not a subclass
  std::uint64_t total_ = 0;
};

struct MemModelStats {  // a name that merely starts with MemModel
  std::uint64_t reads = 0;
};

}  // namespace ptb
