#include "sim/observer.hpp"

#include "mem/model.hpp"
#include "sim/walk_ahead.hpp"

namespace ptb {

void SimObserver::on_replay(const ReplayEvent& e) {
  // The events SimProc::read_shared / read_shared_span would have issued:
  // each charge at the clock plus everything charged before it.
  std::uint64_t now = e.now;
  const MemProcStats* before = &e.before;
  for (std::size_t i = 0; i < e.size; ++i) {
    const ChargeRecord& r = e.records[i];
    if (r.count != 0) {
      on_charge({e.proc, ChargeKind::kReadShared, r.addr, nullptr, r.bytes, r.stride, r.count,
                 now, e.costs[i], *before, e.after[i]});
      before = &e.after[i];
    }
    now += e.costs[i] + r.compute_ns;
  }
}

}  // namespace ptb
