// Sealed dispatch over the three protocol models.
//
// The simulator charges millions of annotated accesses per simulated second;
// paying an indirect virtual call for each is measurable. All three protocol
// models are `final`, so a call through a pointer of the CONCRETE type
// devirtualizes into a direct (and, for header-defined models, inlinable)
// call. MemDispatch snapshots the model's MemModelKind once at bind time and
// routes each hot-path operation through a switch on that tag.
//
// The virtual route serves only the PTB_MEM_SLOWPATH=1 oracle (bound with
// force_virtual): every run charges one of the three protocol models, and
// observers watch the charges through sim/observer.hpp rather than wrapping
// the model. Bit-identity of the two routes is asserted by
// tests/test_mem_equiv.cpp.
#pragma once

#include "mem/hlrc_model.hpp"
#include "mem/ideal_model.hpp"
#include "mem/invalidation_model.hpp"
#include "mem/model.hpp"

namespace ptb {

class MemDispatch {
 public:
  /// Binds to `m` (must outlive this). With force_virtual (the slow-path
  /// oracle) every call takes the virtual route regardless of the model.
  void bind(MemModel* m, bool force_virtual) {
    base_ = m;
    kind_ = force_virtual ? MemModelKind::kOther : m->kind();
    ideal_ = kind_ == MemModelKind::kIdeal ? static_cast<IdealModel*>(m) : nullptr;
    inval_ = kind_ == MemModelKind::kInvalidation ? static_cast<InvalidationModel*>(m)
                                                  : nullptr;
    hlrc_ = kind_ == MemModelKind::kHlrc ? static_cast<HlrcModel*>(m) : nullptr;
  }

  MemModelKind kind() const { return kind_; }

  /// Calls `f` with the bound model as its concrete type (the virtual base
  /// on the oracle route). The one switch on the kind: the single charges
  /// below go through it, and a loop of charges inside `f` pays it once and
  /// can inline the model's calls (the batched replay, SimProc::replay).
  template <class F>
  decltype(auto) visit(F&& f) const {
    switch (kind_) {
      case MemModelKind::kIdeal:
        return f(*ideal_);
      case MemModelKind::kInvalidation:
        return f(*inval_);
      case MemModelKind::kHlrc:
        return f(*hlrc_);
      case MemModelKind::kOther:
        break;
    }
    return f(*base_);
  }

  std::uint64_t on_read_shared(int proc, const void* p, std::size_t n) const {
    return visit([&](auto& m) { return m.on_read_shared(proc, p, n); });
  }

  std::uint64_t on_read_shared_span(int proc, const void* p, std::size_t n,
                                    std::size_t stride, std::size_t count) const {
    return visit([&](auto& m) { return m.on_read_shared_span(proc, p, n, stride, count); });
  }

  std::uint64_t on_read(int proc, const void* p, std::size_t n, std::uint64_t now) const {
    return visit([&](auto& m) { return m.on_read(proc, p, n, now); });
  }

  std::uint64_t on_write(int proc, const void* p, std::size_t n, std::uint64_t now) const {
    return visit([&](auto& m) { return m.on_write(proc, p, n, now); });
  }

 private:
  MemModel* base_ = nullptr;
  MemModelKind kind_ = MemModelKind::kOther;
  IdealModel* ideal_ = nullptr;
  InvalidationModel* inval_ = nullptr;
  HlrcModel* hlrc_ = nullptr;
};

}  // namespace ptb
