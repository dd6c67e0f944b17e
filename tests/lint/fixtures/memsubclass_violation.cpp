// Planted violations for mem-subclass: MemModel subclasses outside src/mem/.
// Both are flagged: the wrapper that forwards the inner latency untouched as
// well as the one that skews it. Observers implement SimObserver and never
// sit in the charge path.
// ptblint-path: src/trace/fixture_mem_subclass.cpp
// ptblint-expect: mem-subclass 2 0
#include <cstddef>
#include <cstdint>
#include <memory>

namespace ptb {

// Minimal stand-in for src/mem/model.hpp.
class MemModel {
 public:
  virtual ~MemModel() = default;
  virtual std::uint64_t on_read(int, const void*, std::size_t, std::uint64_t) = 0;
};

class ForwardingModel final : public MemModel {
 public:
  std::uint64_t on_read(int proc, const void* p, std::size_t n, std::uint64_t now) override {
    return inner_->on_read(proc, p, n, now);
  }

 private:
  std::unique_ptr<MemModel> inner_;
};

class SkewModel final : public MemModel {
 public:
  std::uint64_t on_read(int proc, const void* p, std::size_t n, std::uint64_t now) override {
    return inner_->on_read(proc, p, n, now) + 5;
  }

 private:
  std::unique_ptr<MemModel> inner_;
};

}  // namespace ptb
