#include "support/zero_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <utility>

#include "support/check.hpp"

namespace ptb {
namespace {

std::size_t round_to_pages(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

PageMap::PageMap(std::size_t bytes) : bytes_(round_to_pages(bytes)) {
  if (bytes_ == 0) return;
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PTB_CHECK_MSG(p != MAP_FAILED, "anonymous mmap failed");
  base_ = p;
}

PageMap::~PageMap() {
  if (base_ != nullptr) munmap(base_, bytes_);
}

PageMap::PageMap(PageMap&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)), bytes_(std::exchange(o.bytes_, 0)) {}

PageMap& PageMap::operator=(PageMap&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr) munmap(base_, bytes_);
    base_ = std::exchange(o.base_, nullptr);
    bytes_ = std::exchange(o.bytes_, 0);
  }
  return *this;
}

void PageMap::grow(std::size_t bytes) {
  const std::size_t want = round_to_pages(bytes);
  if (want <= bytes_) return;
  if (base_ == nullptr) {
    *this = PageMap(want);
    return;
  }
  void* p = mremap(base_, bytes_, want, MREMAP_MAYMOVE);
  PTB_CHECK_MSG(p != MAP_FAILED, "mremap of an anonymous mapping failed");
  base_ = p;
  bytes_ = want;
}

}  // namespace ptb
