#include "sim/fiber.hpp"

#include <cstdlib>
#include <cstring>

#include "support/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define PTB_FIBER_MMAP 1
#endif

// Hand-rolled context switch only on x86-64 SysV; everything else goes
// through ucontext.
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
#define PTB_FIBER_ASM_X86_64 1
#else
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PTB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PTB_ASAN 1
#endif
#endif

#ifdef PTB_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace ptb {

namespace {

std::size_t page_size() {
#ifdef PTB_FIBER_MMAP
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
#else
  return 4096;
#endif
}

std::size_t round_up(std::size_t v, std::size_t to) { return (v + to - 1) / to * to; }

}  // namespace

// First-resume landing pad shared by both backends: announce the stack switch
// to ASan, then run the user entry, which must never return.
void fiber_entry_shim(Fiber* f) {
#ifdef PTB_ASAN
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  f->entry_(f->arg_);
  PTB_CHECK_MSG(false, "fiber entry function returned instead of switching away");
}

#ifdef PTB_FIBER_ASM_X86_64

// ptb_fiber_swap(void** from_sp, void** to_sp)
//
// SysV x86-64 context switch: spill the callee-saved GPRs plus the x87/SSE
// control words onto the current stack, save rsp into *from_sp, adopt
// *to_sp and unspill. Caller-saved state needs no treatment because this is
// an ordinary function call from the compiler's point of view.
asm(R"(
        .text
        .align 16
        .globl ptb_fiber_swap
#if !defined(__APPLE__)
        .type ptb_fiber_swap, @function
#endif
ptb_fiber_swap:
        pushq %rbp
        pushq %rbx
        pushq %r12
        pushq %r13
        pushq %r14
        pushq %r15
        subq  $8, %rsp
        stmxcsr 4(%rsp)
        fnstcw  (%rsp)
        movq  %rsp, (%rdi)
        movq  (%rsi), %rsp
        fldcw   (%rsp)
        ldmxcsr 4(%rsp)
        addq  $8, %rsp
        popq  %r15
        popq  %r14
        popq  %r13
        popq  %r12
        popq  %rbx
        popq  %rbp
        ret
)");

// First-resume trampoline: ptb_fiber_swap "returns" here with the Fiber*
// parked in r12 by Fiber::start(). Clear the frame chain, realign the stack
// to the ABI contract and enter the C++ shim.
asm(R"(
        .text
        .align 16
        .globl ptb_fiber_boot
#if !defined(__APPLE__)
        .type ptb_fiber_boot, @function
#endif
ptb_fiber_boot:
        movq  %r12, %rdi
        xorl  %ebp, %ebp
        andq  $-16, %rsp
        call  ptb_fiber_boot_c
        ud2
)");

extern "C" {
void ptb_fiber_swap(void** from_sp, void** to_sp);
void ptb_fiber_boot();
// Referenced only from the top-level asm above, which LTO cannot see into:
// `used` keeps the definition from being discarded under -flto.
__attribute__((used)) void ptb_fiber_boot_c(void* f) {
  fiber_entry_shim(static_cast<Fiber*>(f));
}
}

#endif  // PTB_FIBER_ASM_X86_64

void Fiber::start(Entry entry, void* arg, std::size_t stack_bytes) {
  PTB_CHECK_MSG(stack_ == nullptr, "Fiber::start on an already-started fiber");
  entry_ = entry;
  arg_ = arg;

  const std::size_t ps = page_size();
  stack_bytes_ = round_up(stack_bytes, ps);
  stack_total_ = stack_bytes_ + ps;  // + low guard page
#ifdef PTB_FIBER_MMAP
  void* mem = mmap(nullptr, stack_total_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PTB_CHECK_MSG(mem != MAP_FAILED, "fiber stack mmap failed");
  PTB_CHECK(mprotect(mem, ps, PROT_NONE) == 0);
#else
  void* mem = std::malloc(stack_total_);
  PTB_CHECK_MSG(mem != nullptr, "fiber stack allocation failed");
#endif
  stack_ = mem;
  stack_lo_ = static_cast<char*>(mem) + ps;
#ifdef PTB_ASAN
  // The allocator may hand back an address range a dead fiber's stack (or any
  // poisoned allocation) previously occupied, and ASan shadow is not cleared
  // by munmap/free. Stale redzones on a fresh stack break the runtime's own
  // stack walks (e.g. __asan_handle_no_return at fiber boot), so scrub them.
  __asan_unpoison_memory_region(stack_lo_, stack_bytes_);
#endif

#ifdef PTB_FIBER_ASM_X86_64
  // Craft the initial frame ptb_fiber_swap will unspill (see the asm above):
  // control words at the bottom, then r15..rbp, then the ptb_fiber_boot
  // return address at the 16-aligned stack top.
  auto top = reinterpret_cast<std::uintptr_t>(stack_lo_) + stack_bytes_;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  frame[0] = static_cast<std::uint64_t>(fcw) |
             (static_cast<std::uint64_t>(mxcsr) << 32);
  frame[1] = 0;                                       // r15
  frame[2] = 0;                                       // r14
  frame[3] = 0;                                       // r13
  frame[4] = reinterpret_cast<std::uint64_t>(this);   // r12 -> boot arg
  frame[5] = 0;                                       // rbx
  frame[6] = 0;                                       // rbp
  frame[7] = reinterpret_cast<std::uint64_t>(&ptb_fiber_boot);
  sp_ = frame;
#else
  auto* uc = new ucontext_t;
  ucontext_ = uc;
  PTB_CHECK(getcontext(uc) == 0);
  uc->uc_stack.ss_sp = stack_lo_;
  uc->uc_stack.ss_size = stack_bytes_;
  uc->uc_link = nullptr;
  // makecontext only forwards ints; smuggle the Fiber* through two halves.
  const auto bits = reinterpret_cast<std::uintptr_t>(this);
  makecontext(
      uc,
      reinterpret_cast<void (*)()>(+[](unsigned hi, unsigned lo) {
        const auto p = (static_cast<std::uintptr_t>(hi) << 32) |
                       static_cast<std::uintptr_t>(lo);
        fiber_entry_shim(reinterpret_cast<Fiber*>(p));
      }),
      2, static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits & 0xffffffffu));
#endif
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
#ifdef PTB_ASAN
  __sanitizer_start_switch_fiber(&from.asan_fake_stack_, to.stack_lo_, to.stack_bytes_);
#endif
#ifdef PTB_FIBER_ASM_X86_64
  ptb_fiber_swap(&from.sp_, &to.sp_);
#else
  auto* fu = static_cast<ucontext_t*>(from.ucontext_);
  if (fu == nullptr) {
    fu = new ucontext_t;
    from.ucontext_ = fu;
  }
  PTB_CHECK(swapcontext(fu, static_cast<ucontext_t*>(to.ucontext_)) == 0);
#endif
#ifdef PTB_ASAN
  // We are back in `from` — complete the switch that resumed us.
  __sanitizer_finish_switch_fiber(from.asan_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::destroy() {
  if (stack_ != nullptr) {
#ifdef PTB_ASAN
    // Leave no shadow poison behind for the next occupant of this range.
    __asan_unpoison_memory_region(stack_lo_, stack_bytes_);
#endif
#ifdef PTB_FIBER_MMAP
    munmap(stack_, stack_total_);
#else
    std::free(stack_);
#endif
    stack_ = nullptr;
    stack_lo_ = nullptr;
    stack_bytes_ = 0;
    stack_total_ = 0;
    sp_ = nullptr;
  }
#ifndef PTB_FIBER_ASM_X86_64
  delete static_cast<ucontext_t*>(ucontext_);
  ucontext_ = nullptr;
#endif
}

Fiber::~Fiber() { destroy(); }

}  // namespace ptb
