//===- LargeStack.cpp -----------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// The calling thread switches onto a big stack of its own (ucontext):
// handing the call to a second thread left ~0.2 ms of wake-up outside
// every phase of a ~2 ms runPipeline (4-core Xeon VM). The entry function
// returns through uc_link, and each switch is announced to the sanitizers.
//
//===----------------------------------------------------------------------===//

#include "support/LargeStack.h"

#include <exception>
#include <sys/mman.h>
#include <ucontext.h>
#include <utility>

using namespace eal;

#if defined(__SANITIZE_ADDRESS__)
#define EAL_UNDER_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define EAL_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EAL_UNDER_ASAN 1
#elif __has_feature(thread_sanitizer)
#define EAL_UNDER_TSAN 1
#endif
#endif

#ifdef EAL_UNDER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef EAL_UNDER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace {

#ifdef EAL_UNDER_ASAN
// ASan redzones inflate the recursive frames severalfold; the stack
// budget grows with them.
constexpr size_t StackBytes = size_t(2) << 30;
#else
constexpr size_t StackBytes = size_t(512) << 20;
#endif
constexpr size_t GuardBytes = 64 << 10;
/// What a call leaves resident on the stack after it returns: the depth of
/// a default main thread's stack.
constexpr size_t KeepBytes = size_t(8) << 20;

/// The call running on this thread's big stack, if any, and what it threw.
thread_local const std::function<void()> *Current = nullptr;
thread_local std::exception_ptr Thrown;

/// One thread's big stack: address space the kernel fills with pages as
/// calls touch them, its lowest GuardBytes inaccessible.
struct BigStack {
  char *Base = nullptr;
  BigStack() {
    void *P = mmap(nullptr, StackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (P == MAP_FAILED)
      return;
    if (mprotect(P, GuardBytes, PROT_NONE) == 0)
      Base = static_cast<char *>(P);
    else
      munmap(P, StackBytes);
  }
  ~BigStack() {
    // An exit() from a call on this stack unwinds the thread on it.
    if (Base && !Current)
      munmap(Base, StackBytes);
  }
  BigStack(const BigStack &) = delete;
  BigStack &operator=(const BigStack &) = delete;
};

// The sanitizers hear of each switch: AddressSanitizer checks accesses
// against the bounds of the stack that runs, and ThreadSanitizer keeps the
// big stack's calls in a fiber of their own. Without them these are empty.
#ifdef EAL_UNDER_ASAN
thread_local void *FakeStack;
thread_local const void *CallerBottom;
thread_local size_t CallerSize;
void switchingToBigStack(char *Base) {
  __sanitizer_start_switch_fiber(&FakeStack, Base, StackBytes);
}
void switchedToBigStack() {
  __sanitizer_finish_switch_fiber(nullptr, &CallerBottom, &CallerSize);
}
void switchingBack() {
  __sanitizer_start_switch_fiber(nullptr, CallerBottom, CallerSize);
}
void switchedBack() {
  __sanitizer_finish_switch_fiber(FakeStack, nullptr, nullptr);
}
#elif defined(EAL_UNDER_TSAN)
thread_local void *CallerFiber, *BigFiber;
void switchingToBigStack(char *) {
  CallerFiber = __tsan_get_current_fiber();
  BigFiber = __tsan_create_fiber(0);
  __tsan_switch_to_fiber(BigFiber, 0);
}
void switchedToBigStack() {}
void switchingBack() {}
// Switched here rather than in switchingBack: onBigStack's own exit
// belongs to the big stack's fiber.
void switchedBack() {
  __tsan_switch_to_fiber(CallerFiber, 0);
  __tsan_destroy_fiber(BigFiber);
}
#else
void switchingToBigStack(char *) {}
void switchedToBigStack() {}
void switchingBack() {}
void switchedBack() {}
#endif

void onBigStack() {
  switchedToBigStack();
  try {
    (*Current)();
  } catch (...) {
    Thrown = std::current_exception();
  }
  Current = nullptr;
  switchingBack();
}

} // namespace

void eal::runOnLargeStack(const std::function<void()> &Body) {
  thread_local BigStack Stack;
  ucontext_t Caller{}, Callee{};
  // Without a big stack, or already on it, call where we are.
  if (!Stack.Base || Current || getcontext(&Callee) != 0)
    return Body();
  Callee.uc_stack.ss_sp = Stack.Base;
  Callee.uc_stack.ss_size = StackBytes;
  Callee.uc_link = &Caller;
  makecontext(&Callee, onBigStack, 0);
  Current = &Body;
  switchingToBigStack(Stack.Base);
  // swapcontext in two halves: AddressSanitizer's swapcontext interceptor
  // warns in every process (GCC 12's runtime), announced switch or not.
  // getcontext returns once here to switch, and once more through uc_link
  // after onBigStack has cleared Current.
  getcontext(&Caller);
  if (Current)
    setcontext(&Callee);
  switchedBack();
  // The stack lives as long as its thread: hand back what a deep call
  // touched below the top KeepBytes.
  madvise(Stack.Base + GuardBytes, StackBytes - KeepBytes - GuardBytes,
          MADV_DONTNEED);
  if (Thrown)
    std::rethrow_exception(std::exchange(Thrown, nullptr));
}
