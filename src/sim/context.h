// Minimal stackful-coroutine context switching.
//
// The simulator multiplexes every simulated core's uthreads onto the single
// host thread, so a context is just a saved stack pointer plus the
// callee-saved registers spilled onto that stack (boost::fcontext style) —
// no syscall anywhere on the path, unlike glibc swapcontext, which enters
// the kernel for sigprocmask on every switch. Fast paths exist for x86-64
// System V (~20ns per switch) and aarch64 AAPCS64; a portable ucontext
// fallback is selectable with -DEASYIO_UCONTEXT_FALLBACK=ON and is forced
// automatically on other architectures.
//
// Only the simulation kernel touches this API; everything above it uses
// sim::Task.

#ifndef EASYIO_SIM_CONTEXT_H_
#define EASYIO_SIM_CONTEXT_H_

#include <cstddef>
#include <cstdint>

#if defined(EASYIO_UCONTEXT)
#include <ucontext.h>
#endif

namespace easyio::sim {

// Sanitizers cannot follow a raw stack switch on their own. ThreadSanitizer
// sees one host thread's shadow stack teleport and reports bogus races (or
// crashes) the first time a coroutine runs; AddressSanitizer loses track of
// which stack is live, so its stack bounds and fake stacks (detect_stack_
// use_after_return) go wrong. When the build is sanitized, every switch is
// announced: each context is a TSan "fiber", and ASan is told the target
// stack before a switch and that it landed after it.
#if defined(__SANITIZE_THREAD__)
#define EASYIO_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EASYIO_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define EASYIO_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EASYIO_ASAN_FIBERS 1
#endif
#endif

struct Context {
#if defined(EASYIO_UCONTEXT)
  ucontext_t uc;
#else
  void* sp = nullptr;  // saved stack pointer; register area lives on the stack
#endif
  // What the first switch-in starts: entry(arg), called through a
  // trampoline that first lets the sanitizers know the switch landed. A
  // context must therefore stay at a stable address between MakeContext and
  // its first switch-in (Task objects are heap-allocated and never move, so
  // the kernel satisfies this for free).
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
#if defined(EASYIO_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
  bool tsan_fiber_owned = false;  // created by MakeContext (vs adopted)
#endif
#if defined(EASYIO_ASAN_FIBERS)
  // The context's stack. For a context that was never MakeContext'd (the
  // host's own stack), the first switch that lands after leaving it
  // reports it.
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
#endif
};

using ContextEntry = void (*)(void* arg);

// Prepares `ctx` so the first SwapContext into it calls entry(arg) on the
// given stack. The stack grows down; `stack_base` is the lowest address.
void MakeContext(Context* ctx, void* stack_base, size_t stack_size,
                 ContextEntry entry, void* arg);

// Saves the current context into `from` and resumes `to`.
void SwapContext(Context* from, Context* to);

// Leaves `from` for `to` for good: `from`'s coroutine has finished and is
// never resumed, so its sanitizer fake stack is dropped on the way out.
// Never returns.
[[noreturn]] void ExitToContext(Context* from, Context* to);

// Declares that the coroutine suspended in `ctx` will never resume; call it
// before its stack is freed. Its frames are never unwound, so what they own
// is abandoned on purpose: in AddressSanitizer builds, every heap object
// they point to is exempted from LeakSanitizer's report, as it would be if
// the stack stayed alive as a root. No-op in other builds.
void AbandonContext(const Context* ctx);

// Frees any sanitizer bookkeeping attached to a context whose coroutine has
// finished (or was never started). Must not be called on the context that is
// currently executing. No-op in unsanitized builds.
void ReleaseContext(Context* ctx);

}  // namespace easyio::sim

#endif  // EASYIO_SIM_CONTEXT_H_
