#include "src/sim/context.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(EASYIO_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#include <sanitizer/lsan_interface.h>
#endif

namespace easyio::sim {

#if defined(EASYIO_TSAN_FIBERS)

// Not provided by a public header on every toolchain; the symbols live in
// the TSan runtime that -fsanitize=thread links in.
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}

void ReleaseContext(Context* ctx) {
  if (ctx->tsan_fiber != nullptr && ctx->tsan_fiber_owned) {
    __tsan_destroy_fiber(ctx->tsan_fiber);
  }
  ctx->tsan_fiber = nullptr;
  ctx->tsan_fiber_owned = false;
}

#else

void ReleaseContext(Context* ctx) { (void)ctx; }

#endif  // EASYIO_TSAN_FIBERS

namespace {

#if defined(EASYIO_ASAN_FIBERS)
// The context the running stack was last switched away from. The switch
// that lands records its stack bounds there, which is how the host's own
// stack (never MakeContext'd) becomes known.
thread_local Context* t_switch_from = nullptr;
#endif

// Runs on `from`'s stack just before it leaves for `to`. A null
// `fake_stack` tells ASan that `from` is never resumed. For TSan, the
// saved-into context lazily adopts the thread's current fiber the first
// time it is swapped out of (that covers Simulation's host context);
// adopted fibers belong to the thread, so ReleaseContext leaves them alone.
inline void BeforeSwitch(Context* from, Context* to, void** fake_stack) {
#if defined(EASYIO_ASAN_FIBERS)
  t_switch_from = from;
  __sanitizer_start_switch_fiber(fake_stack, to->stack_bottom,
                                 to->stack_size);
#else
  (void)fake_stack;
#endif
#if defined(EASYIO_TSAN_FIBERS)
  if (from->tsan_fiber == nullptr) {
    from->tsan_fiber = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#else
  (void)from;
  (void)to;
#endif
}

// Runs on the stack a switch landed on: right after the swap returns, or
// first thing in a fresh context (with a null fake stack).
inline void AfterSwitch(void* fake_stack) {
#if defined(EASYIO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, &t_switch_from->stack_bottom,
                                  &t_switch_from->stack_size);
#else
  (void)fake_stack;
#endif
}

// The first code a fresh context runs, with the Context* as its argument.
void ContextStart(void* p) {
  auto* ctx = static_cast<Context*>(p);
  AfterSwitch(nullptr);
  ctx->entry(ctx->arg);
  std::fprintf(stderr, "easyio: context entry function returned\n");
  std::abort();
}

// The architecture-independent half of MakeContext.
void PrepareContext(Context* ctx, void* stack_base, size_t stack_size,
                    ContextEntry entry, void* arg) {
  ctx->entry = entry;
  ctx->arg = arg;
#if defined(EASYIO_TSAN_FIBERS)
  ReleaseContext(ctx);
  ctx->tsan_fiber = __tsan_create_fiber(0);
  ctx->tsan_fiber_owned = true;
#endif
#if defined(EASYIO_ASAN_FIBERS)
  ctx->stack_bottom = stack_base;
  ctx->stack_size = stack_size;
#else
  (void)stack_base;
  (void)stack_size;
#endif
}

// Saves the running registers into `from` and resumes `to`; defined per
// architecture below.
void RawSwap(Context* from, Context* to);

}  // namespace

void SwapContext(Context* from, Context* to) {
  void* fake_stack = nullptr;
  BeforeSwitch(from, to, &fake_stack);
  RawSwap(from, to);
  AfterSwitch(fake_stack);
}

#if defined(EASYIO_ASAN_FIBERS)
// Reads another coroutine's frames, redzones included, so the loads must
// not be checked.
__attribute__((no_sanitize_address)) void AbandonContext(const Context* ctx) {
  auto* word = static_cast<void* const*>(ctx->stack_bottom);
  auto* const top = reinterpret_cast<void* const*>(
      static_cast<const std::byte*>(ctx->stack_bottom) + ctx->stack_size);
#if !defined(EASYIO_UCONTEXT)
  word = static_cast<void* const*>(ctx->sp);  // the frames live above it
#endif
  for (; word < top; ++word) {
    __lsan_ignore_object(*word);  // a no-op unless it points into the heap
  }
}
#else
void AbandonContext(const Context* ctx) { (void)ctx; }
#endif

void ExitToContext(Context* from, Context* to) {
  BeforeSwitch(from, to, nullptr);
  RawSwap(from, to);
  std::fprintf(stderr, "easyio: exited context resumed\n");
  std::abort();
}

#if defined(EASYIO_UCONTEXT)

namespace {
// makecontext only forwards int arguments portably, so the Context* rides
// in as two halves. (A per-thread pending slot does NOT work: several tasks
// are routinely MakeContext'd before the first one is switched into, and
// each stash would overwrite the last.)
void UcontextTrampoline(unsigned hi, unsigned lo) {
  ContextStart(reinterpret_cast<Context*>(
      (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo)));
}

void RawSwap(Context* from, Context* to) { swapcontext(&from->uc, &to->uc); }
}  // namespace

void MakeContext(Context* ctx, void* stack_base, size_t stack_size,
                 ContextEntry entry, void* arg) {
  getcontext(&ctx->uc);
  ctx->uc.uc_stack.ss_sp = stack_base;
  ctx->uc.uc_stack.ss_size = stack_size;
  ctx->uc.uc_link = nullptr;
  const auto p = reinterpret_cast<uintptr_t>(ctx);
  makecontext(&ctx->uc, reinterpret_cast<void (*)()>(UcontextTrampoline), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
  PrepareContext(ctx, stack_base, stack_size, entry, arg);
}

#elif defined(__x86_64__)

// Register layout pushed onto the coroutine stack by easyio_ctx_swap, from
// low to high address: r15 r14 r13 r12 rbx rbp rip.
//
// easyio_ctx_swap(from, to):
//   pushes callee-saved registers, stores rsp into from->sp, loads to->sp,
//   pops the registers back and returns into the target context.
//
// easyio_ctx_entry is the first "return address" of a fresh context. At that
// point r12 holds the Context* and r13 holds ContextStart (both planted by
// MakeContext); rsp is 16-byte aligned so the subsequent call
// leaves the callee with the ABI-required rsp%16==8 at entry.
asm(R"(
  .text
  .globl easyio_ctx_swap
  .type easyio_ctx_swap, @function
  .align 16
easyio_ctx_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq (%rsi), %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  retq
  .size easyio_ctx_swap, .-easyio_ctx_swap

  .globl easyio_ctx_entry
  .type easyio_ctx_entry, @function
  .align 16
easyio_ctx_entry:
  movq %r12, %rdi
  callq *%r13
  callq easyio_ctx_abort
  .size easyio_ctx_entry, .-easyio_ctx_entry

  .section .note.GNU-stack,"",@progbits
  .text
)");

extern "C" void easyio_ctx_swap(Context* from, Context* to);

extern "C" void easyio_ctx_abort() {
  std::fprintf(stderr, "easyio: context entry function returned\n");
  std::abort();
}

namespace {
void RawSwap(Context* from, Context* to) { easyio_ctx_swap(from, to); }
}  // namespace

void MakeContext(Context* ctx, void* stack_base, size_t stack_size,
                 ContextEntry entry, void* arg) {
  // Highest usable address, 16-byte aligned.
  auto top = reinterpret_cast<uintptr_t>(stack_base) + stack_size;
  top &= ~uintptr_t{15};

  // Frame (top-down): [entry rip] then the six register slots popped by
  // easyio_ctx_swap. Seven 8-byte slots => after the pops and ret, rsp == top,
  // which keeps the 16-byte alignment easyio_ctx_entry relies on.
  auto* frame = reinterpret_cast<uint64_t*>(top) - 7;
  frame[0] = 0;  // r15
  frame[1] = 0;  // r14
  frame[2] = reinterpret_cast<uint64_t>(&ContextStart);  // r13
  frame[3] = reinterpret_cast<uint64_t>(ctx);            // r12
  frame[4] = 0;  // rbx
  frame[5] = 0;  // rbp
  // The "return address" the first swap's retq jumps to.
  extern void easyio_ctx_entry_decl() asm("easyio_ctx_entry");
  frame[6] = reinterpret_cast<uint64_t>(&easyio_ctx_entry_decl);

  ctx->sp = frame;
  PrepareContext(ctx, stack_base, stack_size, entry, arg);
}

#elif defined(__aarch64__)

// Register layout stored on the coroutine stack by easyio_ctx_swap, from low
// to high address (20 slots, 160 bytes, keeps sp 16-byte aligned):
//   x19 x20 x21 x22 x23 x24 x25 x26 x27 x28 x29 x30 d8..d15
//
// easyio_ctx_entry is the first "return address" (x30 slot) of a fresh
// context. At that point x19 holds ContextStart and x20 the Context*, both
// planted by MakeContext and callee-saved across the swap.
asm(R"(
  .text
  .globl easyio_ctx_swap
  .type easyio_ctx_swap, %function
  .align 4
easyio_ctx_swap:
  sub sp, sp, #160
  stp x19, x20, [sp, #0]
  stp x21, x22, [sp, #16]
  stp x23, x24, [sp, #32]
  stp x25, x26, [sp, #48]
  stp x27, x28, [sp, #64]
  stp x29, x30, [sp, #80]
  stp d8, d9, [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mov x9, sp
  str x9, [x0]
  ldr x9, [x1]
  mov sp, x9
  ldp x19, x20, [sp, #0]
  ldp x21, x22, [sp, #16]
  ldp x23, x24, [sp, #32]
  ldp x25, x26, [sp, #48]
  ldp x27, x28, [sp, #64]
  ldp x29, x30, [sp, #80]
  ldp d8, d9, [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  add sp, sp, #160
  ret
  .size easyio_ctx_swap, .-easyio_ctx_swap

  .globl easyio_ctx_entry
  .type easyio_ctx_entry, %function
  .align 4
easyio_ctx_entry:
  mov x0, x20
  blr x19
  bl easyio_ctx_abort
  .size easyio_ctx_entry, .-easyio_ctx_entry

  .section .note.GNU-stack,"",%progbits
  .text
)");

extern "C" void easyio_ctx_swap(Context* from, Context* to);

extern "C" void easyio_ctx_abort() {
  std::fprintf(stderr, "easyio: context entry function returned\n");
  std::abort();
}

namespace {
void RawSwap(Context* from, Context* to) { easyio_ctx_swap(from, to); }
}  // namespace

void MakeContext(Context* ctx, void* stack_base, size_t stack_size,
                 ContextEntry entry, void* arg) {
  // Highest usable address, 16-byte aligned (AAPCS64 requires sp%16==0).
  auto top = reinterpret_cast<uintptr_t>(stack_base) + stack_size;
  top &= ~uintptr_t{15};

  auto* frame = reinterpret_cast<uint64_t*>(top) - 20;
  std::memset(frame, 0, 20 * sizeof(uint64_t));
  frame[0] = reinterpret_cast<uint64_t>(&ContextStart);  // x19
  frame[1] = reinterpret_cast<uint64_t>(ctx);            // x20
  extern void easyio_ctx_entry_decl() asm("easyio_ctx_entry");
  frame[11] = reinterpret_cast<uint64_t>(&easyio_ctx_entry_decl);  // x30

  ctx->sp = frame;
  PrepareContext(ctx, stack_base, stack_size, entry, arg);
}

#else
#error "No fast context switch for this architecture: build with -DEASYIO_UCONTEXT_FALLBACK=ON"
#endif

}  // namespace easyio::sim
