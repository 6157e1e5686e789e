// SmallFn: a move-only callable wrapper tuned for the simulation kernel's
// event dispatch path.
//
// The hot event shapes — `[this, core]`, `[this, t]`, `[this, gen]` — are two
// or three words. std::function stores those inline too, but its dispatch
// goes through a manager function designed for copyability and RTTI
// (target_type) that this kernel never uses. SmallFn keeps exactly two
// raw function pointers (invoke, manage) next to a fixed inline buffer:
// construction is a placement-new, a call is one indirect call, and a
// move is a memcpy-sized move-construct. An inline callable that is
// trivially copyable and destructible (a capture of pointers and integers,
// as every simulator event is) has no manager at all: a move copies the
// buffer and destruction does nothing. Callables larger than the buffer
// fall back to a single heap cell so the public Schedule* API keeps
// accepting arbitrary captures; every capture in the simulator itself fits
// inline (static buffer of kSmallFnInline bytes, see static_assert use in
// simulation.cc).
//
// Not thread-safe, like everything else in sim:: — a SmallFn belongs to the
// simulation that created it.

#ifndef EASYIO_SIM_SMALL_FN_H_
#define EASYIO_SIM_SMALL_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace easyio::sim {

inline constexpr size_t kSmallFnInline = 48;

template <typename Sig, size_t kInline = kSmallFnInline>
class SmallFn;

template <typename R, typename... Args, size_t kInline>
class SmallFn<R(Args...), kInline> {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT: implicit, mirrors std::function
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInline && alignof(D) <= alignof(Storage) &&
                  std::is_nothrow_move_constructible_v<D>) {
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        std::memset(buf_, 0, kInline);  // a move copies the whole buffer
      } else {
        manage_ = &InlineManage<D>;
      }
      new (buf_) D(std::forward<F>(f));
      invoke_ = &InlineInvoke<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      invoke_ = &HeapInvoke<D>;
      manage_ = &HeapManage<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFn& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn& operator=(F&& f) {
    SmallFn tmp(std::forward<F>(f));
    Reset();
    MoveFrom(tmp);
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(const_cast<unsigned char*>(buf_),
                   std::forward<Args>(args)...);
  }

 private:
  struct alignas(std::max_align_t) Storage {
    unsigned char bytes[kInline];
  };
  using InvokeFn = R (*)(void*, Args&&...);
  // src != nullptr: move-construct dst's payload from src's (src is left
  // destructible). src == nullptr: destroy dst's payload. Null for a
  // trivial inline payload.
  using ManageFn = void (*)(void* dst, void* src);

  template <typename D>
  static R InlineInvoke(void* p, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(p)))(
        std::forward<Args>(args)...);
  }
  template <typename D>
  static void InlineManage(void* dst, void* src) {
    if (src != nullptr) {
      new (dst) D(std::move(*std::launder(reinterpret_cast<D*>(src))));
    } else {
      std::launder(reinterpret_cast<D*>(dst))->~D();
    }
  }

  template <typename D>
  static R HeapInvoke(void* p, Args&&... args) {
    return (**reinterpret_cast<D**>(p))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void HeapManage(void* dst, void* src) {
    if (src != nullptr) {
      *reinterpret_cast<D**>(dst) =
          std::exchange(*reinterpret_cast<D**>(src), nullptr);
    } else {
      delete *reinterpret_cast<D**>(dst);
    }
  }

  void MoveFrom(SmallFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(buf_, other.buf_);
      other.manage_(other.buf_, nullptr);
    } else if (invoke_ != nullptr) {
      std::memcpy(buf_, other.buf_, kInline);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(buf_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(Storage) unsigned char buf_[kInline];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace easyio::sim

#endif  // EASYIO_SIM_SMALL_FN_H_
