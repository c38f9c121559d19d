// Type-erased move-only `void()` callable with small-buffer optimization.
//
// Like `std::function<void()>` but accepts non-copyable captures, which lets
// simulator events own the objects they deliver (e.g. a packet in flight on a
// link's propagation stage). Ownership matters at shutdown: when
// `run_until(t)` cuts a run with events still pending, their captures are
// destroyed with the event queue instead of leaking.
//
// Captures up to kInlineCaptureBytes are stored in-place; the simulator's
// common closure shapes (a `this` pointer plus a couple of scalars, or an
// owned PacketPtr) then cost no heap allocation per scheduled event.  Larger
// or over-aligned captures fall back to the heap transparently.
//
// Dispatch is by plain function pointers rather than a vtable, so a null
// `destroy_` / `relocate_` can mark a capture that needs neither: a
// trivially relocatable capture — see is_trivially_relocatable_v below —
// moves as a fixed-size memcpy of the inline buffer with no indirect call at
// all.  (A scheduled event's closure moves once, into its slot in the
// simulator's closure slab, and later runs there in place.)
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ufab {

/// True when T can be moved by copying its bytes and then abandoning the
/// source without running its destructor.  Defaults to trivially-copyable;
/// specialize it for move-only types whose members are all bare
/// pointers/scalars (e.g. the link propagation event that owns a PacketPtr).
template <typename T>
inline constexpr bool is_trivially_relocatable_v = std::is_trivially_copyable_v<T>;

class UniqueFunction {
 public:
  /// Captures at most this large (and at most max_align_t-aligned, nothrow
  /// move constructible) are stored inline.
  static constexpr std::size_t kInlineCaptureBytes = 48;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, UniqueFunction>>>
  UniqueFunction(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::decay_t<F>;
    call_ = &invoke_impl<D>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(payload_.bytes)) D(std::forward<F>(fn));
      inline_ = true;
      if constexpr (!std::is_trivially_destructible_v<D>) {
        destroy_ = [](void* obj) noexcept { static_cast<D*>(obj)->~D(); };
      }
      if constexpr (!is_trivially_relocatable_v<D>) {
        relocate_ = [](void* src, void* dst) noexcept {
          D* s = static_cast<D*>(src);
          ::new (dst) D(std::move(*s));
          s->~D();
        };
      }
    } else {
      payload_.heap = new D(std::forward<F>(fn));
      destroy_ = [](void* obj) noexcept { delete static_cast<D*>(obj); };
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { steal(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { destroy(); }

  void operator()() { call_(obj()); }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

  /// Destroys the capture, leaving this empty.
  void reset() noexcept { destroy(); }

  /// True when the capture lives in the inline buffer (tests / benchmarks).
  [[nodiscard]] bool is_inline() const { return call_ != nullptr && inline_; }

  /// Whether a callable of type F would be stored inline (compile-time).
  template <typename F>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineCaptureBytes && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  /// True when this callable wraps exactly a `D` (after decay).  Dispatch
  /// goes through one `invoke_impl` instantiation per capture type, so the
  /// check is a function-pointer compare — the engine profiler uses it to
  /// classify events (packet delivery vs generic closure) without adding a
  /// tag byte to every event.
  template <typename D>
  [[nodiscard]] bool invokes() const {
    return call_ == &invoke_impl<std::decay_t<D>>;
  }

 private:
  using Call = void (*)(void*);

  template <typename D>
  static void invoke_impl(void* obj) {
    (*static_cast<D*>(obj))();
  }
  using Destroy = void (*)(void*) noexcept;
  using Relocate = void (*)(void* src, void* dst) noexcept;

  /// Inline capture buffer, or the heap pointer for spilled captures.
  union Payload {
    alignas(std::max_align_t) unsigned char bytes[kInlineCaptureBytes];
    void* heap;
  };

  [[nodiscard]] void* obj() { return inline_ ? static_cast<void*>(payload_.bytes) : payload_.heap; }

  void steal(UniqueFunction& other) noexcept {
    call_ = other.call_;
    destroy_ = other.destroy_;
    relocate_ = other.relocate_;
    inline_ = other.inline_;
    if (call_ != nullptr) {
      if (!inline_) {
        payload_.heap = other.payload_.heap;
      } else if (relocate_ != nullptr) {
        relocate_(other.payload_.bytes, payload_.bytes);
      } else {
        // Trivially relocatable: a fixed-size copy the compiler turns into a
        // few wide moves; the source is abandoned, not destroyed.
        std::memcpy(payload_.bytes, other.payload_.bytes, kInlineCaptureBytes);
      }
    }
    other.call_ = nullptr;
    other.destroy_ = nullptr;
    other.relocate_ = nullptr;
    other.inline_ = false;
  }

  void destroy() noexcept {
    if (destroy_ != nullptr) destroy_(obj());
    call_ = nullptr;
    destroy_ = nullptr;
    relocate_ = nullptr;
    inline_ = false;
  }

  Payload payload_;
  Call call_ = nullptr;
  Destroy destroy_ = nullptr;
  Relocate relocate_ = nullptr;
  bool inline_ = false;
};

}  // namespace ufab
