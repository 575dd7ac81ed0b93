//===- sim/InplaceFunction.h - SBO callback for the event loop --*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small-buffer-optimized, move-only callable wrapper: the storage type
/// of every scheduled event (Scheduler::Action) and of every reply
/// callback (ReplyCallback, dfs/Message.h). std::function's inline
/// buffer (16 bytes in libstdc++) is too small for a typical simulation
/// event capture (an object pointer, a trace id and a couple of values),
/// so the default scheduler heap-allocated nearly every event. With 64
/// bytes of inline storage the steady-state hot path — RPC hops, resource
/// grants, timer callbacks — allocates nothing; oversized closures (e.g.
/// ones carrying a whole MetaRequest) transparently fall back to the heap
/// exactly as before.
///
/// Move-only on purpose: events are scheduled once and consumed once, and
/// move-only storage also admits move-only captures, which std::function
/// rejects. Relocation empties the source, so a moved-from instance is
/// falsy and destructible but must not be invoked.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_INPLACEFUNCTION_H
#define DMETABENCH_SIM_INPLACEFUNCTION_H

#include "support/Assert.h"
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dmb {

template <typename Signature, size_t Capacity = 64> class InplaceFunction;

template <typename R, typename... Args, size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
public:
  InplaceFunction() = default;

  /// Wraps any callable. Fits-inline callables are constructed in the
  /// internal buffer; larger (or over-aligned) ones are boxed on the heap.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InplaceFunction> &&
                std::is_invocable_r_v<R, D &, Args...>>>
  InplaceFunction(F &&Fn) {
    emplace(std::forward<F>(Fn));
  }

  /// Destroys the current callable (if any) and constructs \p Fn directly
  /// in place — the zero-relocation path the scheduler's event pool uses
  /// when recycling slots.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InplaceFunction> &&
                std::is_invocable_r_v<R, D &, Args...>>>
  void emplace(F &&Fn) {
    reset();
    if constexpr (fitsInline<D>()) {
      ::new (static_cast<void *>(Buf)) D(std::forward<F>(Fn));
      VT = &inlineVTable<D>;
    } else {
      ::new (static_cast<void *>(Buf)) D *(new D(std::forward<F>(Fn)));
      VT = &heapVTable<D>;
    }
  }

  InplaceFunction(InplaceFunction &&Other) noexcept { moveFrom(Other); }

  InplaceFunction &operator=(InplaceFunction &&Other) noexcept {
    if (this != &Other) {
      reset();
      moveFrom(Other);
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction &) = delete;
  InplaceFunction &operator=(const InplaceFunction &) = delete;

  ~InplaceFunction() { reset(); }

  /// Const like std::function's: a callback held by a non-mutable lambda
  /// stays callable. The target itself may mutate its state.
  R operator()(Args... A) const {
    DMB_ASSERT(VT, "calling an empty InplaceFunction");
    return VT->Call(Buf, std::forward<Args>(A)...);
  }

  explicit operator bool() const { return VT != nullptr; }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (VT) {
      VT->Destroy(Buf);
      VT = nullptr;
    }
  }

  /// True when \p D is stored in the inline buffer rather than boxed.
  /// Exposed so tests (and benches) can pin what the hot path allocates.
  template <typename D> static constexpr bool fitsInline() {
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

private:
  struct VTable {
    R (*Call)(void *, Args &&...);
    /// Move-constructs the callable into raw storage \p Dst and destroys
    /// the source — relocation, so moved-from instances become empty.
    void (*RelocateTo)(void *Src, void *Dst);
    void (*Destroy)(void *);
  };

  template <typename D> static constexpr VTable inlineVTable = {
      [](void *P, Args &&...A) -> R {
        return (*static_cast<D *>(P))(std::forward<Args>(A)...);
      },
      [](void *Src, void *Dst) {
        D *S = static_cast<D *>(Src);
        ::new (Dst) D(std::move(*S));
        S->~D();
      },
      [](void *P) { static_cast<D *>(P)->~D(); },
  };

  template <typename D> static constexpr VTable heapVTable = {
      [](void *P, Args &&...A) -> R {
        return (**static_cast<D **>(P))(std::forward<Args>(A)...);
      },
      [](void *Src, void *Dst) {
        // Boxed: relocation just steals the pointer.
        ::new (Dst) D *(*static_cast<D **>(Src));
      },
      [](void *P) { delete *static_cast<D **>(P); },
  };

  void moveFrom(InplaceFunction &Other) noexcept {
    if (Other.VT) {
      Other.VT->RelocateTo(Other.Buf, Buf);
      VT = Other.VT;
      Other.VT = nullptr;
    }
  }

  const VTable *VT = nullptr;
  alignas(std::max_align_t) mutable unsigned char Buf[Capacity];
};

} // namespace dmb

#endif // DMETABENCH_SIM_INPLACEFUNCTION_H
