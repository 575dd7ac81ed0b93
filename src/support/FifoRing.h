//===- support/FifoRing.h - Growable FIFO ring ------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A first-in first-out queue on a power-of-two ring over one vector,
/// starting at zero capacity and doubling when full. It serves the queues
/// of the operation path that fill and drain all the time (requests
/// waiting for an RPC slot, for a server CPU, for room in a write-behind
/// queue): a std::deque there allocates a chunk every few elements as the
/// queue cycles, and allocates its first ~0.5 KB chunk on construction,
/// which at 10^5+ mounted clients is tens of megabytes for queues that are
/// empty almost always. The ring allocates only when it outgrows its peak
/// and never shrinks.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_FIFORING_H
#define DMETABENCH_SUPPORT_FIFORING_H

#include <cstddef>
#include <utility>
#include <vector>

namespace dmb {

template <typename T> class FifoRing {
public:
  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  void push(T Value) {
    if (Count == Ring.size())
      grow();
    Ring[(Head + Count) & (Ring.size() - 1)] = std::move(Value);
    ++Count;
  }

  /// Removes and returns the oldest element; the ring must not be empty.
  T pop() {
    T Value = std::move(Ring[Head]);
    Head = (Head + 1) & (Ring.size() - 1);
    --Count;
    return Value;
  }

private:
  void grow() {
    size_t NewCap = Ring.empty() ? 4 : Ring.size() * 2;
    std::vector<T> Bigger(NewCap);
    for (size_t I = 0; I < Count; ++I)
      Bigger[I] = std::move(Ring[(Head + I) & (Ring.size() - 1)]);
    Ring = std::move(Bigger);
    Head = 0;
  }

  std::vector<T> Ring;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_FIFORING_H
