//===- support/IdTable.h - Tables keyed by ascending ids --------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two small containers for state that the operation path keys by an id
/// it hands out itself, in place of node-based maps that allocated one
/// node per entry:
///
///  - IdTable holds values keyed by ids that are inserted in ascending
///    order (write-behind op ids, client file handles, journal sequence
///    numbers). It is a power-of-two ring over the window from the oldest
///    live id to the newest: lookup is an index computation, erasing the
///    oldest entry slides the window forward past every dead slot, and
///    iteration by id is ascending order for free. The window spans dead
///    ids between live ones, so the table suits entries that die roughly
///    in the order they were born.
///
///  - SlotTable parks a value (a callback, a reply) under a small index, so
///    that a scheduled closure can capture the index instead of the value:
///    a closure that carried a whole callback inside another one outgrew
///    the scheduler's inline event storage and was boxed on the heap.
///    Freed indexes are reused, so a table settles at its peak occupancy.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_IDTABLE_H
#define DMETABENCH_SUPPORT_IDTABLE_H

#include "support/Assert.h"
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace dmb {

/// Values keyed by ids inserted in ascending order. Pointers from find()
/// are valid until the next insert().
template <typename T> class IdTable {
public:
  /// The value stored under \p Id; nullptr when absent or erased.
  T *find(uint64_t Id) {
    if (Id < Base || Id - Base >= Count)
      return nullptr;
    std::optional<T> &S = slot(Id);
    return S ? &*S : nullptr;
  }
  const T *find(uint64_t Id) const {
    return const_cast<IdTable *>(this)->find(Id);
  }

  /// Stores \p Value under \p Id, which must be above every id inserted
  /// while the table was non-empty.
  T &insert(uint64_t Id, T Value) {
    if (Count == 0)
      Base = Id;
    DMB_ASSERT(Id >= Base + Count, "IdTable: ids must be inserted ascending");
    size_t Need = static_cast<size_t>(Id - Base) + 1;
    if (Need > Ring.size())
      grow(Need);
    Count = Need;
    std::optional<T> &S = slot(Id);
    S.emplace(std::move(Value));
    return *S;
  }

  /// Removes the value under \p Id; returns false when absent.
  bool erase(uint64_t Id) {
    T *V = find(Id);
    if (!V)
      return false;
    slot(Id).reset();
    // Slide the window past the dead prefix.
    while (Count && !Ring[Head]) {
      Head = (Head + 1) & (Ring.size() - 1);
      ++Base;
      --Count;
    }
    return true;
  }

  /// The window [firstId(), endId()) holds every live id, ascending.
  uint64_t firstId() const { return Base; }
  uint64_t endId() const { return Base + Count; }

private:
  std::optional<T> &slot(uint64_t Id) {
    return Ring[(Head + static_cast<size_t>(Id - Base)) & (Ring.size() - 1)];
  }

  void grow(size_t Need) {
    size_t Cap = Ring.empty() ? 8 : Ring.size();
    while (Cap < Need)
      Cap *= 2;
    std::vector<std::optional<T>> Bigger(Cap);
    for (size_t I = 0; I < Count; ++I)
      Bigger[I] = std::move(Ring[(Head + I) & (Ring.size() - 1)]);
    Ring = std::move(Bigger);
    Head = 0;
  }

  std::vector<std::optional<T>> Ring; ///< empty, or a power of two long
  uint64_t Base = 0;                  ///< id of the slot at Head
  size_t Head = 0;
  size_t Count = 0; ///< window length, dead slots included
};

/// Values parked under reusable indexes.
template <typename T> class SlotTable {
public:
  /// Parks \p Value; returns its index.
  uint32_t put(T &&Value) {
    if (Free.empty()) {
      Slots.push_back(std::move(Value));
      return static_cast<uint32_t>(Slots.size() - 1);
    }
    uint32_t I = Free.back();
    Free.pop_back();
    Slots[I] = std::move(Value);
    return I;
  }

  /// Removes and returns the value parked under \p I.
  T take(uint32_t I) {
    DMB_ASSERT(I < Slots.size(), "SlotTable: index out of range");
    T Value = std::move(Slots[I]);
    Free.push_back(I);
    return Value;
  }

private:
  std::vector<T> Slots;
  std::vector<uint32_t> Free;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_IDTABLE_H
