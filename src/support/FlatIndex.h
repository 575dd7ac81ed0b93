//===- support/FlatIndex.h - Dense string-keyed hash table ------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash table for the path- and name-keyed metadata maps on the
/// operation path (attribute cache, hashed directories, write-behind path
/// indexes). Values live in one compact vector; erase moves the last value
/// into the hole. Beside it sits an open-addressing index of 8-byte slots,
/// each a 32-bit hash tag and a 32-bit value index: power-of-two capacity,
/// linear probing, load at most 7/8, backward-shift deletion with no
/// tombstones. The key is a field of the value (\p KeyOf extracts it as a
/// view), so each name is stored once.
///
/// A lookup touches the contiguous probe run and then one value, where a
/// node-based std::unordered_map chains bucket -> previous node -> node ->
/// heap key, one likely cache miss per hop. Iteration order (forEach) is
/// the order of the value vector, which erase permutes; callers must never
/// let it become observable.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_FLATINDEX_H
#define DMETABENCH_SUPPORT_FLATINDEX_H

#include "support/Assert.h"
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace dmb {

/// The default key hash: std::hash over the key's characters.
struct StringViewHash {
  size_t operator()(std::string_view Key) const {
    return std::hash<std::string_view>()(Key);
  }
};

/// Table of \p T values keyed by the string view \p KeyOf returns for each.
/// A pointer from find() or locate() is valid only until the next
/// insertOrAssign(), erase() or clear().
template <typename T, typename KeyOf, typename Hash = StringViewHash>
class FlatIndex {
public:
  /// A located value and the probe slot naming it, so the caller can
  /// erase what it found without hashing the key again.
  struct Found {
    T *Value = nullptr;
    uint32_t Slot = 0;
    explicit operator bool() const { return Value != nullptr; }
  };

  Found locate(std::string_view Key) {
    uint32_t S = probe(Key, tagOf(Key));
    if (S == NoSlot || Slots[S].Index == Empty)
      return {};
    return {&Values[Slots[S].Index], S};
  }

  T *find(std::string_view Key) { return locate(Key).Value; }
  const T *find(std::string_view Key) const {
    uint32_t S = probe(Key, tagOf(Key));
    if (S == NoSlot || Slots[S].Index == Empty)
      return nullptr;
    return &Values[Slots[S].Index];
  }

  /// Stores \p Value, replacing any value with the same key. Returns true
  /// when the key was new.
  bool insertOrAssign(T Value) {
    std::string_view Key = KeyOf()(Value);
    uint32_t Tag = tagOf(Key);
    uint32_t S = probe(Key, Tag);
    if (S != NoSlot && Slots[S].Index != Empty) {
      Values[Slots[S].Index] = std::move(Value);
      return false;
    }
    if ((Values.size() + 1) * 8 > Slots.size() * 7) {
      grow();
      S = emptySlotFor(Tag);
    }
    DMB_ASSERT(Values.size() < Empty, "FlatIndex: too many values");
    Slots[S] = {Tag, static_cast<uint32_t>(Values.size())};
    Values.push_back(std::move(Value));
    return true;
  }

  /// Removes a value located since the last mutation.
  void erase(Found F) {
    DMB_ASSERT(F && Slots[F.Slot].Index ==
                        static_cast<uint32_t>(F.Value - Values.data()),
               "FlatIndex::erase: stale Found");
    uint32_t Idx = Slots[F.Slot].Index;
    uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
    // Backward shift (Knuth's Algorithm R): walk the run after the hole
    // and pull back each slot whose home is not cyclically in
    // (Hole, J]. Only slots are read; the home comes from the tag.
    uint32_t Hole = F.Slot;
    for (uint32_t J = (Hole + 1) & Mask; Slots[J].Index != Empty;
         J = (J + 1) & Mask) {
      uint32_t Home = Slots[J].Tag & Mask;
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole].Index = Empty;
    // Keep the values dense: the last value fills the hole, and the slot
    // naming it is repointed.
    uint32_t Last = static_cast<uint32_t>(Values.size()) - 1;
    if (Idx != Last) {
      uint32_t S = tagOf(KeyOf()(Values[Last])) & Mask;
      while (Slots[S].Index != Last)
        S = (S + 1) & Mask;
      Slots[S].Index = Idx;
      Values[Idx] = std::move(Values[Last]);
    }
    Values.pop_back();
  }

  /// Removes the value keyed \p Key. Returns false when absent.
  bool erase(std::string_view Key) {
    Found F = locate(Key);
    if (!F)
      return false;
    erase(F);
    return true;
  }

  void clear() {
    Values.clear();
    for (Slot &S : Slots)
      S.Index = Empty;
  }

  size_t size() const { return Values.size(); }

  /// Calls \p Fn on every value, in an unspecified order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const T &V : Values)
      F(V);
  }

private:
  struct Slot {
    uint32_t Tag = 0;
    uint32_t Index = Empty;
  };
  static constexpr uint32_t Empty = ~0u;
  static constexpr uint32_t NoSlot = ~0u;

  static uint32_t tagOf(std::string_view Key) {
    uint64_t H = Hash()(Key);
    return static_cast<uint32_t>(H ^ (H >> 32));
  }

  /// The slot holding \p Key, or the empty slot ending its probe run;
  /// NoSlot before the first insert.
  uint32_t probe(std::string_view Key, uint32_t Tag) const {
    if (Slots.empty())
      return NoSlot;
    uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
    for (uint32_t S = Tag & Mask;; S = (S + 1) & Mask) {
      const Slot &Sl = Slots[S];
      if (Sl.Index == Empty ||
          (Sl.Tag == Tag && KeyOf()(Values[Sl.Index]) == Key))
        return S;
    }
  }

  uint32_t emptySlotFor(uint32_t Tag) const {
    uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
    uint32_t S = Tag & Mask;
    while (Slots[S].Index != Empty)
      S = (S + 1) & Mask;
    return S;
  }

  /// Doubles the slot array (8 at first) and re-places every slot by its
  /// tag; no key is read or hashed again.
  void grow() {
    size_t NewSize = Slots.empty() ? 8 : Slots.size() * 2;
    DMB_ASSERT(NewSize <= (size_t(1) << 32), "FlatIndex: index overflow");
    std::vector<Slot> Old(NewSize);
    Old.swap(Slots);
    for (const Slot &Sl : Old)
      if (Sl.Index != Empty)
        Slots[emptySlotFor(Sl.Tag)] = Sl;
  }

  std::vector<T> Values;
  std::vector<Slot> Slots;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_FLATINDEX_H
