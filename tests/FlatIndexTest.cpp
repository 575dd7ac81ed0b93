//===- tests/FlatIndexTest.cpp - Differential tests of FlatIndex ----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks support/FlatIndex.h against std::unordered_map: seeded random
/// sequences of inserts, assigns, lookups and both kinds of erase, under
/// the real hash and under a degenerate one whose few tags all home near
/// the end of the slot array, so probe runs are long and wrap around.
/// Backward-shift deletion is where an open-addressing table goes wrong;
/// these tests also run under ASan+UBSan in tools/run_checks.sh.
///
//===----------------------------------------------------------------------===//

#include "support/FlatIndex.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <string>
#include <unordered_map>

using namespace dmb;

namespace {

struct Item {
  std::string Key;
  uint64_t Value = 0;
};

struct KeyOfItem {
  std::string_view operator()(const Item &I) const { return I.Key; }
};

/// Eight distinct tags, all of them homing in the last eight slots of any
/// array of at least 16: every key shares a handful of long clusters that
/// cross the end of the array.
struct DegenerateHash {
  size_t operator()(std::string_view Key) const {
    return 0xFFFFFFF8u | (std::hash<std::string_view>()(Key) & 7);
  }
};

template <typename Hash> using Table = FlatIndex<Item, KeyOfItem, Hash>;

/// Full cross-check: same size, every reference key found with its value,
/// and forEach visits exactly the reference's keys.
template <typename Hash>
void expectSame(const Table<Hash> &T,
                const std::unordered_map<std::string, uint64_t> &Ref) {
  ASSERT_EQ(Ref.size(), T.size());
  for (const auto &[K, V] : Ref) {
    const Item *I = T.find(K);
    ASSERT_NE(nullptr, I) << K;
    EXPECT_EQ(K, I->Key);
    EXPECT_EQ(V, I->Value) << K;
  }
  size_t Visited = 0;
  T.forEach([&](const Item &I) {
    ++Visited;
    auto It = Ref.find(I.Key);
    ASSERT_NE(Ref.end(), It) << I.Key;
    EXPECT_EQ(It->second, I.Value);
  });
  EXPECT_EQ(Ref.size(), Visited);
}

/// Random operations over a key universe of \p Keys names, checked op by
/// op against std::unordered_map and in full every 1000 ops.
template <typename Hash>
void runDifferential(uint64_t Seed, unsigned Ops, unsigned Keys) {
  Rng R(Seed);
  Table<Hash> T;
  std::unordered_map<std::string, uint64_t> Ref;
  auto KeyAt = [](uint64_t N) { return "/dir/key" + std::to_string(N); };
  for (unsigned Step = 0; Step < Ops; ++Step) {
    std::string K = KeyAt(R.below(Keys));
    switch (R.below(6)) {
    case 0:
    case 1: { // insert or assign
      uint64_t V = R.next();
      bool Fresh = Ref.find(K) == Ref.end();
      ASSERT_EQ(Fresh, T.insertOrAssign(Item{K, V}));
      Ref[K] = V;
      break;
    }
    case 2: { // lookup
      const Item *I = T.find(K);
      auto It = Ref.find(K);
      ASSERT_EQ(It != Ref.end(), I != nullptr) << K;
      if (I) {
        ASSERT_EQ(It->second, I->Value);
      }
      break;
    }
    case 3: // erase by key
      ASSERT_EQ(Ref.erase(K) == 1, T.erase(K)) << K;
      break;
    case 4: { // erase what a lookup found, when its value is odd
      auto F = T.locate(K);
      ASSERT_EQ(Ref.count(K) == 1, static_cast<bool>(F)) << K;
      if (F && (F.Value->Value & 1)) {
        T.erase(F);
        Ref.erase(K);
      }
      break;
    }
    case 5: // mutate through the returned pointer
      if (Item *I = T.find(K)) {
        I->Value += 1;
        Ref[K] += 1;
      }
      break;
    }
    ASSERT_EQ(Ref.size(), T.size());
    if (Step % 1000 == 999)
      expectSame(T, Ref);
    // A rare clear, so refilling an already-sized slot array is covered.
    if (Step == Ops / 2) {
      T.clear();
      Ref.clear();
      ASSERT_EQ(0u, T.size());
      ASSERT_EQ(nullptr, T.find(K));
    }
  }
  expectSame(T, Ref);
}

TEST(FlatIndex, MatchesUnorderedMapOnRandomOperations) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u})
    runDifferential<StringViewHash>(Seed, 30000, 4000);
}

TEST(FlatIndex, MatchesUnorderedMapUnderDegenerateHash) {
  for (uint64_t Seed : {11u, 12u, 13u, 14u})
    runDifferential<DegenerateHash>(Seed, 30000, 300);
}

TEST(FlatIndex, EraseTheOnlyValue) {
  Table<StringViewHash> T;
  EXPECT_FALSE(T.erase("a"));
  EXPECT_TRUE(T.insertOrAssign(Item{"a", 1}));
  EXPECT_TRUE(T.erase("a"));
  EXPECT_EQ(0u, T.size());
  EXPECT_EQ(nullptr, T.find("a"));
  EXPECT_TRUE(T.insertOrAssign(Item{"a", 2}));
  ASSERT_NE(nullptr, T.find("a"));
  EXPECT_EQ(2u, T.find("a")->Value);
}

TEST(FlatIndex, EraseTheLastAndAnEarlierValue) {
  Table<DegenerateHash> T;
  for (uint64_t I = 0; I < 5; ++I)
    ASSERT_TRUE(T.insertOrAssign(Item{"k" + std::to_string(I), I}));
  // "k4" is the last value in the dense vector: nothing moves into its hole.
  EXPECT_TRUE(T.erase("k4"));
  // "k0" is not: the last value moves into its place and its slot is
  // repointed.
  EXPECT_TRUE(T.erase("k0"));
  EXPECT_EQ(3u, T.size());
  for (uint64_t I = 1; I < 4; ++I) {
    const Item *It = T.find("k" + std::to_string(I));
    ASSERT_NE(nullptr, It);
    EXPECT_EQ(I, It->Value);
  }
  EXPECT_EQ(nullptr, T.find("k0"));
  EXPECT_EQ(nullptr, T.find("k4"));
}

TEST(FlatIndex, AssignKeepsOneValuePerKey) {
  Table<StringViewHash> T;
  EXPECT_TRUE(T.insertOrAssign(Item{"p", 1}));
  EXPECT_FALSE(T.insertOrAssign(Item{"p", 7}));
  EXPECT_EQ(1u, T.size());
  EXPECT_EQ(7u, T.find("p")->Value);
}

TEST(FlatIndex, GrowsAcrossManyDoublings) {
  // 8 slots at first, load at most 7/8: 20,000 keys take twelve doublings.
  Table<StringViewHash> T;
  for (uint64_t I = 0; I < 20000; ++I) {
    ASSERT_TRUE(T.insertOrAssign(Item{std::to_string(I), I * 3}));
    // Right after each doubling every earlier key must still be found.
    if ((I & (I + 1)) == 0 || I % 4096 == 0)
      for (uint64_t J = 0; J <= I; ++J) {
        const Item *It = T.find(std::to_string(J));
        ASSERT_NE(nullptr, It) << J << " after " << I;
        ASSERT_EQ(J * 3, It->Value);
      }
  }
  EXPECT_EQ(20000u, T.size());
  for (uint64_t I = 0; I < 20000; I += 2)
    ASSERT_TRUE(T.erase(std::to_string(I)));
  for (uint64_t I = 0; I < 20000; ++I)
    ASSERT_EQ(I % 2 == 1, T.find(std::to_string(I)) != nullptr) << I;
}

TEST(FlatIndex, LookupsTakeViewsIntoLongerStrings) {
  Table<StringViewHash> T;
  T.insertOrAssign(Item{"/a/b", 1});
  std::string Path = "/a/b/c";
  EXPECT_NE(nullptr, T.find(std::string_view(Path).substr(0, 4)));
  EXPECT_EQ(nullptr, T.find(std::string_view(Path).substr(0, 3)));
}

} // namespace
