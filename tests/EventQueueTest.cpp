//===- tests/EventQueueTest.cpp - Pending-event queue suite ---------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event queue's contract is exact order: it must pop entries in
/// strictly ascending 128-bit key order, at any horizon and under any tie
/// permutation, and the scheduler on top of it must keep that order with
/// cancellation in the mix. Queue-level tests check the heap's pop
/// sequence against a std::sort of the same adversarial key sets;
/// scheduler-level tests cover cancellation.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <memory>

using namespace dmb;

namespace {

// --- Queue-level order ---------------------------------------------------

/// Deterministic 64-bit mix (splitmix64 finalizer) for adversarial key
/// sets; stdlib randomness is banned in tests (dmeta-analyze's randomness
/// rule).
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

EventQueueEntry makeEntry(SimTime When, uint64_t Tie) {
  return EventQueueEntry{eventOrderKey(When, Tie), Tie,
                         static_cast<uint32_t>(Tie), 0};
}

/// Pushes \p Entries, drains the queue and checks the pop sequence
/// against a std::sort of the same keys: the key is a strict total order,
/// so exactly one pop order is correct.
void expectSortedPops(const std::vector<EventQueueEntry> &Entries) {
  EventQueue Q;
  std::vector<unsigned __int128> Want;
  for (const EventQueueEntry &E : Entries) {
    Q.push(E);
    Want.push_back(E.Key);
  }
  std::sort(Want.begin(), Want.end());
  ASSERT_EQ(Want.size(), Q.size());
  for (size_t J = 0; J < Want.size(); ++J)
    ASSERT_TRUE(Q.pop().Key == Want[J]) << "diverged at pop " << J;
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueue, MixedHorizonsPopInSortedKeyOrder) {
  std::vector<EventQueueEntry> Entries;
  uint64_t Tie = 0;
  for (unsigned I = 0; I < 2000; ++I) {
    uint64_t R = mix64(I);
    // Spread timestamps across radically different scales: same-tick,
    // sub-microsecond, milliseconds, seconds and far-future (byte 5+ set).
    SimTime When = 0;
    switch (I % 5) {
    case 0:
      When = 7;
      break;
    case 1:
      When = static_cast<SimTime>(R % 256);
      break;
    case 2:
      When = static_cast<SimTime>(R % 65536);
      break;
    case 3:
      When = static_cast<SimTime>(R % (1ULL << 32));
      break;
    case 4:
      When = static_cast<SimTime>(R % (1ULL << 56));
      break;
    }
    Entries.push_back(makeEntry(When, Tie++));
  }
  expectSortedPops(Entries);
}

TEST(EventQueue, SameTickTiesPopInKeyOrder) {
  // All entries share one timestamp; only the tie key differs, in a
  // scrambled (non-insertion) order.
  std::vector<EventQueueEntry> Entries;
  for (unsigned I = 0; I < 500; ++I)
    Entries.push_back(makeEntry(milliseconds(3), mix64(I)));
  expectSortedPops(Entries);
}

TEST(EventQueue, FarFutureKeysPopInSortedKeyOrder) {
  // Seconds- and hours-scale entries mixed with nanosecond ones, including
  // a same-tick pair far in the future: near-term entries go first and the
  // far ones still drain in exact key order.
  std::vector<EventQueueEntry> Entries;
  uint64_t Tie = 0;
  Entries.push_back(makeEntry(seconds(3600.0), Tie++));
  Entries.push_back(makeEntry(5, Tie++));
  Entries.push_back(makeEntry(seconds(1.0), Tie++));
  Entries.push_back(makeEntry(seconds(3600.0), Tie++)); // same-tick pair
  Entries.push_back(makeEntry(200, Tie++));
  Entries.push_back(makeEntry(seconds(7200.0), Tie++));
  expectSortedPops(Entries);
}

// --- Cancellation --------------------------------------------------------

TEST(EventQueueCancel, CancelledEventDoesNotFire) {
  Scheduler S;
  int Fired = 0;
  EventId Id = S.after(milliseconds(5), [&Fired] { Fired += 100; });
  S.after(milliseconds(5), [&Fired] { ++Fired; });
  EXPECT_EQ(2u, S.pendingEvents());
  EXPECT_TRUE(S.cancel(Id));
  EXPECT_EQ(1u, S.pendingEvents());
  EXPECT_FALSE(S.cancel(Id)); // stale handle: single-use
  S.run();
  EXPECT_EQ(1, Fired);
  EXPECT_EQ(2u, S.executedEvents() + 1); // tombstone never executed
}

TEST(EventQueueCancel, CancelThenRescheduleKeepsExactOrder) {
  // Cancelling must not disturb the order of survivors, and a new event
  // that recycles the cancelled slot must fire normally.
  Scheduler S;
  std::vector<int> Order;
  S.at(milliseconds(1), [&Order] { Order.push_back(1); });
  EventId Doomed = S.at(seconds(100.0), [&Order] { Order.push_back(-1); });
  S.at(milliseconds(2), [&Order] { Order.push_back(2); });
  EXPECT_TRUE(S.cancel(Doomed));
  // Rescheduled: recycles Doomed's pool slot at a fresh generation.
  S.at(seconds(100.0), [&Order] { Order.push_back(3); });
  S.at(milliseconds(3), [&Order] { Order.push_back(4); });
  S.run();
  EXPECT_EQ((std::vector<int>{1, 2, 4, 3}), Order);
  EXPECT_TRUE(S.checkQuiescent().clean());
}

TEST(EventQueueCancel, DefaultAndStaleHandlesAreNoOps) {
  Scheduler S;
  EXPECT_FALSE(S.cancel(EventId()));
  int Fired = 0;
  EventId Id = S.after(0, [&Fired] { ++Fired; });
  S.run();
  EXPECT_EQ(1, Fired);
  EXPECT_FALSE(S.cancel(Id)); // already fired
}

// Regression (pre-fix failing): a cancelled event's payload used to stay
// alive inside the pool until its queue entry surfaced — for a far-horizon
// timer, essentially forever. cancel() must destroy the captured closure
// immediately and recycle the slot without growing the pool.
TEST(EventQueueCancel, CancelReleasesPayloadImmediatelyAtFarHorizon) {
  Scheduler S;
  auto Payload = std::make_shared<int>(7);
  EventId Id = S.at(seconds(86400.0), [Payload] { (void)*Payload; });
  EXPECT_EQ(2, Payload.use_count());
  EXPECT_TRUE(S.cancel(Id));
  // The closure (and its shared_ptr ref) is gone NOW, not at t=86400s.
  EXPECT_EQ(1, Payload.use_count());
}

TEST(EventQueueCancel, ScheduleCancelChurnDoesNotGrowThePool) {
  Scheduler S;
  // Keep one real event so the run has work to do.
  int Fired = 0;
  S.after(milliseconds(1), [&Fired] { ++Fired; });
  for (unsigned I = 0; I < 10000; ++I) {
    EventId Id = S.at(seconds(86400.0) + I, [] {});
    ASSERT_TRUE(S.cancel(Id));
  }
  // Each cancel recycles its slot at once, so churn reuses one slot
  // instead of allocating ten thousand.
  EXPECT_LE(S.eventPoolCapacity(), 4u);
  EXPECT_EQ(1u, S.pendingEvents());
  S.runUntil(milliseconds(2));
  EXPECT_EQ(1, Fired);
  EXPECT_EQ(0u, S.pendingEvents());
}

} // namespace
