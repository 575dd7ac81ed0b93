//===- tests/ScheduleTest.cpp - Concurrency-correctness suite -------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the three opt-in concurrency analyzers: schedule
/// perturbation + verifySchedules(), the lock-order deadlock analyzer and
/// the happens-before race tracker. The tier-1 invariance tests at the
/// bottom rerun real benchmark scenarios under permuted schedules and
/// assert the canonical results are bit-identical — the same check
/// `dmetabench verify-schedules` runs from the CLI.
///
//===----------------------------------------------------------------------===//

#include "analysis/Preprocess.h"
#include "dmetabench/DMetabench.h"
#include "sim/Mutex.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>

using namespace dmb;

namespace {

/// Runs \p N same-timestamp events and returns the order they fired in.
std::vector<unsigned> tieOrder(unsigned N, bool Perturb, uint64_t Seed) {
  Scheduler S;
  if (Perturb)
    S.enableSchedulePerturbation(Seed);
  std::vector<unsigned> Order;
  for (unsigned I = 0; I < N; ++I)
    S.at(milliseconds(1), [&Order, I] { Order.push_back(I); });
  S.run();
  return Order;
}

TEST(SchedulePerturbation, NonzeroSeedPermutesSameTimestampTies) {
  std::vector<unsigned> Default = tieOrder(16, false, 0);
  std::vector<unsigned> Identity(16);
  std::iota(Identity.begin(), Identity.end(), 0u);
  EXPECT_EQ(Identity, Default); // insertion order by default

  std::vector<unsigned> Permuted = tieOrder(16, true, 12345);
  EXPECT_NE(Identity, Permuted); // ties actually reordered
  std::vector<unsigned> Sorted = Permuted;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Identity, Sorted); // ...but it is a permutation, nothing lost

  // The same seed reproduces the same schedule; a different seed is free
  // to (and here does) pick a different one.
  EXPECT_EQ(Permuted, tieOrder(16, true, 12345));
  EXPECT_NE(Permuted, tieOrder(16, true, 54321));
}

TEST(SchedulePerturbation, SeedZeroIsTheIdentityPermutation) {
  // Satellite: perturbation-with-identity must be bit-identical to the
  // default scheduler — same order, same journal, and the seed state
  // must not leak into determinism-relevant observables.
  std::vector<unsigned> Identity(16);
  std::iota(Identity.begin(), Identity.end(), 0u);
  EXPECT_EQ(Identity, tieOrder(16, true, 0));

  Scheduler A, B;
  B.enableSchedulePerturbation(0);
  EXPECT_FALSE(A.perturbingSchedules());
  EXPECT_FALSE(B.perturbingSchedules());
  A.enableEventJournal();
  B.enableEventJournal();
  for (Scheduler *S : {&A, &B}) {
    S->at(milliseconds(2), [] {});
    S->at(milliseconds(1), [] {});
    S->at(milliseconds(1), [] {});
    S->run();
  }
  EXPECT_TRUE(A.eventJournal() == B.eventJournal());
  EXPECT_EQ(A.checkQuiescent().render(), B.checkQuiescent().render());
}

TEST(SchedulePerturbation, TimeOrderIsNeverPermuted) {
  // Perturbation breaks ties only; events at distinct timestamps keep
  // their clock order under every seed.
  for (uint64_t Seed : {1u, 7u, 99u}) {
    Scheduler S;
    S.enableSchedulePerturbation(Seed);
    std::vector<int> Order;
    S.at(milliseconds(3), [&Order] { Order.push_back(3); });
    S.at(milliseconds(1), [&Order] { Order.push_back(1); });
    S.at(milliseconds(2), [&Order] { Order.push_back(2); });
    S.run();
    EXPECT_EQ((std::vector<int>{1, 2, 3}), Order) << "seed " << Seed;
  }
}

TEST(SchedulePerturbation, JournalRecordsEveryExecutedEvent) {
  Scheduler S;
  S.enableEventJournal();
  S.at(milliseconds(1), [&S] { S.after(milliseconds(1), [] {}); });
  S.at(milliseconds(1), [] {});
  S.run();
  ASSERT_EQ(3u, S.eventJournal().size());
  EXPECT_EQ(S.executedEvents(), S.eventJournal().size());
  EXPECT_EQ(milliseconds(1), S.eventJournal()[0].When);
  EXPECT_EQ(0u, S.eventJournal()[0].Seq);
  EXPECT_EQ(milliseconds(2), S.eventJournal()[2].When);
}

TEST(SchedulePerturbationDeathTest, EnablingMidRunIsFatal) {
  Scheduler S;
  S.at(milliseconds(1), [] {});
  EXPECT_DEATH(S.enableSchedulePerturbation(7),
               "before any event is scheduled");
}

// --- verifySchedules -----------------------------------------------------

TEST(VerifySchedules, OrderIndependentScenarioPasses) {
  ScheduleScenario Sc;
  Sc.Name = "commutative-sum";
  Sc.Run = [](Scheduler &S) {
    long Sum = 0;
    for (long I = 1; I <= 8; ++I)
      S.at(milliseconds(1), [&Sum, I] { Sum += I; });
    S.run();
    return std::to_string(Sum);
  };
  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_TRUE(R.passed());
  EXPECT_TRUE(R.IdentityIdentical);
  EXPECT_TRUE(R.Deterministic);
  EXPECT_EQ(8u, R.SchedulesRun);
  EXPECT_NE(std::string::npos, R.Report.find("invariant under 8"));
}

TEST(VerifySchedules, OrderDependentScenarioIsCaughtWithEventPair) {
  // X ends at ((1*2)+3)*5+7 = 32 in insertion order; any tie swap changes
  // it, because the updates do not commute.
  ScheduleScenario Sc;
  Sc.Name = "noncommutative-updates";
  Sc.Run = [](Scheduler &S) {
    long X = 1;
    S.at(milliseconds(1), [&X] { X *= 2; });
    S.at(milliseconds(1), [&X] { X += 3; });
    S.at(milliseconds(1), [&X] { X *= 5; });
    S.at(milliseconds(1), [&X] { X += 7; });
    S.run();
    return "X=" + std::to_string(X);
  };
  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_FALSE(R.passed());
  EXPECT_TRUE(R.IdentityIdentical); // seed 0 still matches exactly
  EXPECT_FALSE(R.Deterministic);
  // The report names the first event pair where the schedules diverged
  // and the first differing output line.
  EXPECT_NE(std::string::npos, R.Report.find("schedule-dependent"));
  EXPECT_NE(std::string::npos, R.Report.find("first divergence at event"));
  EXPECT_NE(std::string::npos, R.Report.find("baseline ran seq"));
  EXPECT_NE(std::string::npos, R.Report.find("permuted ran seq"));
  EXPECT_NE(std::string::npos, R.Report.find("First differing output line"));
  EXPECT_NE(std::string::npos, R.Report.find("X="));
}

TEST(VerifySchedules, RefusesToVerifyEmptyOutput) {
  // An empty result compares equal to itself under any schedule; treating
  // that as "verified" would hide harness bugs (see PR history: a
  // placement mistake once made the CLI scenarios produce zero subtasks).
  ScheduleScenario Sc;
  Sc.Name = "empty";
  Sc.Run = [](Scheduler &S) {
    S.run();
    return std::string();
  };
  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_FALSE(R.passed());
  EXPECT_NE(std::string::npos, R.Report.find("produced no output"));
}

TEST(VerifySchedules, RefusesToVerifyZeroSchedules) {
  // Zero permuted schedules compare nothing, so "invariant under 0
  // permuted schedules" would be a vacuous pass. The harness must refuse
  // and say why, without running the scenario at all.
  unsigned Runs = 0;
  ScheduleScenario Sc;
  Sc.Name = "zero-schedules";
  Sc.Run = [&Runs](Scheduler &S) {
    ++Runs;
    S.run();
    return std::string("output");
  };
  ScheduleVerifyOptions Opt;
  Opt.Schedules = 0;
  ScheduleVerifyResult R = verifySchedules(Sc, Opt);
  EXPECT_FALSE(R.passed());
  EXPECT_EQ(0u, R.SchedulesRun);
  EXPECT_EQ(0u, Runs);
  EXPECT_NE(std::string::npos, R.Report.find("0 permuted schedules"));
  EXPECT_NE(std::string::npos, R.Report.find("refusing"));
}

// --- Lock-order analyzer -------------------------------------------------

TEST(LockOrder, OppositeOrderAcquisitionIsACycleWithoutADeadlock) {
  // op1 takes A then B at t=1ms; op2 takes B then A at t=5ms, long after
  // op1 released both. Nothing ever blocks, yet under some schedule the
  // two interleave and deadlock — the analyzer reports the potential.
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableLockOrderAnalysis();
  SimMutex A(S, "A"), B(S, "B");

  auto LockBoth = [&S](SimMutex &First, SimMutex &Second, const char *Op) {
    uint64_t T = S.traceBegin(Op);
    First.lock([&S, &First, &Second, T] {
      Second.lock([&S, &First, &Second, T] {
        Second.unlock();
        First.unlock();
        S.traceFinish(T);
      });
    });
  };
  S.at(milliseconds(1), [&] { LockBoth(A, B, "op1"); });
  S.at(milliseconds(5), [&] { LockBoth(B, A, "op2"); });
  S.run();

  ASSERT_TRUE(S.lockOrder());
  ASSERT_EQ(1u, S.lockOrder()->cycles().size());

  // The finding lands in the standard quiescence diagnostics, with the
  // sim times and trace ids of the acquisitions that formed each edge.
  std::string R = S.checkQuiescent().render();
  EXPECT_NE(std::string::npos, R.find("potential deadlock"));
  EXPECT_NE(std::string::npos, R.find("SimMutex A"));
  EXPECT_NE(std::string::npos, R.find("SimMutex B"));
  EXPECT_NE(std::string::npos, R.find("t=0.001000s"));
  EXPECT_NE(std::string::npos, R.find("t=0.005000s"));
  EXPECT_NE(std::string::npos, R.find("trace id 1"));
  EXPECT_NE(std::string::npos, R.find("trace id 2"));
}

TEST(LockOrder, ConsistentOrderIsClean) {
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableLockOrderAnalysis();
  SimMutex A(S, "A"), B(S, "B");
  auto LockBoth = [&S, &A, &B](const char *Op) {
    uint64_t T = S.traceBegin(Op);
    A.lock([&S, &A, &B, T] {
      B.lock([&S, &A, &B, T] {
        B.unlock();
        A.unlock();
        S.traceFinish(T);
      });
    });
  };
  S.at(milliseconds(1), [&] { LockBoth("op1"); });
  S.at(milliseconds(1), [&] { LockBoth("op2"); });
  S.run();
  EXPECT_TRUE(S.lockOrder()->cycles().empty());
  EXPECT_TRUE(S.checkQuiescent().clean());
}

TEST(LockOrder, GraphDetectsCyclesAcrossPrimitiveKinds) {
  // Unit-level: the graph is primitive-agnostic, so a mutex/resource
  // mixed cycle is found just like a mutex/mutex one. Each cycle is
  // reported once, however often it is re-observed.
  LockOrderGraph G;
  int A = 0, R = 0; // addresses stand in for primitives
  G.onRequest(&A, "SimMutex meta-token", 1, milliseconds(1));
  G.onGranted(&A, 1);
  G.onRequest(&R, "Resource mds-cpu", 1, milliseconds(2));
  G.onGranted(&R, 1);
  G.onReleased(&R, 1);
  G.onReleased(&A, 1);

  G.onRequest(&R, "Resource mds-cpu", 2, milliseconds(5));
  G.onGranted(&R, 2);
  G.onRequest(&A, "SimMutex meta-token", 2, milliseconds(6));
  ASSERT_EQ(1u, G.cycles().size());
  EXPECT_NE(std::string::npos, G.cycles()[0].Detail.find("SimMutex"));
  EXPECT_NE(std::string::npos, G.cycles()[0].Detail.find("Resource"));

  // Re-observing the same inversion does not duplicate the finding.
  G.onGranted(&A, 2);
  G.onReleased(&A, 2);
  G.onReleased(&R, 2);
  G.onRequest(&R, "Resource mds-cpu", 3, milliseconds(7));
  G.onGranted(&R, 3);
  G.onRequest(&A, "SimMutex meta-token", 3, milliseconds(8));
  EXPECT_EQ(1u, G.cycles().size());
}

TEST(LockOrder, UntracedContextsCarryNoIdentity) {
  // Without a trace sink every acquisition runs as context 0, which the
  // analyzer skips: "held by nobody" cannot order anything.
  Scheduler S;
  S.enableLockOrderAnalysis();
  SimMutex A(S, "A"), B(S, "B");
  S.at(milliseconds(1), [&] {
    A.lock([&] {
      B.lock([&] {
        B.unlock();
        A.unlock();
      });
    });
  });
  S.at(milliseconds(5), [&] {
    B.lock([&] {
      A.lock([&] {
        A.unlock();
        B.unlock();
      });
    });
  });
  S.run();
  EXPECT_TRUE(S.lockOrder()->cycles().empty());
}

TEST(LockOrder, RealBenchmarkScenarioIsCycleFree) {
  // Acceptance check: the shipped file-system models acquire their
  // primitives in a consistent order, so a real traced run reports no
  // potential deadlocks.
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableLockOrderAnalysis();
  Cluster C(S, 2, 4);
  LustreFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles", "StatFiles"};
  P.ProblemSize = 150;
  P.TimeLimit = seconds(1.0);
  MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
  Master M(C, Env, "lustre", P);
  ResultSet Res = M.runCombination(2, 2);
  ASSERT_FALSE(Res.Subtasks.empty());
  EXPECT_TRUE(S.lockOrder()->cycles().empty());
  EXPECT_EQ(std::string::npos, Res.Diagnostics.find("potential deadlock"));
}

// --- Happens-before tracker ----------------------------------------------

TEST(HappensBefore, UnsynchronizedSameTimeWritesAreFlagged) {
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableHappensBeforeTracking();
  int Shared = 0;
  auto WriteOnce = [&](const char *Op) {
    uint64_t T = S.traceBegin(Op);
    DMB_HB_WRITE(S, Shared, "Shared");
    S.traceFinish(T);
  };
  S.at(milliseconds(1), [&] { WriteOnce("op1"); });
  S.at(milliseconds(1), [&] { WriteOnce("op2"); });
  S.run();

  ASSERT_TRUE(S.happensBefore());
  ASSERT_EQ(1u, S.happensBefore()->findings().size());
  const HBTracker::Finding &F = S.happensBefore()->findings()[0];
  EXPECT_EQ("Shared", F.Location);
  EXPECT_TRUE(F.WriteA);
  EXPECT_TRUE(F.WriteB);
  EXPECT_EQ(milliseconds(1), F.At);
  std::string R = S.checkQuiescent().render();
  EXPECT_NE(std::string::npos, R.find("unsynchronized"));
  EXPECT_NE(std::string::npos, R.find("Shared"));
}

TEST(HappensBefore, DifferentSimTimesAreOrderedByTheClock) {
  // The scheduler always fires the earlier timestamp first and
  // perturbation permutes ties only, so cross-time accesses can never
  // race — the tracker must not flag them.
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableHappensBeforeTracking();
  int Shared = 0;
  auto WriteOnce = [&](const char *Op) {
    uint64_t T = S.traceBegin(Op);
    DMB_HB_WRITE(S, Shared, "Shared");
    S.traceFinish(T);
  };
  S.at(milliseconds(1), [&] { WriteOnce("op1"); });
  S.at(milliseconds(2), [&] { WriteOnce("op2"); });
  S.run();
  EXPECT_TRUE(S.happensBefore()->findings().empty());
}

TEST(HappensBefore, MutexHandoffOrdersSameTimeAccesses) {
  // Both critical sections run at the same sim time (lock grants are
  // zero-delay events), but the unlock→grant handoff is a sync edge, so
  // the second writer knows about the first: no race.
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableHappensBeforeTracking();
  SimMutex M(S, "m");
  int Shared = 0;
  auto WriteLocked = [&](const char *Op) {
    uint64_t T = S.traceBegin(Op);
    M.lock([&S, &M, &Shared, T] {
      DMB_HB_WRITE(S, Shared, "Shared");
      M.unlock();
      S.traceFinish(T);
    });
  };
  S.at(milliseconds(1), [&] { WriteLocked("op1"); });
  S.at(milliseconds(1), [&] { WriteLocked("op2"); });
  S.run();
  EXPECT_TRUE(S.happensBefore()->findings().empty());
  EXPECT_TRUE(S.checkQuiescent().clean());
}

TEST(HappensBefore, SameTimeReadersDoNotConflict) {
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  S.enableHappensBeforeTracking();
  int Shared = 0;
  auto ReadOnce = [&](const char *Op) {
    uint64_t T = S.traceBegin(Op);
    DMB_HB_READ(S, Shared, "Shared");
    S.traceFinish(T);
  };
  S.at(milliseconds(1), [&] { ReadOnce("op1"); });
  S.at(milliseconds(1), [&] { ReadOnce("op2"); });
  S.run();
  EXPECT_TRUE(S.happensBefore()->findings().empty());
}

TEST(HappensBefore, UntracedAccessesAreSkipped) {
  Scheduler S; // no sink: every context is 0
  S.enableHappensBeforeTracking();
  int Shared = 0;
  S.at(milliseconds(1), [&] { DMB_HB_WRITE(S, Shared, "Shared"); });
  S.at(milliseconds(1), [&] { DMB_HB_WRITE(S, Shared, "Shared"); });
  S.run();
  EXPECT_TRUE(S.happensBefore()->findings().empty());
}

// --- Tier-1 scenario invariance (the verify-schedules ctest) -------------

/// The same scenarios `dmetabench verify-schedules` runs: a full Master
/// benchmark on a simulated cluster, canonicalized with
/// canonicalResultText() so rank relabeling at permuted ties (queue
/// positions decide which rank gets which timeline) does not count as a
/// difference.
ScheduleScenario benchScenario(std::string Name, const std::string &FsName,
                               std::vector<std::string> Ops) {
  ScheduleScenario Sc;
  Sc.Name = std::move(Name);
  Sc.Run = [FsName, Ops](Scheduler &S) {
    Cluster C(S, 2, 4);
    std::unique_ptr<DistributedFs> Fs;
    if (FsName == "nfs")
      Fs = std::make_unique<NfsFs>(S);
    else
      Fs = std::make_unique<LustreFs>(S);
    C.mountEverywhere(*Fs);
    BenchParams P;
    P.Operations = Ops;
    P.ProblemSize = 150;
    P.TimeLimit = seconds(1.0);
    // Ppn + 1: rank 0 on the fullest node becomes the master (§ 3.3.4)
    // and is not placeable as a worker.
    MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
    Master M(C, Env, FsName, P);
    return canonicalResultText(M.runCombination(2, 2));
  };
  return Sc;
}

TEST(VerifySchedules, NfsBenchmarkIsInvariantUnderPermutedSchedules) {
  ScheduleVerifyResult R = verifySchedules(
      benchScenario("nfs-makefiles-statfiles", "nfs",
                    {"MakeFiles", "StatFiles"}));
  EXPECT_TRUE(R.IdentityIdentical);
  EXPECT_TRUE(R.Deterministic) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);
}

TEST(VerifySchedules, LustreBenchmarkIsInvariantUnderPermutedSchedules) {
  ScheduleVerifyResult R = verifySchedules(
      benchScenario("lustre-makefiles", "lustre", {"MakeFiles"}));
  EXPECT_TRUE(R.IdentityIdentical);
  EXPECT_TRUE(R.Deterministic) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);
}

} // namespace
