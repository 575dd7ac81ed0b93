//===- tests/IntervalLogTest.cpp - Sparse interval log tests --------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks core/TimeLog.h's IntervalLog against a dense std::vector
/// reference on seeded random record sequences, and checks that every
/// rendering of a result (Listing 3.3 TSV, Listing 3.4 interval summary,
/// the canonical text, the Listing 3.5 summary) is byte-identical whether
/// its logs store only the buckets from each process's first completion on
/// or every bucket from the phase start. A fan-out run pins the point of
/// the sparse layout: stored buckets grow with workers, not with workers
/// times the run's length. These tests also run under ASan+UBSan in
/// tools/run_checks.sh.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <cmath>
#include <cstring>

using namespace dmb;

namespace {

/// Full cross-check of \p Log against the dense reference \p Ref.
void expectSame(const IntervalLog &Log, const std::vector<uint64_t> &Ref) {
  ASSERT_EQ(Ref.size(), Log.size());
  uint64_t Cum = 0;
  for (size_t I = 0; I != Ref.size(); ++I) {
    ASSERT_EQ(Ref[I], Log[I]) << "bucket " << I;
    Cum += Ref[I];
    ASSERT_EQ(Cum, Log.cumulativeAt(I)) << "bucket " << I;
  }
  // Past the end the cumulative count stays at the total.
  EXPECT_EQ(Cum, Log.cumulativeAt(Ref.size()));
  EXPECT_EQ(Cum, Log.cumulativeAt(Ref.size() + 7));
  // Nothing before the first stored bucket is anything but zero.
  for (size_t I = 0; I != Log.firstStored(); ++I)
    ASSERT_EQ(0u, Ref[I]);
  EXPECT_EQ(Log.size(), Log.firstStored() + Log.stored().size());
}

/// Adds \p Count at \p Index to both the log and its dense reference.
void addBoth(IntervalLog &Log, std::vector<uint64_t> &Ref, size_t Index,
             uint64_t Count) {
  Log.add(Index, Count);
  if (Ref.size() <= Index)
    Ref.resize(Index + 1, 0);
  Ref[Index] += Count;
}

TEST(IntervalLog, EmptyLog) {
  IntervalLog Log;
  expectSame(Log, {});
  EXPECT_EQ(0u, Log.cumulativeAt(0));
  EXPECT_TRUE(Log.stored().empty());
  expectSame(IntervalLog(std::vector<uint64_t>{}), {});
}

TEST(IntervalLog, FirstRecordAtIndexZeroStoresFromZero) {
  IntervalLog Log;
  std::vector<uint64_t> Ref;
  addBoth(Log, Ref, 0, 3);
  addBoth(Log, Ref, 2, 1);
  expectSame(Log, Ref);
  EXPECT_EQ(0u, Log.firstStored());
  EXPECT_EQ(3u, Log.stored().size());
}

TEST(IntervalLog, LeadingZerosAreNotStored) {
  IntervalLog Log;
  std::vector<uint64_t> Ref;
  addBoth(Log, Ref, 1000, 1);
  addBoth(Log, Ref, 1000, 2);
  addBoth(Log, Ref, 1003, 4);
  expectSame(Log, Ref);
  EXPECT_EQ(1000u, Log.firstStored());
  EXPECT_EQ(4u, Log.stored().size());
  EXPECT_EQ(0u, Log.cumulativeAt(999));
  EXPECT_EQ(3u, Log.cumulativeAt(1000));
}

TEST(IntervalLog, ZeroCountRecordExtendsTheLength) {
  IntervalLog Log;
  std::vector<uint64_t> Ref;
  addBoth(Log, Ref, 5, 0); // all-zero log of length 6
  expectSame(Log, Ref);
  addBoth(Log, Ref, 5, 2);
  addBoth(Log, Ref, 9, 0); // a zero past the end still lengthens it
  expectSame(Log, Ref);
  EXPECT_EQ(10u, Log.size());
}

TEST(IntervalLog, DenseConstructorStripsLeadingZeros) {
  std::vector<uint64_t> Ref = {0, 0, 0, 4, 0, 5};
  IntervalLog Log(Ref);
  expectSame(Log, Ref);
  EXPECT_EQ(3u, Log.firstStored());
  EXPECT_EQ(3u, Log.stored().size());

  std::vector<uint64_t> Zeros(12, 0);
  IntervalLog AllZero(Zeros);
  expectSame(AllZero, Zeros);
  EXPECT_TRUE(AllZero.stored().empty());
}

TEST(IntervalLog, SeededRecordsMatchDenseReference) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Rng R(Seed);
    IntervalLog Log;
    std::vector<uint64_t> Ref;
    // Some logs start at bucket 0, some many buckets in, like workers
    // whose first completion lands late on a saturated server.
    size_t Index = R.below(4) == 0 ? 0 : R.below(500);
    for (unsigned Step = 0, E = R.below(60); Step != E; ++Step) {
      uint64_t Count = R.below(5) == 0 ? 0 : 1 + R.below(1000);
      addBoth(Log, Ref, Index, Count);
      // Simulated time never runs backwards: the next record lands in the
      // same bucket or a later one, sometimes far later.
      Index += R.below(3) == 0 ? R.below(40) : R.below(2);
    }
    SCOPED_TRACE(Seed);
    expectSame(Log, Ref);
    expectSame(IntervalLog(Ref), Ref);
  }
}

TEST(IntervalLogDeathTest, RecordBelowFirstStoredBucketAborts) {
  IntervalLog Log;
  Log.add(10, 1);
  EXPECT_DEATH(Log.add(9, 1), "interval log written below its first bucket");
}

//===----------------------------------------------------------------------===//
// Renderings: stored-from-first-completion vs stored-from-phase-start
//===----------------------------------------------------------------------===//

/// The same log with every bucket from 0 stored explicitly.
IntervalLog storedFromZero(const IntervalLog &Log) {
  IntervalLog Out;
  for (size_t I = 0; I != Log.size(); ++I)
    Out.add(I, Log[I]);
  return Out;
}

/// \p R with every process's log stored from bucket 0.
SubtaskResult denseCopy(const SubtaskResult &R) {
  SubtaskResult D = R;
  for (ProcessTrace &P : D.Processes) {
    P.OpsPerInterval = storedFromZero(P.OpsPerInterval);
    EXPECT_EQ(P.OpsPerInterval.size(), P.OpsPerInterval.stored().size());
  }
  return D;
}

/// The interval-major walk over every bucket of every process, as the
/// Listing 3.4 summary was computed before logs were sparse: the reference
/// for bit-identical doubles.
std::vector<IntervalRow> denseIntervalRows(const SubtaskResult &R) {
  std::vector<IntervalRow> Rows;
  double IntervalSec = toSeconds(R.Interval);
  size_t NumProcs = R.Processes.size();
  uint64_t Cumulative = 0;
  for (size_t I = 0, E = R.numIntervals(); I < E; ++I) {
    double Sum = 0, SumSq = 0;
    uint64_t IntervalTotal = 0;
    for (const ProcessTrace &P : R.Processes) {
      uint64_t Ops = I < P.OpsPerInterval.size() ? P.OpsPerInterval[I] : 0;
      IntervalTotal += Ops;
      double X = static_cast<double>(Ops);
      Sum += X;
      SumSq += X * X;
    }
    Cumulative += IntervalTotal;
    IntervalRow Row;
    Row.TimeSec = static_cast<double>(I + 1) * IntervalSec;
    Row.TotalOps = Cumulative;
    Row.OpsPerSec = static_cast<double>(IntervalTotal) / IntervalSec;
    if (NumProcs > 1) {
      double Mean = Sum / static_cast<double>(NumProcs);
      double Var = (SumSq - Sum * Mean) / static_cast<double>(NumProcs - 1);
      Row.PerProcStddev = std::sqrt(Var < 0 ? 0 : Var);
      Row.PerProcCov = Mean > 0 ? Row.PerProcStddev / Mean : 0;
    }
    Rows.push_back(Row);
  }
  return Rows;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

std::string summaryText(const SubtaskResult &R) {
  SubtaskSummary S = summarize(R);
  return format("%s %u %u %u %llu %a %a %a %a", S.Operation.c_str(),
                S.NumNodes, S.PerNode, S.TotalProcesses,
                (unsigned long long)S.TotalOps, S.WallClockSec,
                S.WallClockOpsPerSec, S.StonewallSec, S.StonewallOpsPerSec);
}

/// Every rendering of \p Sparse equals that of its dense copy, and the
/// interval rows equal the interval-major reference bit for bit.
void expectSameRenderings(const SubtaskResult &Sparse) {
  SubtaskResult Dense = denseCopy(Sparse);
  EXPECT_EQ(Dense.numIntervals(), Sparse.numIntervals());
  EXPECT_EQ(Dense.toTsv(), Sparse.toTsv());
  EXPECT_EQ(intervalSummaryTsv(Dense), intervalSummaryTsv(Sparse));
  EXPECT_EQ(summaryText(Dense), summaryText(Sparse));
  ResultSet SparseSet, DenseSet;
  SparseSet.Subtasks.push_back(Sparse);
  DenseSet.Subtasks.push_back(Dense);
  EXPECT_EQ(canonicalResultText(DenseSet), canonicalResultText(SparseSet));

  std::vector<IntervalRow> Want = denseIntervalRows(Dense);
  std::vector<IntervalRow> Got = intervalSummary(Sparse);
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    EXPECT_EQ(Want[I].TotalOps, Got[I].TotalOps) << I;
    EXPECT_TRUE(sameBits(Want[I].TimeSec, Got[I].TimeSec)) << I;
    EXPECT_TRUE(sameBits(Want[I].OpsPerSec, Got[I].OpsPerSec)) << I;
    EXPECT_TRUE(sameBits(Want[I].PerProcStddev, Got[I].PerProcStddev)) << I;
    EXPECT_TRUE(sameBits(Want[I].PerProcCov, Got[I].PerProcCov)) << I;
  }
  uint64_t Total = Sparse.totalOps();
  for (uint64_t Ops : {uint64_t(0), uint64_t(1), Total / 3, Total, Total + 1})
    EXPECT_TRUE(sameBits(averageForFixedOps(Dense, Ops),
                         averageForFixedOps(Sparse, Ops)))
        << Ops;
}

TEST(IntervalLog, SeededResultsRenderAsTheirDenseCopies) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    SubtaskResult Res;
    Res.Operation = "MakeFiles";
    Res.FileSystem = "nfs";
    Res.NumNodes = 4;
    Res.PerNode = 2;
    Res.Interval = milliseconds(100);
    for (unsigned P = 0, E = 1 + R.below(40); P != E; ++P) {
      ProcessTrace T;
      T.Ordinal = P;
      T.Hostname = format("node%u", P % 4);
      size_t Index = R.below(3) == 0 ? 0 : R.below(60);
      unsigned Records = R.below(6) == 0 ? 0 : 1 + R.below(25);
      for (unsigned K = 0; K != Records; ++K) {
        // Counts up to 2^40 make X * X round, so the accumulation order
        // of the sums of squares shows in their bits.
        uint64_t Count = R.below(8) == 0   ? 0
                         : R.below(4) == 0 ? R.below(uint64_t(1) << 40)
                                           : R.below(500);
        T.OpsPerInterval.add(Index, Count);
        T.TotalOps += Count;
        Index += R.below(3);
      }
      T.FinishOffset = static_cast<SimDuration>(T.OpsPerInterval.size()) *
                           Res.Interval -
                       static_cast<SimDuration>(R.below(1000));
      if (T.FinishOffset < 0)
        T.FinishOffset = 0;
      Res.Processes.push_back(std::move(T));
    }
    SCOPED_TRACE(Seed);
    expectSameRenderings(Res);
  }
}

/// One Master run of \p Nodes x 8 NFS workers making one file each: every
/// worker's single create queues behind the others' on the one server, so
/// late workers complete their only operation many intervals in.
ResultSet runFanOut(unsigned Nodes) {
  unsigned Ppn = 8;
  Scheduler S;
  Cluster C(S, Nodes, Ppn);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.ProblemSize = 1000;
  P.TimeLimit = seconds(0.01);
  Master M(C, MpiEnvironment::uniform(Nodes, Ppn + 1), Fs.name(), P);
  return M.runCombination(Nodes, Ppn);
}

TEST(IntervalLog, FanOutRunRendersAsItsDenseCopy) {
  ResultSet Res = runFanOut(512);
  ASSERT_EQ(1u, Res.Subtasks.size());
  const SubtaskResult &Sub = Res.Subtasks[0];
  size_t LateWorkers = 0;
  for (const ProcessTrace &P : Sub.Processes)
    LateWorkers += P.OpsPerInterval.firstStored() > 0;
  EXPECT_GT(LateWorkers, Sub.Processes.size() / 2);
  expectSameRenderings(Sub);
}

TEST(IntervalLog, FanOutStorageIsLinearInWorkers) {
  ResultSet Res = runFanOut(512);
  ASSERT_EQ(1u, Res.Subtasks.size());
  const SubtaskResult &Sub = Res.Subtasks[0];
  size_t Workers = Sub.Processes.size();
  ASSERT_EQ(4096u, Workers);
  size_t Stored = 0, Logical = 0;
  for (const ProcessTrace &P : Sub.Processes) {
    EXPECT_EQ(1u, P.TotalOps);
    Stored += P.OpsPerInterval.stored().size();
    Logical += P.OpsPerInterval.size();
  }
  EXPECT_GT(Sub.numIntervals(), 1u);
  EXPECT_LE(Stored, 2 * Workers);
  // The scenario tells the layouts apart: storing every bucket from the
  // phase start would exceed the bound.
  EXPECT_GT(Logical, 2 * Workers);
}

} // namespace
