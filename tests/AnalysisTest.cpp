//===- tests/AnalysisTest.cpp - Preprocessing algebra tests ---------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies the preprocessing formulas of thesis \S 3.3.9 (Listings
/// 3.3-3.5) on constructed traces: per-interval totals, sample standard
/// deviation, COV, stonewall average and fixed-operation-count averages —
/// including the worked example of \S 3.2.5 (Fig. 3.4: wall-clock 18 vs
/// stonewall 23.3 ops per time unit).
///
//===----------------------------------------------------------------------===//

#include "analysis/Preprocess.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

ProcessTrace makeTrace(unsigned Ordinal, std::vector<uint64_t> Buckets,
                       SimDuration Finish) {
  ProcessTrace P;
  P.Rank = static_cast<int>(Ordinal + 1);
  P.Ordinal = Ordinal;
  P.Hostname = "node" + std::to_string(Ordinal);
  P.OpsPerInterval = IntervalLog(Buckets);
  for (uint64_t B : Buckets)
    P.TotalOps += B;
  P.FinishOffset = Finish;
  return P;
}

/// Two processes, interval 0.1 s: p0 does 10+10 ops (finishes at 0.2 s),
/// p1 does 20 ops (finishes at 0.1 s).
SubtaskResult twoProcResult() {
  SubtaskResult R;
  R.Operation = "StatFiles";
  R.FileSystem = "nfs";
  R.NumNodes = 2;
  R.PerNode = 1;
  R.Interval = milliseconds(100);
  R.Processes.push_back(makeTrace(0, {10, 10}, milliseconds(200)));
  R.Processes.push_back(makeTrace(1, {20}, milliseconds(100)));
  return R;
}

TEST(Analysis, IntervalRowsTotalsAndRates) {
  std::vector<IntervalRow> Rows = intervalSummary(twoProcResult());
  ASSERT_EQ(2u, Rows.size());
  EXPECT_DOUBLE_EQ(0.1, Rows[0].TimeSec);
  EXPECT_EQ(30u, Rows[0].TotalOps);
  EXPECT_DOUBLE_EQ(300.0, Rows[0].OpsPerSec);
  EXPECT_EQ(40u, Rows[1].TotalOps);
  EXPECT_DOUBLE_EQ(100.0, Rows[1].OpsPerSec);
}

TEST(Analysis, SampleStddevAndCovMatchListing34Convention) {
  std::vector<IntervalRow> Rows = intervalSummary(twoProcResult());
  // Interval 0: per-process ops {10, 20}: mean 15, sample stddev
  // sqrt(((10-15)^2 + (20-15)^2)/(2-1)) = sqrt(50).
  EXPECT_NEAR(7.0711, Rows[0].PerProcStddev, 1e-3);
  EXPECT_NEAR(0.4714, Rows[0].PerProcCov, 1e-3);
  // Interval 1: {10, 0}: mean 5, stddev sqrt(50), COV sqrt(2) — the COV
  // rises when some processes have finished (Fig. 3.11 discussion).
  EXPECT_NEAR(7.0711, Rows[1].PerProcStddev, 1e-3);
  EXPECT_NEAR(1.4142, Rows[1].PerProcCov, 1e-3);
}

TEST(Analysis, StonewallAverage) {
  // First process finishes at 0.1 s; 30 ops by then => 300 ops/s.
  EXPECT_DOUBLE_EQ(300.0, stonewallAverage(twoProcResult()));
}

TEST(Analysis, WallClockAverage) {
  // 40 ops in 0.2 s => 200 ops/s (the "global throughput" of \S 3.2.5).
  EXPECT_DOUBLE_EQ(200.0, wallClockAverage(twoProcResult()));
}

TEST(Analysis, FixedOpsAverages) {
  SubtaskResult R = twoProcResult();
  // 30 ops reached at the 0.1 s boundary.
  EXPECT_DOUBLE_EQ(300.0, averageForFixedOps(R, 30));
  // Target 25 also crosses at 0.1 s, but the average covers the first 25
  // ops only: 25/0.1, not the 30 the interval happened to complete.
  EXPECT_DOUBLE_EQ(250.0, averageForFixedOps(R, 25));
  // 40 ops reached at 0.2 s.
  EXPECT_DOUBLE_EQ(200.0, averageForFixedOps(R, 40));
  // Never reached: Listing 3.5 prints 0.
  EXPECT_DOUBLE_EQ(0.0, averageForFixedOps(R, 50));
}

TEST(Analysis, FixedOpsAverageClampsToTarget) {
  // Fig. 3.4 data (\S 3.2.5): totals per unit are 19, 45, 70, 85, 90. A
  // fixed-ops target of 60 crosses at the third boundary, so the strong
  // scaling average is 60/3 = 20 ops/unit — crediting everything the
  // crossing interval completed (70/3 = 23.3) would overstate it.
  SubtaskResult R;
  R.Operation = "Example";
  R.NumNodes = 3;
  R.PerNode = 1;
  R.Interval = seconds(1.0);
  R.Processes.push_back(makeTrace(0, {5, 8, 5, 7, 5}, seconds(5.0)));
  R.Processes.push_back(makeTrace(1, {8, 10, 12}, seconds(3.0)));
  R.Processes.push_back(makeTrace(2, {6, 8, 8, 8}, seconds(4.0)));
  EXPECT_NEAR(20.0, averageForFixedOps(R, 60), 1e-9);
  // A target falling exactly on a boundary total divides evenly.
  EXPECT_NEAR(45.0 / 2.0, averageForFixedOps(R, 45), 1e-9);
}

TEST(Analysis, SummaryBundle) {
  SubtaskSummary S = summarize(twoProcResult());
  EXPECT_EQ("StatFiles", S.Operation);
  EXPECT_EQ(2u, S.TotalProcesses);
  EXPECT_EQ(40u, S.TotalOps);
  EXPECT_DOUBLE_EQ(0.2, S.WallClockSec);
  EXPECT_DOUBLE_EQ(200.0, S.WallClockOpsPerSec);
  EXPECT_DOUBLE_EQ(0.1, S.StonewallSec);
  EXPECT_DOUBLE_EQ(300.0, S.StonewallOpsPerSec);
}

TEST(Analysis, Figure34WorkedExample) {
  // The illustration of \S 3.2.5: three processes, 30 ops each, five time
  // units; wall-clock average 18 ops/unit, stonewall 23.3 ops/unit.
  SubtaskResult R;
  R.Operation = "Example";
  R.NumNodes = 3;
  R.PerNode = 1;
  R.Interval = seconds(1.0);
  R.Processes.push_back(
      makeTrace(0, {5, 8, 5, 7, 5}, seconds(5.0))); // 0,5,13,18,25,30
  R.Processes.push_back(makeTrace(1, {8, 10, 12}, seconds(3.0)));
  R.Processes.push_back(
      makeTrace(2, {6, 8, 8, 8}, seconds(4.0))); // 0,6,14,22,30

  EXPECT_NEAR(18.0, wallClockAverage(R), 1e-9);     // 90 ops / 5 units
  EXPECT_NEAR(70.0 / 3.0, stonewallAverage(R), 1e-9); // 70 ops @ 3 units
  // Totals per interval: 19, 45, 70, 85, 90 (the "Total" axis of Fig 3.4).
  std::vector<IntervalRow> Rows = intervalSummary(R);
  ASSERT_EQ(5u, Rows.size());
  EXPECT_EQ(19u, Rows[0].TotalOps);
  EXPECT_EQ(45u, Rows[1].TotalOps);
  EXPECT_EQ(70u, Rows[2].TotalOps);
  EXPECT_EQ(85u, Rows[3].TotalOps);
  EXPECT_EQ(90u, Rows[4].TotalOps);
}

TEST(Analysis, StonewallExactBoundaryFinishDoesNotShiftUp) {
  // A process finishing *exactly* on an interval boundary stonewalls at
  // that boundary; rounding it into the next interval would silently mix
  // in post-stonewall ops.
  SubtaskResult R;
  R.Operation = "MakeFiles";
  R.NumNodes = 2;
  R.PerNode = 1;
  R.Interval = milliseconds(100);
  R.Processes.push_back(makeTrace(0, {20}, milliseconds(100)));
  R.Processes.push_back(makeTrace(1, {10, 10}, milliseconds(200)));
  SubtaskSummary S = summarize(R);
  EXPECT_DOUBLE_EQ(0.1, S.StonewallSec); // not 0.2
  EXPECT_DOUBLE_EQ(300.0, stonewallAverage(R));
}

TEST(Analysis, StonewallWorkedExample) {
  // The worked stonewall number of \S 3.3.2: with 0.1 s intervals, the
  // faster process finishes exactly at 1.0 s with 22,191 ops completed in
  // total across processes — the stonewall average is exactly 22,191.0
  // ops/s, pinned here as a bit-exact value.
  SubtaskResult R;
  R.Operation = "MakeFiles";
  R.NumNodes = 2;
  R.PerNode = 1;
  R.Interval = milliseconds(100);
  std::vector<uint64_t> P0(10, 1110);
  P0[9] = 1106; // sums to 11,096
  std::vector<uint64_t> P1(15, 1110);
  P1[9] = 1105; // first ten sum to 11,095
  for (size_t I = 10; I < P1.size(); ++I)
    P1[I] = 500; // the slower process keeps going to 1.5 s
  R.Processes.push_back(makeTrace(0, std::move(P0), seconds(1.0)));
  R.Processes.push_back(makeTrace(1, std::move(P1), seconds(1.5)));
  EXPECT_DOUBLE_EQ(22191.0, stonewallAverage(R));
}

TEST(Analysis, SingleProcessHasNoCov) {
  SubtaskResult R;
  R.Interval = milliseconds(100);
  R.Processes.push_back(makeTrace(0, {10, 10}, milliseconds(200)));
  for (const IntervalRow &Row : intervalSummary(R)) {
    EXPECT_DOUBLE_EQ(0.0, Row.PerProcStddev);
    EXPECT_DOUBLE_EQ(0.0, Row.PerProcCov);
  }
}

TEST(Analysis, EmptyResultIsSafe) {
  SubtaskResult R;
  R.Interval = milliseconds(100);
  EXPECT_TRUE(intervalSummary(R).empty());
  EXPECT_DOUBLE_EQ(0.0, stonewallAverage(R));
  EXPECT_DOUBLE_EQ(0.0, wallClockAverage(R));
  EXPECT_DOUBLE_EQ(0.0, averageForFixedOps(R, 10));
}

TEST(Analysis, TsvRendersOneRowPerInterval) {
  std::string Tsv = intervalSummaryTsv(twoProcResult());
  EXPECT_EQ(2, std::count(Tsv.begin(), Tsv.end(), '\n'));
  EXPECT_NE(std::string::npos, Tsv.find("StatFiles"));
}

TEST(Analysis, ResultTsvMatchesListing33Shape) {
  std::string Tsv = twoProcResult().toTsv();
  // Header plus three data lines (two intervals for p0, one for p1).
  EXPECT_EQ(4, std::count(Tsv.begin(), Tsv.end(), '\n'));
  EXPECT_NE(std::string::npos, Tsv.find("Hostname\tOperation"));
  EXPECT_NE(std::string::npos, Tsv.find("node0\tStatFiles\t0\t0.1\t10"));
  EXPECT_NE(std::string::npos, Tsv.find("node0\tStatFiles\t0\t0.2\t20"));
  EXPECT_NE(std::string::npos, Tsv.find("node1\tStatFiles\t1\t0.1\t20"));
}

} // namespace
