//===- bench/bench_sharded_saturation.cpp - E30: sharded MDS scale-out ----===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E30: the sharded metadata service against the single-MDS saturation
/// wall of E08/E09. Four phases, all deterministic simulation:
///
///   A (saturation)  MakeFiles on 4 nodes at 1/2/4 processes per node,
///                   against one filer head (the E08/E09 profile, no
///                   splitting) and against 4 shards with GIGA+ splitting.
///                   The single MDS plateaus; the shards keep scaling.
///   B (threshold)   Rebalance cost vs. lookup locality: sweeping the
///                   split threshold trades split/migration work (low
///                   threshold) against partition spread. Reported as
///                   ops/s with split, migration and redirect counts.
///   C (degraded)    Kill shard 0 mid-run behind a 60% loss window and a
///                   1 s partition, with resilient clients. An E29-style
///                   ledger checks exactly-once end-to-end: zero lost,
///                   zero double-applied, clean fsck on every shard, DRC
///                   eviction queues in sync and bounded, and a repeat
///                   run replays the interval TSV bit-for-bit.
///   D (schedules)   verifySchedules over a split-heavy scenario: the
///                   canonical result must be identical under 8 permuted
///                   same-timestamp tie orders.
///
/// Self-checking: exits nonzero when any phase check fails, so
/// tools/run_checks.sh uses it as the sharded-metadata smoke. Writes the
/// phase results as BENCH_E30.json (see --out); the numbers are simulated
/// throughputs, so the committed JSON is host-independent.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace dmbbench;

namespace {

unsigned FailedChecks = 0;

void check(bool Ok, const std::string &What) {
  std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What.c_str());
  if (!Ok)
    ++FailedChecks;
}

//===----------------------------------------------------------------------===//
// Phase A: single-MDS saturation vs. sharded scale-out
//===----------------------------------------------------------------------===//

struct LoadPoint {
  unsigned Ppn = 0;
  double OpsPerSec = 0;
  uint64_t Splits = 0;
  uint64_t StaleRetries = 0;
};

/// Runs MakeFiles for 5 simulated seconds on \p Shards shards and returns
/// the stonewall throughput. \p Threshold caps partition size; the
/// single-MDS baseline passes a huge one so it behaves exactly like the
/// E08/E09 filer head (no split machinery, one partition per directory).
LoadPoint runLoad(unsigned Shards, unsigned Threshold, unsigned Ppn) {
  Scheduler S;
  Cluster C(S, 4, 8);
  ShardedOptions O;
  O.NumShards = Shards;
  O.SplitThreshold = Threshold;
  ShardedFs Fs(S, O);
  C.mountEverywhere(Fs);

  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.ProblemSize = 100000; // one hot directory per process, no rollover
  P.TimeLimit = seconds(5.0);
  ResultSet Res = runCombo(C, Fs.name(), P, 4, Ppn);

  LoadPoint L;
  L.Ppn = Ppn;
  L.OpsPerSec = rateOf(Res);
  L.Splits = Fs.splitCount();
  for (unsigned I = 0; I < C.numNodes(); ++I)
    if (auto *Cl = dynamic_cast<ShardedClient *>(C.node(I).mount(Fs.name())))
      L.StaleRetries += Cl->staleMapRetries();
  return L;
}

struct SaturationResult {
  std::vector<LoadPoint> Single;
  std::vector<LoadPoint> Sharded;
};

SaturationResult runSaturation() {
  SaturationResult R;
  TextTable T;
  T.setHeader({"ppn (4 nodes)", "single MDS ops/s", "4 shards ops/s",
               "splits", "redirects"});
  for (unsigned Ppn : {1u, 2u, 4u}) {
    LoadPoint Single = runLoad(1, 1u << 30, Ppn);
    LoadPoint Sharded = runLoad(4, 512, Ppn);
    R.Single.push_back(Single);
    R.Sharded.push_back(Sharded);
    T.addRow({format("%u", Ppn), ops(Single.OpsPerSec),
              ops(Sharded.OpsPerSec), format("%llu",
              (unsigned long long)Sharded.Splits),
              format("%llu", (unsigned long long)Sharded.StaleRetries)});
  }
  std::printf("--- A: saturation (MakeFiles, 5 s) ---\n");
  printTable(T);

  double SingleMid = R.Single[1].OpsPerSec, SingleMax = R.Single[2].OpsPerSec;
  double ShardedMax = R.Sharded[2].OpsPerSec;
  check(SingleMax < 1.25 * SingleMid,
        format("single MDS saturates: 2->4 ppn gains %.0f%% (< 25%%)",
               (SingleMax / SingleMid - 1) * 100));
  check(ShardedMax > 1.4 * SingleMax,
        format("4 shards exceed the single-MDS plateau: %.0f vs %.0f ops/s",
               ShardedMax, SingleMax));
  check(R.Sharded[2].Splits > 0, "the sharded run actually split");
  return R;
}

//===----------------------------------------------------------------------===//
// Phase B: rebalance cost vs. lookup locality
//===----------------------------------------------------------------------===//

struct ThresholdPoint {
  unsigned Threshold = 0;
  double OpsPerSec = 0;
  uint64_t Splits = 0;
  uint64_t Migrated = 0;
  uint64_t StaleRetries = 0;
};

ThresholdPoint runThreshold(unsigned Threshold) {
  Scheduler S;
  Cluster C(S, 4, 8);
  ShardedOptions O;
  O.NumShards = 4;
  O.SplitThreshold = Threshold;
  ShardedFs Fs(S, O);
  C.mountEverywhere(Fs);

  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.ProblemSize = 100000;
  P.TimeLimit = seconds(5.0);
  ResultSet Res = runCombo(C, Fs.name(), P, 4, 2);

  ThresholdPoint Pt;
  Pt.Threshold = Threshold;
  Pt.OpsPerSec = rateOf(Res);
  Pt.Splits = Fs.splitCount();
  Pt.Migrated = Fs.migratedEntries();
  for (unsigned I = 0; I < C.numNodes(); ++I)
    if (auto *Cl = dynamic_cast<ShardedClient *>(C.node(I).mount(Fs.name())))
      Pt.StaleRetries += Cl->staleMapRetries();
  return Pt;
}

std::vector<ThresholdPoint> runThresholdCurve() {
  std::vector<ThresholdPoint> Curve;
  TextTable T;
  T.setHeader({"split threshold", "ops/s", "splits", "migrated entries",
               "redirects"});
  for (unsigned Thr : {16u, 64u, 256u, 1024u}) {
    ThresholdPoint Pt = runThreshold(Thr);
    Curve.push_back(Pt);
    T.addRow({format("%u", Pt.Threshold), ops(Pt.OpsPerSec),
              format("%llu", (unsigned long long)Pt.Splits),
              format("%llu", (unsigned long long)Pt.Migrated),
              format("%llu", (unsigned long long)Pt.StaleRetries)});
  }
  std::printf("--- B: rebalance cost vs. lookup locality (4 shards, 4x2) "
              "---\n");
  printTable(T);

  check(Curve.front().Splits > Curve.back().Splits,
        "lower thresholds rebalance more (splits fall as the threshold "
        "rises)");
  // Total migration volume is humped (splits x batch size), so the clean
  // monotone axis is the rebalance granularity: each split moves about
  // half a partition, so the per-split batch tracks the threshold.
  double FirstBatch = Curve.front().Splits
                          ? double(Curve.front().Migrated) /
                                double(Curve.front().Splits)
                          : 0;
  double LastBatch = Curve.back().Splits
                         ? double(Curve.back().Migrated) /
                               double(Curve.back().Splits)
                         : 0;
  check(FirstBatch < LastBatch,
        format("higher thresholds rebalance in coarser batches "
               "(%.0f vs %.0f entries per split)",
               FirstBatch, LastBatch));
  check(Curve.front().StaleRetries > 0,
        "rebalancing costs the clients redirects");
  return Curve;
}

//===----------------------------------------------------------------------===//
// Phase C: kill one shard mid-run (E29-style ledger)
//===----------------------------------------------------------------------===//

/// End-to-end consistency counters, maintained by ProbeClient.
struct FaultLedger {
  uint64_t AckedCreates = 0;  ///< successful create-like ops in the bench
  uint64_t DoubleApplied = 0; ///< EEXIST on a unique-path create/mkdir
  uint64_t StaleCloses = 0;   ///< EBADF close of a handle lost in the crash
  uint64_t TimedOut = 0;      ///< retransmits exhausted (should be none)
  uint64_t LostInCleanup = 0; ///< ENOENT unlink: an acked create vanished
};

/// Transparent mount wrapper counting per-reply ledger events (the E29
/// probe, pointed at the sharded service). MakeFiles paths are unique, so
/// any bench-phase EEXIST means a retransmit was double-applied, and
/// cleanup's unlink of every acked create turns a lost file into ENOENT.
class ProbeClient final : public ClientFs {
public:
  ProbeClient(std::unique_ptr<ClientFs> Inner, Scheduler &Sched,
              FaultLedger &L)
      : Inner(std::move(Inner)), Sched(Sched), L(L) {}

  void submit(const MetaRequest &Req, Callback Done) override {
    Inner->submit(Req, [this, Op = Req.Op, Flags = Req.Flags,
                        Done = std::move(Done)](MetaReply &&Reply) {
      note(Op, Flags, Reply);
      Done(std::move(Reply));
    });
  }
  void dropCaches() override { Inner->dropCaches(); }
  CacheStats cacheStats() const override { return Inner->cacheStats(); }
  std::string describe() const override { return Inner->describe(); }

  ClientFs &inner() { return *Inner; }

private:
  void note(MetaOp Op, uint32_t Flags, const MetaReply &Reply) {
    if (Reply.Err == FsError::TimedOut) {
      ++L.TimedOut;
      return;
    }
    // Setup mkdirs (shared work dirs) legitimately race to EEXIST; the
    // fault plan only becomes active at t=6s, so gate on the bench phase.
    bool InBench = Sched.now() >= seconds(5.0);
    bool CreateLike =
        Op == MetaOp::Mkdir || (Op == MetaOp::Open && (Flags & OpenCreate));
    if (CreateLike && InBench) {
      if (Reply.ok())
        ++L.AckedCreates;
      else if (Reply.Err == FsError::Exists)
        ++L.DoubleApplied;
    }
    if (Op == MetaOp::Close && Reply.Err == FsError::BadFd)
      ++L.StaleCloses;
    if (Op == MetaOp::Unlink && Reply.Err == FsError::NoEnt)
      ++L.LostInCleanup;
  }

  std::unique_ptr<ClientFs> Inner;
  Scheduler &Sched;
  FaultLedger &L;
};

struct DegradedResult {
  FaultLedger Ledger;
  std::string IntervalTsv;
  uint64_t Retransmits = 0;
  uint64_t DrcHits = 0;
  uint64_t StaleRetries = 0;
  uint64_t Splits = 0;
  uint64_t LostAtCrash = 0;
  bool CrashFired = false;
  bool FsckClean = true;
  bool DrcQueuesInSync = true;
  double BeforeOps = 0, OutageOps = 0, AfterOps = 0;
};

DegradedResult runDegraded() {
  Scheduler S;
  Cluster C(S, 4, 8);
  DegradedResult R;

  ShardedOptions O;
  O.NumShards = 4;
  O.SplitThreshold = 512;
  // The E29 resilient-client profile: 60% message loss t=6-8s, then a
  // full 1 s partition covering the crash, retransmission with backoff.
  O.Client.Net.Faults.Seed = 7;
  O.Client.Net.Faults.Windows = {
      {seconds(6.0), seconds(8.0), /*DropProbability=*/0.6},
      {seconds(12.0), seconds(13.0), /*DropProbability=*/1.0},
  };
  O.Client.Retry.Timeout = milliseconds(25);
  O.Client.Retry.MaxRetransmits = 30;
  // Size the DRC to cover the whole retransmit horizon (the E29 rule).
  O.ShardDefaults.DuplicateRequestCacheSize = 1 << 16;
  ShardedFs Fs(S, O);

  FaultLedger &L = R.Ledger;
  for (unsigned I = 0; I < C.numNodes(); ++I)
    C.node(I).addMount(Fs.name(),
                       std::make_unique<ProbeClient>(Fs.makeClient(I), S, L));

  // Shard 0 dies mid-partition and recovers by replaying its journal;
  // the other three shards keep serving their partitions throughout.
  ServerCrash Crash(S, *Fs.admin(), ShardedFs::volumeName(0), seconds(12.0));

  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.ProblemSize = 100000;
  P.TimeLimit = seconds(20.0);
  P.HarnessOverheadPerCall = microseconds(60);
  ResultSet Res = runCombo(C, Fs.name(), P, 4, 1);
  const SubtaskResult &Sub = Res.Subtasks.at(0);
  R.IntervalTsv = intervalSummaryTsv(Sub);

  R.CrashFired = Crash.fired();
  R.LostAtCrash = Crash.fired() ? Crash.lostRecords() : 0;
  R.Splits = Fs.splitCount();
  for (unsigned I = 0; I < C.numNodes(); ++I) {
    auto *Probe = static_cast<ProbeClient *>(C.node(I).mount(Fs.name()));
    if (auto *Rpc = dynamic_cast<RpcClientBase *>(&Probe->inner()))
      R.Retransmits += Rpc->retransmits();
    if (auto *Sc = dynamic_cast<ShardedClient *>(&Probe->inner()))
      R.StaleRetries += Sc->staleMapRetries();
  }
  for (unsigned I = 0; I < Fs.numShards(); ++I) {
    FileServer &Shard = Fs.shard(I);
    R.DrcHits += Shard.drcHits();
    LocalFileSystem *V = Shard.volume(ShardedFs::volumeName(I));
    R.FsckClean = R.FsckClean && V && V->fsck().clean();
    // The crash-pruning bugfix under load: eviction queues track the
    // cache exactly and stay bounded by its capacity.
    R.DrcQueuesInSync =
        R.DrcQueuesInSync && Shard.drcEvictQueueSize() == Shard.drcSize() &&
        Shard.drcEvictQueueSize() <= (1u << 16);
  }

  std::vector<IntervalRow> Rows = intervalSummary(Sub);
  auto MeanOps = [&Rows](double From, double To) {
    double Sum = 0;
    unsigned N = 0;
    for (const IntervalRow &Row : Rows)
      if (Row.TimeSec > From && Row.TimeSec <= To) {
        Sum += Row.OpsPerSec;
        ++N;
      }
    return N ? Sum / N : 0;
  };
  R.BeforeOps = MeanOps(3, 6);
  R.OutageOps = MeanOps(12, 13);
  R.AfterOps = MeanOps(14, 20);
  return R;
}

void reportDegraded(const DegradedResult &R, const DegradedResult &Repeat) {
  std::printf("--- C: kill shard 0 (4 shards, 4x1, crash at t=12s) ---\n");
  TextTable T;
  T.setHeader({"window", "ops/s"});
  T.addRow({"before faults (3-6s)", ops(R.BeforeOps)});
  T.addRow({"crash+partition (12-13s)", ops(R.OutageOps)});
  T.addRow({"after recovery (14-20s)", ops(R.AfterOps)});
  printTable(T);
  std::printf("retransmits=%llu drc-hits=%llu redirects=%llu splits=%llu "
              "uncommitted-at-crash=%llu stale-closes=%llu\n",
              (unsigned long long)R.Retransmits,
              (unsigned long long)R.DrcHits,
              (unsigned long long)R.StaleRetries,
              (unsigned long long)R.Splits,
              (unsigned long long)R.LostAtCrash,
              (unsigned long long)R.Ledger.StaleCloses);

  check(R.CrashFired, "shard 0 crashed mid-run");
  check(R.Ledger.DoubleApplied == 0, "zero double-applied operations");
  check(R.Ledger.LostInCleanup == 0,
        "zero lost operations (cleanup found every acked create)");
  check(R.Ledger.TimedOut == 0, "no operation exhausted its retransmits");
  check(R.Retransmits > 0, "fault plan exercised the retry path");
  check(R.FsckClean, "post-run fsck clean on every shard");
  check(R.DrcQueuesInSync,
        "DRC eviction queues in sync with the caches and bounded");
  check(R.OutageOps < 0.9 * R.BeforeOps,
        "throughput dips while shard 0 is partitioned");
  check(R.AfterOps > 0.8 * R.BeforeOps,
        "throughput recovers after the shard returns");
  check(R.IntervalTsv == Repeat.IntervalTsv,
        "deterministic: repeat run replays an identical interval TSV");
  std::printf("\n");
}

//===----------------------------------------------------------------------===//
// Phase D: schedule invariance
//===----------------------------------------------------------------------===//

bool runScheduleCheck() {
  ScheduleScenario Sc;
  Sc.Name = "sharded-split-storm";
  Sc.Run = [](Scheduler &S) {
    ShardedOptions O;
    O.NumShards = 4;
    O.SplitThreshold = 8;
    auto Fs = std::make_unique<ShardedFs>(S, O);
    Cluster C(S, 2, 4);
    C.mountEverywhere(*Fs);
    BenchParams P;
    P.Operations = {"MakeFiles", "StatFiles", "DeleteFiles"};
    P.ProblemSize = 40;
    P.TimeLimit = seconds(0.3);
    MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
    Master M(C, Env, "sharded", P);
    return canonicalResultText(M.runCombination(2, 2));
  };
  ScheduleVerifyResult R = verifySchedules(Sc);
  std::printf("--- D: verify-schedules (split-heavy scenario) ---\n");
  if (!R.Deterministic)
    std::printf("%s\n", R.Report.c_str());
  check(R.IdentityIdentical, "identity schedule reproduces the baseline");
  check(R.Deterministic,
        format("canonical result invariant under %u permuted schedules",
               R.SchedulesRun));
  std::printf("\n");
  return R.Deterministic && R.IdentityIdentical;
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

std::string jsonLoadSeries(const std::vector<LoadPoint> &Series) {
  std::string S = "[";
  for (size_t I = 0; I < Series.size(); ++I) {
    const LoadPoint &L = Series[I];
    S += format("%s{\"ppn\": %u, \"ops_per_sec\": %.0f, \"splits\": %llu, "
                "\"redirects\": %llu}",
                I ? ", " : "", L.Ppn, L.OpsPerSec,
                (unsigned long long)L.Splits,
                (unsigned long long)L.StaleRetries);
  }
  S += "]";
  return S;
}

void writeJson(const std::string &Path, const SaturationResult &Sat,
               const std::vector<ThresholdPoint> &Curve,
               const DegradedResult &Deg, bool SchedulesOk) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("cannot write %s\n", Path.c_str());
    ++FailedChecks;
    return;
  }
  std::fprintf(F, "{\n  \"bench\": \"sharded_saturation\",\n");
  std::fprintf(F, "  \"host_note\": \"simulated throughputs (deterministic "
                  "event simulation): host-independent\",\n");
  std::fprintf(F, "  \"saturation\": {\n    \"single_mds\": %s,\n"
                  "    \"sharded_4\": %s\n  },\n",
               jsonLoadSeries(Sat.Single).c_str(),
               jsonLoadSeries(Sat.Sharded).c_str());
  std::fprintf(F, "  \"threshold_curve\": [");
  for (size_t I = 0; I < Curve.size(); ++I) {
    const ThresholdPoint &Pt = Curve[I];
    std::fprintf(F,
                 "%s\n    {\"threshold\": %u, \"ops_per_sec\": %.0f, "
                 "\"splits\": %llu, \"migrated\": %llu, \"redirects\": "
                 "%llu}",
                 I ? "," : "", Pt.Threshold, Pt.OpsPerSec,
                 (unsigned long long)Pt.Splits,
                 (unsigned long long)Pt.Migrated,
                 (unsigned long long)Pt.StaleRetries);
  }
  std::fprintf(F, "\n  ],\n");
  std::fprintf(
      F,
      "  \"degraded\": {\"before_ops_per_sec\": %.0f, "
      "\"outage_ops_per_sec\": %.0f, \"after_ops_per_sec\": %.0f, "
      "\"retransmits\": %llu, \"drc_hits\": %llu, \"redirects\": %llu, "
      "\"splits\": %llu, \"uncommitted_at_crash\": %llu, "
      "\"stale_closes\": %llu, \"acked_creates\": %llu},\n",
      Deg.BeforeOps, Deg.OutageOps, Deg.AfterOps,
      (unsigned long long)Deg.Retransmits, (unsigned long long)Deg.DrcHits,
      (unsigned long long)Deg.StaleRetries, (unsigned long long)Deg.Splits,
      (unsigned long long)Deg.LostAtCrash,
      (unsigned long long)Deg.Ledger.StaleCloses,
      (unsigned long long)Deg.Ledger.AckedCreates);
  std::fprintf(F, "  \"verify_schedules\": {\"schedules\": 8, "
                  "\"invariant\": %s}\n}\n",
               SchedulesOk ? "true" : "false");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Out = "BENCH_E30.json";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      Out = Argv[++I];
    else {
      std::printf("usage: %s [--out FILE]\n", Argv[0]);
      return 2;
    }
  }

  banner("E30 bench_sharded_saturation",
         "ROADMAP item 1: scale the MDS (\\S 5.5 outlook)",
         "GIGA+-style sharded metadata service vs. the E08/E09 single-MDS\n"
         "saturation wall; rebalance-cost curve; kill-one-shard degraded "
         "mode;\nschedule-invariance verification.");

  SaturationResult Sat = runSaturation();
  std::vector<ThresholdPoint> Curve = runThresholdCurve();
  DegradedResult Deg = runDegraded();
  DegradedResult DegRepeat = runDegraded();
  reportDegraded(Deg, DegRepeat);
  bool SchedulesOk = runScheduleCheck();
  writeJson(Out, Sat, Curve, Deg, SchedulesOk);

  if (FailedChecks) {
    std::printf("E30: %u check(s) FAILED\n", FailedChecks);
    return 1;
  }
  std::printf("E30: all checks passed\n");
  return 0;
}
