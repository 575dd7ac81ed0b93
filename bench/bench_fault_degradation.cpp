//===- bench/bench_fault_degradation.cpp - E29: faults & resilience -------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E29: MakeFiles under injected network faults and a mid-run MDS crash.
/// Four nodes run MakeFiles on NFS and on Lustre with resilient clients
/// (RetryPolicy enabled). The fault plan:
///
///   t = 10s..20s  both directions of every client link drop 60% of
///                 messages (a flaky switch);
///   t = 30s       the metadata server crashes and recovers by replaying
///                 its journal;
///   t = 30s..32s  full partition (100% loss) covering the outage, so
///                 in-flight replies are lost and clients fail over to
///                 retransmission.
///
/// The interval log shows the \S 3.2.5 signature: a throughput dip with a
/// COV spike during the loss window and the outage, and full recovery
/// after each. A correctness ledger checks exactly-once execution
/// end-to-end: an operation acked to the benchmark is never lost by the
/// crash (journal commit precedes the ack), and a retransmitted create is
/// never double-applied (duplicate-request cache). Stale-handle EBADF
/// closes — opens whose handle died with the crashed server — are counted
/// separately; they are real-world behaviour, not a consistency violation.
/// The run is deterministic: the same seed reproduces the same interval
/// TSV, which the bench verifies by running each scenario twice.
///
/// Exits nonzero when the ledger, the post-run fsck, or the determinism
/// check fails, so CI can use this binary as the fault-injection smoke.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include <memory>
#include <vector>

using namespace dmbbench;

namespace {

/// End-to-end consistency counters, maintained by ProbeClient.
struct FaultLedger {
  uint64_t AckedCreates = 0;  ///< successful create-like ops in the bench
  uint64_t DoubleApplied = 0; ///< EEXIST on a unique-path create/mkdir
  uint64_t StaleCloses = 0;   ///< EBADF close of a handle lost in the crash
  uint64_t TimedOut = 0;      ///< retransmits exhausted (should be none)
  uint64_t LostInCleanup = 0; ///< ENOENT unlink: an acked create vanished
};

/// Transparent mount wrapper counting per-reply ledger events. MakeFiles
/// paths are unique, so any bench-phase EEXIST means a retransmit was
/// double-applied, and cleanup's unlink of every acked create turns a
/// lost file into an ENOENT.
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
    // fault plan only becomes active at t=10s, so gate on the bench phase.
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

/// The E29 client profile: 60%-loss window, outage partition, retries.
void configureFaults(ClientConfig &Client) {
  Client.Net.Faults.Seed = 7;
  Client.Net.Faults.Windows = {
      {seconds(10.0), seconds(20.0), /*DropProbability=*/0.6},
      {seconds(30.0), seconds(32.0), /*DropProbability=*/1.0},
  };
  Client.Retry.Timeout = milliseconds(25);
  // Enough attempts that the backoff train always outlives the loss
  // windows: the first post-window attempt cannot be dropped, so no
  // operation ever exhausts its retransmits.
  Client.Retry.MaxRetransmits = 30;
}

struct ScenarioResult {
  SubtaskResult Bench;
  FaultLedger Ledger;
  std::string IntervalTsv;
  uint64_t Retransmits = 0;
  uint64_t DrcHits = 0;
  uint64_t UncommittedAtCrash = 0; ///< journal records lost by the crash
  bool FsckClean = false;
};

ScenarioResult runScenario(bool Lustre) {
  Scheduler S;
  Cluster C(S, 4, 8);
  ScenarioResult R;

  std::unique_ptr<DistributedFs> Fs;
  FileServer *Server = nullptr;
  const char *Vol = nullptr;
  if (Lustre) {
    LustreOptions O;
    configureFaults(O.Client);
    // Size the DRC to cover the whole retransmit horizon: at full rate the
    // default 1024 entries recycle faster than a backed-off retransmit
    // returns, which would re-execute the op (the real-world sizing rule).
    O.Mds.DuplicateRequestCacheSize = 1 << 16;
    auto L = std::make_unique<LustreFs>(S, O);
    Server = &L->mds();
    Vol = LustreFs::VolumeName;
    Fs = std::move(L);
  } else {
    NfsOptions O;
    configureFaults(O.Client);
    O.Server.DuplicateRequestCacheSize = 1 << 16;
    auto N = std::make_unique<NfsFs>(S, O);
    Server = &N->server();
    Vol = NfsFs::VolumeName;
    Fs = std::move(N);
  }
  Server->enableJournal();

  std::vector<ProbeClient *> Probes;
  for (unsigned I = 0; I < C.numNodes(); ++I) {
    auto P = std::make_unique<ProbeClient>(Fs->makeClient(I), S, R.Ledger);
    Probes.push_back(P.get());
    C.node(I).addMount(Fs->name(), std::move(P));
  }

  // The crash reaches the server through the uniform admin surface — the
  // bench needs no knowledge of which model it is driving.
  ServerCrash Crash(S, *Fs->admin(), Vol, seconds(30.0));

  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.TimeLimit = seconds(60.0);
  P.ProblemSize = 100000;
  P.HarnessOverheadPerCall = microseconds(60);
  ResultSet Res = runCombo(C, Fs->name(), P, 4, 1);
  R.Bench = Res.Subtasks.at(0);
  R.IntervalTsv = intervalSummaryTsv(R.Bench);
  R.UncommittedAtCrash = Crash.fired() ? Crash.lostRecords() : 0;

  for (ProbeClient *P2 : Probes)
    if (auto *Rpc = dynamic_cast<RpcClientBase *>(&P2->inner()))
      R.Retransmits += Rpc->retransmits();
  R.DrcHits = Server->drcHits();
  LocalFileSystem *V = Server->volume(Vol);
  R.FsckClean = V && V->fsck().clean();
  return R;
}

double meanOf(const std::vector<IntervalRow> &Rows, double FromSec,
              double ToSec, double IntervalRow::*Field) {
  double Sum = 0;
  unsigned N = 0;
  for (const IntervalRow &Row : Rows)
    if (Row.TimeSec > FromSec && Row.TimeSec <= ToSec) {
      Sum += Row.*Field;
      ++N;
    }
  return N ? Sum / N : 0;
}

/// Prints one scenario and returns the number of failed checks.
unsigned report(const char *Name, const ScenarioResult &R,
                const ScenarioResult &Repeat) {
  std::vector<IntervalRow> Rows = intervalSummary(R.Bench);
  TextTable T;
  T.setHeader({"window", "ops/s", "COV"});
  struct Window {
    const char *Label;
    double From, To;
  } Windows[] = {{"before faults (4-10s)", 4, 10},
                 {"60% loss (10-20s)", 10, 20},
                 {"recovered (22-30s)", 22, 30},
                 {"crash+partition (30-32s)", 30, 32},
                 {"after recovery (33-60s)", 33, 60}};
  std::printf("--- %s ---\n", Name);
  for (const Window &W : Windows)
    T.addRow({W.Label,
              ops(meanOf(Rows, W.From, W.To, &IntervalRow::OpsPerSec)),
              format("%.3f", meanOf(Rows, W.From, W.To,
                                    &IntervalRow::PerProcCov))});
  printTable(T);
  std::printf("%s\n", renderTimeChart(R.Bench).c_str());
  std::printf("retransmits=%llu drc-hits=%llu uncommitted-at-crash=%llu "
              "stale-closes=%llu timed-out=%llu\n",
              (unsigned long long)R.Retransmits,
              (unsigned long long)R.DrcHits,
              (unsigned long long)R.UncommittedAtCrash,
              (unsigned long long)R.Ledger.StaleCloses,
              (unsigned long long)R.Ledger.TimedOut);

  unsigned Failed = 0;
  auto Check = [&](bool Ok, const char *What) {
    std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What);
    if (!Ok)
      ++Failed;
  };
  Check(R.Ledger.DoubleApplied == 0, "zero double-applied operations");
  Check(R.Ledger.LostInCleanup == 0, "zero lost operations (cleanup found "
                                     "every acked create)");
  Check(R.Ledger.TimedOut == 0, "no operation exhausted its retransmits");
  Check(R.FsckClean, "post-run fsck clean");
  Check(R.Retransmits > 0, "fault plan exercised the retry path");
  double Before = meanOf(Rows, 4, 10, &IntervalRow::OpsPerSec);
  double Loss = meanOf(Rows, 10, 20, &IntervalRow::OpsPerSec);
  double After = meanOf(Rows, 33, 60, &IntervalRow::OpsPerSec);
  Check(Loss < 0.9 * Before, "throughput dips during the loss window");
  Check(After > 0.8 * Before, "throughput recovers after the faults");
  Check(R.IntervalTsv == Repeat.IntervalTsv,
        "deterministic: repeat run produced an identical interval TSV");
  std::printf("\n");
  return Failed;
}

} // namespace

int main() {
  banner("E29 bench_fault_degradation", "\\S 3.2.5 signature under faults",
         "MakeFiles, 4 nodes x 1 ppn on NFS and Lustre; 60% message loss "
         "t=10-20s,\nMDS crash + 2s partition at t=30s; resilient clients "
         "(25ms timeout, exp. backoff).");

  unsigned Failed = 0;
  {
    ScenarioResult Nfs = runScenario(/*Lustre=*/false);
    ScenarioResult NfsRepeat = runScenario(/*Lustre=*/false);
    Failed += report("nfs", Nfs, NfsRepeat);
  }
  {
    ScenarioResult Lustre = runScenario(/*Lustre=*/true);
    ScenarioResult LustreRepeat = runScenario(/*Lustre=*/true);
    Failed += report("lustre", Lustre, LustreRepeat);
  }
  if (Failed) {
    std::printf("E29: %u check(s) FAILED\n", Failed);
    return 1;
  }
  std::printf("E29: all checks passed\n");
  return 0;
}
