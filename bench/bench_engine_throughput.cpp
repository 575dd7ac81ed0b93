//===- bench/bench_engine_throughput.cpp ----------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E28: the repo's first raw-performance baseline. Two numbers:
///
///   1. raw scheduler events/sec — interleaved self-rescheduling event
///      chains whose callbacks carry a realistic (~40-byte) capture, so
///      the cost measured is exactly the enqueue/dispatch hot path
///      (callback storage, event pooling, heap maintenance). The default
///      of 16 chains matches the tier-1 scenarios' measured pending-set
///      depth (2 nodes x 4 ppn keeps 7-9 events pending; 16 doubles that
///      for headroom) — use --chains to probe deeper queues;
///   2. end-to-end simulated metadata ops per wall-clock second for the
///      two tier-1 Master scenarios (nfs MakeFiles+StatFiles, lustre
///      MakeFiles) at >= 1e6 simulated operations each at full size.
///
/// Unlike every other bench this one measures *host* performance, so its
/// numbers vary by machine; the simulation itself stays deterministic.
/// Writes BENCH_engine.json (see --out) so the perf trajectory of the
/// engine accumulates per PR (tools/run_checks.sh runs a reduced smoke).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace dmbbench;

namespace {

/// Host wall clock, in seconds. The only sanctioned use in the tree:
/// throughput of the engine itself can only be measured against real time.
double wallSeconds() {
  using Clock =
      std::chrono::steady_clock; // dmeta-analyze: allow(wall-clock) host time
  return std::chrono::duration< // dmeta-analyze: allow(wall-clock) host time
             double>(
             Clock::now().time_since_epoch())
      .count();
}

/// One self-rescheduling event chain. The capture (~40 bytes: a pointer,
/// a countdown and three accumulators) models a typical simulation event
/// context — small, but beyond std::function's inline buffer.
struct Chain {
  Scheduler *S = nullptr;
  uint64_t Remaining = 0;
  uint64_t Acc0 = 0, Acc1 = 0, Acc2 = 0;

  void fire() {
    Acc0 += Remaining;
    Acc1 ^= Acc0 >> 3;
    Acc2 += Acc1 & 0xff;
    if (--Remaining == 0)
      return;
    // Varying delays keep many chains interleaved in the queue, so heap
    // maintenance runs against a realistically deep pending set.
    S->after(static_cast<SimDuration>(50 + (Remaining % 17)),
             [C = *this]() mutable { C.fire(); });
  }
};

struct RawResult {
  uint64_t Events = 0;
  double WallSec = 0;
  double EventsPerSec = 0;
};

RawResult rawSchedulerThroughput(uint64_t TargetEvents, unsigned Chains) {
  Scheduler S;
  uint64_t PerChain = TargetEvents / Chains;
  for (unsigned I = 0; I < Chains; ++I) {
    Chain C;
    C.S = &S;
    C.Remaining = PerChain;
    C.Acc0 = I;
    S.after(static_cast<SimDuration>(I), [C]() mutable { C.fire(); });
  }
  double T0 = wallSeconds();
  S.run();
  double T1 = wallSeconds();

  RawResult R;
  R.Events = S.executedEvents();
  R.WallSec = T1 - T0;
  R.EventsPerSec =
      R.WallSec > 0 ? static_cast<double>(R.Events) / R.WallSec : 0;
  return R;
}

struct ScenarioResult {
  uint64_t SimOps = 0;
  double WallSec = 0;
  double OpsPerWallSec = 0;
  double SimOpsPerSec = 0; ///< simulated throughput (determinism check aid)
};

/// Runs one tier-1 Master combination and reports simulated metadata ops
/// retired per wall-clock second — the client-scale number MetaFlow-style
/// studies live on.
ScenarioResult runScenario(const std::string &FsName,
                           std::vector<std::string> Ops,
                           uint64_t ProblemSize, double TimeLimitSec,
                           unsigned Nodes, unsigned Ppn) {
  Scheduler S;
  Cluster C(S, Nodes, 4);
  std::unique_ptr<DistributedFs> Fs;
  if (FsName == "nfs")
    Fs = std::make_unique<NfsFs>(S);
  else
    Fs = std::make_unique<LustreFs>(S);
  C.mountEverywhere(*Fs);

  BenchParams P;
  P.Operations = std::move(Ops);
  // MakeFiles is time-limited (ProblemSize is only the directory
  // rollover); StatFiles is fixed-size at ProblemSize per process.
  P.ProblemSize = ProblemSize;
  P.TimeLimit = seconds(TimeLimitSec);
  MpiEnvironment Env = MpiEnvironment::uniform(Nodes, Ppn + 1);
  Master M(C, Env, Fs->name(), P);

  double T0 = wallSeconds();
  ResultSet Res = M.runCombination(Nodes, Ppn);
  double T1 = wallSeconds();

  ScenarioResult R;
  R.WallSec = T1 - T0;
  double SimSec = 0;
  for (const SubtaskResult &Sub : Res.Subtasks) {
    SubtaskSummary Sum = summarize(Sub);
    R.SimOps += Sum.TotalOps;
    SimSec += Sum.WallClockSec; // "wall" inside the simulation = sim time
  }
  R.OpsPerWallSec =
      R.WallSec > 0 ? static_cast<double>(R.SimOps) / R.WallSec : 0;
  R.SimOpsPerSec = SimSec > 0 ? static_cast<double>(R.SimOps) / SimSec : 0;
  return R;
}

std::string jsonScenario(const ScenarioResult &R) {
  return format("{\"sim_ops\": %llu, \"wall_s\": %.3f, "
                "\"ops_per_wall_sec\": %.0f, \"sim_ops_per_sec\": %.0f}",
                (unsigned long long)R.SimOps, R.WallSec, R.OpsPerWallSec,
                R.SimOpsPerSec);
}

/// Peak resident set size (VmHWM) of this process in kilobytes, or 0 when
/// /proc is not readable.
long readVmHwmKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtol(Line.c_str() + 6, nullptr, 10);
  return 0;
}

struct CurvePoint {
  unsigned Clients = 0;
  unsigned Nodes = 0;
  unsigned Ppn = 0;
  uint64_t SimOps = 0;
  uint64_t Events = 0;
  double WallSec = 0; ///< construction through teardown
  double EventsPerSec = 0;
  long BytesPerClient = 0; ///< the point's own process VmHWM per client
};

/// One scale-out point: a full Master combination with Clients simulated
/// worker processes (8 per node) against a single NFS server. The
/// per-worker problem is kept tiny — the point measures the engine's cost
/// per client (events retired per wall second and bytes of state), not
/// file system throughput. The wall time covers the whole lifecycle, from
/// constructing the cluster to tearing it down.
CurvePoint runCurvePoint(unsigned Clients) {
  CurvePoint Pt;
  Pt.Ppn = 8;
  Pt.Nodes = std::max(1u, Clients / Pt.Ppn);
  Pt.Clients = Pt.Nodes * Pt.Ppn;
  double T0 = wallSeconds();
  {
    Scheduler S;
    Cluster C(S, Pt.Nodes, Pt.Ppn);
    NfsFs Fs(S);
    C.mountEverywhere(Fs);

    BenchParams P;
    P.Operations = {"MakeFiles"};
    P.ProblemSize = 1000;
    P.TimeLimit = seconds(0.01);
    MpiEnvironment Env = MpiEnvironment::uniform(Pt.Nodes, Pt.Ppn + 1);
    Master M(C, Env, Fs.name(), P);

    ResultSet Res = M.runCombination(Pt.Nodes, Pt.Ppn);
    for (const SubtaskResult &Sub : Res.Subtasks)
      Pt.SimOps += summarize(Sub).TotalOps;
    Pt.Events = S.executedEvents();
  }
  Pt.WallSec = wallSeconds() - T0;
  Pt.EventsPerSec =
      Pt.WallSec > 0 ? static_cast<double>(Pt.Events) / Pt.WallSec : 0;
  Pt.BytesPerClient =
      readVmHwmKb() * 1024L / static_cast<long>(Pt.Clients);
  return Pt;
}

/// Runs one curve point in a forked child, so its VmHWM is its own rather
/// than the high-water mark of every point before it. False when the child
/// fails, e.g. when it is killed for running out of memory.
bool runCurvePointInChild(unsigned Clients, CurvePoint &Out) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return false;
  std::fflush(stdout);
  pid_t Pid = fork();
  if (Pid == 0) {
    CurvePoint Pt = runCurvePoint(Clients);
    _exit(write(Fds[1], &Pt, sizeof Pt) == sizeof Pt ? 0 : 1);
  }
  // The parent closes its write end so that a child that dies without
  // writing ends the read below. Closing a pipe end loses no data, so
  // neither close is checked.
  (void)close(Fds[1]);
  // One write of less than PIPE_BUF bytes arrives whole or not at all.
  bool Got = Pid > 0 && read(Fds[0], &Out, sizeof Out) == sizeof Out;
  (void)close(Fds[0]);
  int Status = 0;
  if (Pid > 0)
    waitpid(Pid, &Status, 0);
  return Got && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t RawEvents = 4000000;
  uint64_t Chains = 16;
  // Defaults put each scenario at 1e6+ simulated metadata ops: MakeFiles
  // runs the full time limit at the servers' saturation rate; StatFiles
  // adds ProblemSize fixed-size stats per worker process.
  uint64_t ProblemSize = 65536;
  double TimeLimitSec = 75.0;
  uint64_t CurveMax = 1048576;
  std::string Out = "BENCH_engine.json";
  std::string Label = "current";

  // Every option takes exactly one value, so a flag without one leaves
  // an even argument count.
  bool Ok = Argc % 2 == 1;
  for (int I = 1; Ok && I + 1 < Argc; I += 2) {
    std::string Arg = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (Arg == "--events")
      Ok = parseUnsigned(V, RawEvents);
    else if (Arg == "--chains")
      Ok = parseUnsigned(V, Chains);
    else if (Arg == "--problemsize")
      Ok = parseUnsigned(V, ProblemSize);
    else if (Arg == "--timelimit") {
      TimeLimitSec = std::strtod(V.c_str(), &End);
      Ok = !V.empty() && *End == '\0';
    } else if (Arg == "--curve-max")
      Ok = parseUnsigned(V, CurveMax);
    else if (Arg == "--out")
      Out = V;
    else if (Arg == "--label")
      Label = V;
    else
      Ok = false;
  }
  // Every chain fires at least one event: with fewer events than chains,
  // some chain would start its countdown at zero and never stop.
  if (!Ok || Chains == 0 || Chains > UINT32_MAX || RawEvents < Chains) {
    std::fprintf(stderr,
                 "usage: bench_engine_throughput [--events N] [--chains N]"
                 " [--problemsize N] [--timelimit SEC] [--curve-max N]"
                 " [--out FILE] [--label NAME]\n"
                 "  N is a whole number; 1 <= --chains <= --events\n");
    return 2;
  }

  banner("E28-engine-throughput", "ROADMAP north star",
         "Raw scheduler events/sec and end-to-end simulated metadata "
         "ops per wall-clock second (nfs + lustre tier-1 scenarios)");

  // Clients-vs-throughput scale curve: geometric client counts up to
  // --curve-max, each a full Master combination in its own child process.
  // The curve runs first, so each child starts from a parent that holds
  // almost nothing.
  std::vector<CurvePoint> Curve;
  bool CurveOk = true;
  for (uint64_t Clients : {1024ull, 4096ull, 16384ull, 65536ull, 262144ull,
                           1048576ull}) {
    if (Clients > CurveMax)
      break;
    CurvePoint Pt;
    if (!runCurvePointInChild(static_cast<unsigned>(Clients), Pt)) {
      std::fprintf(stderr, "scale %7llu clients: child process failed\n",
                   (unsigned long long)Clients);
      CurveOk = false;
      break;
    }
    std::printf("scale %7u clients (%6u nodes x %u): %llu sim ops, "
                "%llu events in %.3f s -> %.0f events/s, %ld B/client\n",
                Pt.Clients, Pt.Nodes, Pt.Ppn,
                (unsigned long long)Pt.SimOps,
                (unsigned long long)Pt.Events, Pt.WallSec, Pt.EventsPerSec,
                Pt.BytesPerClient);
    Curve.push_back(Pt);
  }

  RawResult Raw =
      rawSchedulerThroughput(RawEvents, static_cast<unsigned>(Chains));
  std::printf("raw scheduler: %llu events in %.3f s -> %.0f events/s\n",
              (unsigned long long)Raw.Events, Raw.WallSec,
              Raw.EventsPerSec);

  ScenarioResult Nfs = runScenario("nfs", {"MakeFiles", "StatFiles"},
                                   ProblemSize, TimeLimitSec, 2, 4);
  std::printf("nfs MakeFiles+StatFiles: %llu sim ops in %.3f s wall -> "
              "%.0f ops/s wall (sim rate %.0f ops/s)\n",
              (unsigned long long)Nfs.SimOps, Nfs.WallSec,
              Nfs.OpsPerWallSec, Nfs.SimOpsPerSec);

  ScenarioResult Lustre =
      runScenario("lustre", {"MakeFiles"}, ProblemSize, TimeLimitSec, 2, 4);
  std::printf("lustre MakeFiles: %llu sim ops in %.3f s wall -> "
              "%.0f ops/s wall (sim rate %.0f ops/s)\n",
              (unsigned long long)Lustre.SimOps, Lustre.WallSec,
              Lustre.OpsPerWallSec, Lustre.SimOpsPerSec);

  std::string CurveJson = "[";
  for (size_t I = 0; I < Curve.size(); ++I) {
    const CurvePoint &Pt = Curve[I];
    CurveJson += format("%s\n    {\"clients\": %u, \"nodes\": %u, "
                        "\"ppn\": %u, \"sim_ops\": %llu, \"events\": %llu, "
                        "\"wall_s\": %.3f, \"events_per_sec\": %.0f, "
                        "\"vmhwm_bytes_per_client\": %ld}",
                        I ? "," : "", Pt.Clients, Pt.Nodes, Pt.Ppn,
                        (unsigned long long)Pt.SimOps,
                        (unsigned long long)Pt.Events, Pt.WallSec,
                        Pt.EventsPerSec, Pt.BytesPerClient);
  }
  CurveJson += "\n  ]";

  std::string Json = format(
      "{\n"
      "  \"bench\": \"engine_throughput\",\n"
      "  \"label\": \"%s\",\n"
      "  \"config\": {\"raw_events\": %llu, \"chains\": %u,\n"
      "             \"problemsize\": %llu, \"timelimit_s\": %.1f},\n"
      "  \"raw_scheduler\": {\"events\": %llu, \"wall_s\": %.3f, "
      "\"events_per_sec\": %.0f},\n"
      "  \"nfs_makefiles_statfiles\": %s,\n"
      "  \"lustre_makefiles\": %s,\n"
      "  \"scale_curve\": %s\n"
      "}\n",
      Label.c_str(), (unsigned long long)RawEvents, (unsigned)Chains,
      (unsigned long long)ProblemSize, TimeLimitSec,
      (unsigned long long)Raw.Events, Raw.WallSec, Raw.EventsPerSec,
      jsonScenario(Nfs).c_str(), jsonScenario(Lustre).c_str(),
      CurveJson.c_str());

  std::ofstream(Out) << Json;
  std::printf("\nwrote %s\n", Out.c_str());
  return CurveOk ? 0 : 1;
}
