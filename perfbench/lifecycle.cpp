//===- perfbench/lifecycle.cpp - One benchmark lifecycle per process ------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the repository benchmark through the public library
/// API, once, in a fresh process: Scheduler, model, Cluster,
/// mountEverywhere, Master, runCombination, then destruction. It prints one
/// JSON object with the lifecycle's host timings, its peak RSS, the digest
/// of the canonical result, the fsck verdict of every server volume and the
/// deterministic work counts of each layer. perfbench/run.py starts this
/// binary repeatedly, aggregates medians and checks the outputs.
///
/// With --trace the deployment is wrapped in a bench-side DistributedFs
/// decorator whose clients record a span around every ClientFs::submit and
/// around every reply callback. Spans of one operation share its id; a
/// span's self time is its duration minus its nested spans. The decorator
/// also captures the client request stream, which is replayed afterwards
/// through FileServer::execute on a fresh LocalFileSystem to measure the
/// fs layer alone.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

using namespace dmb;

namespace {

/// Host monotonic time in nanoseconds.
int64_t hostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double nsToS(int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

/// Peak resident set size of this process in kilobytes (VmHWM).
long readVmHwmKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtol(Line.c_str() + 6, nullptr, 10);
  return 0;
}

/// FNV-1a 64-bit: the digest of the canonical result text.
uint64_t fnv1a(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Model { Nfs, Sharded };

/// One benchmark workload: a model, a cluster shape and the plugin phases.
struct WorkloadSpec {
  const char *Name;
  Model Kind;
  unsigned Nodes;
  unsigned Ppn;
  std::vector<std::string> Operations;
  uint64_t ProblemSize;
  double TimeLimitSec;
};

const std::vector<WorkloadSpec> &workloads() {
  // Sizes and the reasons for them are in perfbench/README.md.
  static const std::vector<WorkloadSpec> All = {
      {"nfs-create-stat", Model::Nfs, 2, 4, {"MakeFiles", "StatFiles"},
       32768, 30.0},
      {"nfs-fanout-64k", Model::Nfs, 8192, 8, {"MakeFiles"}, 1000, 0.01},
      {"sharded-writebehind", Model::Sharded, 4, 4,
       {"MakeFiles", "StatFiles"}, 4096, 1.0},
  };
  return All;
}

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

enum SpanKind : uint8_t { SubmitSpan = 0, ReplySpan = 1 };

struct Span {
  uint64_t Op = 0;
  uint32_t Parent = ~0u; ///< index of the enclosing span, ~0u at top level
  SpanKind Kind = SubmitSpan;
  int64_t Start = 0;
  int64_t End = 0;
  int64_t Self = 0;
};

/// One captured client request, compact: strings live in one arena.
struct CapturedRequest {
  MetaOp Op = MetaOp::Stat;
  uint32_t Client = 0; ///< node index: file handles are per client
  Cred Creds;
  uint32_t Flags = 0;
  uint32_t Mode = 0;
  uint32_t Uid = 0;
  uint32_t Gid = 0;
  FileHandle Fh = InvalidHandle;
  FileHandle ReplyFh = InvalidHandle;
  uint64_t Bytes = 0;
  SimTime When = 0;
  SimTime Atime = 0;
  SimTime Mtime = 0;
  uint64_t Text[3][2] = {}; ///< (offset, length) of Path, Path2, Value
};

/// In-memory span and request recorder; written out after the run.
class Tracer {
public:
  uint64_t newOp() { return ++LastOp; }

  uint32_t begin(SpanKind Kind, uint64_t Op) {
    Span S;
    S.Op = Op;
    S.Kind = Kind;
    S.Parent = Open.empty() ? ~0u : Open.back().Index;
    uint32_t Index = static_cast<uint32_t>(Spans.size());
    Open.push_back({Index, 0});
    S.Start = hostNs();
    Spans.push_back(S);
    return Index;
  }

  void end(uint32_t Index) {
    int64_t Now = hostNs();
    DMB_CHECK(!Open.empty() && Open.back().Index == Index,
              "spans must close in LIFO order");
    Span &S = Spans[Index];
    S.End = Now;
    int64_t Dur = S.End - S.Start;
    S.Self = Dur - Open.back().ChildNs;
    Open.pop_back();
    if (Open.empty())
      TopLevelNs += Dur;
    else
      Open.back().ChildNs += Dur;
  }

  size_t capture(unsigned Client, const MetaRequest &R, SimTime When) {
    CapturedRequest C;
    C.Op = R.Op;
    C.Client = Client;
    C.Creds = R.Creds;
    C.Flags = R.Flags;
    C.Mode = R.Mode;
    C.Uid = R.Uid;
    C.Gid = R.Gid;
    C.Fh = R.Fh;
    C.Bytes = R.Bytes;
    C.When = When;
    C.Atime = R.Atime;
    C.Mtime = R.Mtime;
    const std::string *Texts[3] = {&R.Path, &R.Path2, &R.Value};
    for (int I = 0; I < 3; ++I) {
      C.Text[I][0] = Arena.size();
      C.Text[I][1] = Texts[I]->size();
      Arena += *Texts[I];
    }
    Requests.push_back(C);
    return Requests.size() - 1;
  }

  void noteReply(size_t Req, const MetaReply &Reply, SimDuration Latency) {
    Requests[Req].ReplyFh = Reply.Fh;
    if (!Reply.ok())
      ++ReplyErrors;
    LatencySim.push_back(Latency);
  }

  MetaRequest rebuild(const CapturedRequest &C) const {
    MetaRequest R;
    R.Op = C.Op;
    R.Creds = C.Creds;
    R.Flags = C.Flags;
    R.Mode = C.Mode;
    R.Uid = C.Uid;
    R.Gid = C.Gid;
    R.Fh = C.Fh;
    R.Bytes = C.Bytes;
    R.Atime = C.Atime;
    R.Mtime = C.Mtime;
    R.Path.assign(Arena, C.Text[0][0], C.Text[0][1]);
    R.Path2.assign(Arena, C.Text[1][0], C.Text[1][1]);
    R.Value.assign(Arena, C.Text[2][0], C.Text[2][1]);
    return R;
  }

  const std::deque<Span> &spans() const { return Spans; }
  const std::deque<CapturedRequest> &requests() const { return Requests; }
  std::vector<SimDuration> &latencies() { return LatencySim; }
  int64_t topLevelNs() const { return TopLevelNs; }
  uint64_t replyErrors() const { return ReplyErrors; }

private:
  struct OpenSpan {
    uint32_t Index;
    int64_t ChildNs;
  };
  uint64_t LastOp = 0;
  std::deque<Span> Spans;
  std::vector<OpenSpan> Open;
  int64_t TopLevelNs = 0;
  uint64_t ReplyErrors = 0;
  std::deque<CapturedRequest> Requests;
  std::string Arena;
  std::vector<SimDuration> LatencySim;
};

/// Client decorator: spans around submit and the reply callback.
class TracingClient final : public ClientFs {
public:
  TracingClient(std::unique_ptr<ClientFs> Inner, unsigned NodeIndex,
                Scheduler &Sched, Tracer &T)
      : Inner(std::move(Inner)), NodeIndex(NodeIndex), Sched(Sched), T(T) {}

  void submit(const MetaRequest &Req, Callback Done) override {
    uint64_t Op = T.newOp();
    size_t Captured = T.capture(NodeIndex, Req, Sched.now());
    SimTime Issued = Sched.now();
    uint32_t Outer = T.begin(SubmitSpan, Op);
    Inner->submit(Req, [this, Op, Captured, Issued,
                        Done = std::move(Done)](MetaReply Reply) {
      T.noteReply(Captured, Reply, Sched.now() - Issued);
      uint32_t Span = T.begin(ReplySpan, Op);
      Done(std::move(Reply));
      T.end(Span);
    });
    T.end(Outer);
  }

  std::string describe() const override { return Inner->describe(); }
  void dropCaches() override { Inner->dropCaches(); }
  CacheStats cacheStats() const override { return Inner->cacheStats(); }
  uint64_t crashAndRecover(const std::string &Volume) override {
    return Inner->crashAndRecover(Volume);
  }

  ClientFs &inner() { return *Inner; }

private:
  std::unique_ptr<ClientFs> Inner;
  unsigned NodeIndex;
  Scheduler &Sched;
  Tracer &T;
};

/// Deployment decorator handing out TracingClients.
class TracingFs final : public DistributedFs {
public:
  TracingFs(DistributedFs &Inner, Scheduler &Sched, Tracer &T)
      : Inner(Inner), Sched(Sched), T(T) {}

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override {
    return std::make_unique<TracingClient>(Inner.makeClient(NodeIndex),
                                           NodeIndex, Sched, T);
  }
  std::string name() const override { return Inner.name(); }
  FsAdmin *admin() override { return Inner.admin(); }

private:
  DistributedFs &Inner;
  Scheduler &Sched;
  Tracer &T;
};

//===----------------------------------------------------------------------===//
// One lifecycle
//===----------------------------------------------------------------------===//

/// Everything a lifecycle constructs, destroyed in the order Master, Fs,
/// Cluster, Scheduler.
struct Deployment {
  std::unique_ptr<Scheduler> Sched;
  std::unique_ptr<DistributedFs> Fs;
  std::unique_ptr<TracingFs> Wrapped;
  std::unique_ptr<Cluster> C;
  std::unique_ptr<Master> M;

  void destroy() {
    M.reset();
    Wrapped.reset();
    Fs.reset();
    C.reset();
    Sched.reset();
  }

  /// Every server of the model with the volume it exports.
  std::vector<std::pair<FileServer *, std::string>> servers() {
    std::vector<std::pair<FileServer *, std::string>> Out;
    if (auto *N = dynamic_cast<NfsFs *>(Fs.get()))
      Out.emplace_back(&N->server(), NfsFs::VolumeName);
    if (auto *Sh = dynamic_cast<ShardedFs *>(Fs.get()))
      for (unsigned I = 0; I < Sh->numShards(); ++I)
        Out.emplace_back(&Sh->shard(I), ShardedFs::volumeName(I));
    return Out;
  }

  /// The model's client on every node, with the tracing decorator removed.
  std::vector<ClientFs *> clients() {
    std::vector<ClientFs *> Out;
    for (unsigned I = 0; I < C->numNodes(); ++I) {
      ClientFs *Cl = C->node(I).mount(Fs->name());
      if (auto *T = dynamic_cast<TracingClient *>(Cl))
        Cl = &T->inner();
      Out.push_back(Cl);
    }
    return Out;
  }
};

Deployment setUp(const WorkloadSpec &W, uint64_t Seed, Tracer *T) {
  Deployment D;
  D.Sched = std::make_unique<Scheduler>();
  if (Seed)
    D.Sched->enableSchedulePerturbation(Seed);
  if (W.Kind == Model::Nfs) {
    D.Fs = std::make_unique<NfsFs>(*D.Sched);
  } else {
    ShardedOptions O;
    O.NumShards = 4;
    O.SplitThreshold = 512;
    O.Client.WriteBehind.Enabled = true;
    O.Client.WriteBehind.DeferIssue = true;
    D.Fs = std::make_unique<ShardedFs>(*D.Sched, O);
  }
  DistributedFs *Mounted = D.Fs.get();
  if (T) {
    D.Wrapped = std::make_unique<TracingFs>(*D.Fs, *D.Sched, *T);
    Mounted = D.Wrapped.get();
  }
  D.C = std::make_unique<Cluster>(*D.Sched, W.Nodes, W.Ppn);
  D.C->mountEverywhere(*Mounted);
  BenchParams P;
  P.Operations = W.Operations;
  // MakeFiles is time-limited (ProblemSize is only its directory
  // rollover); StatFiles is fixed-size at ProblemSize per process.
  P.ProblemSize = W.ProblemSize;
  P.TimeLimit = seconds(W.TimeLimitSec);
  D.M = std::make_unique<Master>(*D.C, MpiEnvironment::uniform(W.Nodes,
                                                               W.Ppn + 1),
                                 Mounted->name(), P);
  return D;
}

/// Deterministic counts, rendered in a fixed key order.
using Counts = std::map<std::string, uint64_t>;

struct FsReplay {
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  OpCost Cost;
  uint64_t PeakInodes = 0;
  int64_t WallNs = 0;
};

FsConfig volumeConfig(Model Kind) {
  return Kind == Model::Nfs ? makeFilerConfig().VolumeDefaults
                            : makeShardConfig().VolumeDefaults;
}

/// Replays the captured client request stream, in submit order, through
/// FileServer::execute on a fresh volume, mapping each open's recorded
/// handle to the handle the replay volume returns.
FsReplay replay(const Tracer &T, Model Kind) {
  LocalFileSystem Vol(volumeConfig(Kind));
  std::vector<std::unordered_map<FileHandle, FileHandle>> HandleMap;
  FsReplay Out;
  int64_t T0 = hostNs();
  for (const CapturedRequest &C : T.requests()) {
    MetaRequest R = T.rebuild(C);
    if (C.Client >= HandleMap.size())
      HandleMap.resize(C.Client + 1);
    auto &Handles = HandleMap[C.Client];
    if (R.Fh != InvalidHandle) {
      auto It = Handles.find(R.Fh);
      R.Fh = It == Handles.end() ? InvalidHandle : It->second;
    }
    MetaReply Reply = FileServer::execute(Vol, R, C.When, Out.Cost);
    if (!Reply.ok())
      ++Out.Errors;
    if (C.ReplyFh != InvalidHandle && Reply.Fh != InvalidHandle)
      Handles[C.ReplyFh] = Reply.Fh;
    Out.PeakInodes = std::max(Out.PeakInodes, Vol.numInodes());
    ++Out.Requests;
  }
  Out.WallNs = hostNs() - T0;
  return Out;
}

/// Self-rescheduling chain for the raw scheduler loop; the capture is of
/// the size of a typical simulation event context.
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
    S->after(static_cast<SimDuration>(50 + (Remaining % 17)),
             [C = *this]() mutable { C.fire(); });
  }
};

/// Host nanoseconds per event of a bare Scheduler::after/run loop with as
/// many interleaved chains as the workload has workers.
double rawEventNs(unsigned Chains) {
  const uint64_t Target = 1ull << 21;
  uint64_t PerChain = std::max<uint64_t>(2, Target / Chains);
  Scheduler S;
  for (unsigned I = 0; I < Chains; ++I) {
    Chain C;
    C.S = &S;
    C.Remaining = PerChain;
    C.Acc0 = I;
    S.after(static_cast<SimDuration>(I % 64), [C]() mutable { C.fire(); });
  }
  int64_t T0 = hostNs();
  S.run();
  int64_t Wall = hostNs() - T0;
  return static_cast<double>(Wall) / static_cast<double>(S.executedEvents());
}

double percentile(std::vector<int64_t> &V, double Q) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(Q * static_cast<double>(V.size() - 1));
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return static_cast<double>(V[K]);
}

/// Writes the first \p Limit spans in the Chrome trace-event format
/// (chrome://tracing, Perfetto): one complete event per span, timestamps
/// in microseconds from the first span, the op id and parent span in args.
void writeSpans(const Tracer &T, const std::string &Path, size_t Limit) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  int64_t Origin = T.spans().empty() ? 0 : T.spans().front().Start;
  std::fprintf(F, "{\"traceEvents\": [");
  size_t Index = 0;
  for (const Span &S : T.spans()) {
    if (Index == Limit)
      break;
    std::fprintf(F,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"op\": %llu, \"parent\": %lld, "
                 "\"self_ns\": %lld}}",
                 Index ? "," : "",
                 S.Kind == SubmitSpan ? "dfs.submit" : "core.reply",
                 static_cast<double>(S.Start - Origin) / 1e3,
                 static_cast<double>(S.End - S.Start) / 1e3, Index,
                 (unsigned long long)S.Op,
                 S.Parent == ~0u ? -1LL : (long long)S.Parent,
                 (long long)S.Self);
    ++Index;
  }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-lifecycle --workload NAME --seed N "
               "[--setup-only | [--digest] [--trace [--spans FILE]]]\n");
  return 2;
}

/// Digest of the canonical text of each subtask, keyed by operation.
std::string subtaskDigests(const ResultSet &Res) {
  std::string Out;
  for (const SubtaskResult &Sub : Res.Subtasks) {
    ResultSet One;
    One.Subtasks.push_back(Sub);
    Out += format("%s\"%s\": \"%016llx\"", Out.empty() ? "" : ", ",
                  Sub.Operation.c_str(),
                  (unsigned long long)fnv1a(canonicalResultText(One)));
  }
  return "{" + Out + "}";
}

/// The deterministic work counts of every layer after a run.
Counts collectCounts(Deployment &D, const ResultSet &Res,
                     uint64_t &FsckErrors) {
  Counts K;
  uint64_t SimOps = 0, Failed = 0;
  for (const SubtaskResult &Sub : Res.Subtasks)
    for (const ProcessTrace &P : Sub.Processes) {
      SimOps += P.TotalOps;
      Failed += P.FailedRequests;
    }
  K["core.sim_ops"] = SimOps;
  K["core.failed_requests"] = Failed;
  K["sim.events"] = D.Sched->executedEvents();
  K["sim.event_pool"] = D.Sched->eventPoolCapacity();

  uint64_t Rpcs = 0, BusyNs = 0;
  FsckErrors = 0;
  for (auto &[S, VolName] : D.servers()) {
    Rpcs += S->processedRequests();
    BusyNs += static_cast<uint64_t>(S->cpu().totalBusyTime());
    LocalFileSystem *Vol = S->volume(VolName);
    FsckErrors += Vol ? Vol->fsck().Errors.size() : 1;
  }
  K["dfs.rpcs"] = Rpcs;
  K["sim.server_busy_sim_ns"] = BusyNs;

  uint64_t Msgs = 0, Bytes = 0, Retrans = 0, TimedOut = 0, Hits = 0,
           Misses = 0, Coalesced = 0, Flushes = 0, Issued = 0, Stale = 0;
  for (ClientFs *Cl : D.clients()) {
    FsAdmin::CacheStats CS = Cl->cacheStats();
    Hits += CS.Hits;
    Misses += CS.Misses;
    if (auto *R = dynamic_cast<RpcClientBase *>(Cl)) {
      Msgs += R->requestLink().messagesSent() + R->replyLink().messagesSent();
      Bytes += R->requestLink().bytesSent() + R->replyLink().bytesSent();
      Retrans += R->retransmits();
      TimedOut += R->timedOutOps();
    }
    const WriteBehindQueue *WB = nullptr;
    if (auto *N = dynamic_cast<NfsClient *>(Cl))
      WB = N->writeBehind();
    if (auto *Sh = dynamic_cast<ShardedClient *>(Cl)) {
      WB = Sh->writeBehind();
      Stale += Sh->staleMapRetries();
    }
    if (WB) {
      Coalesced += WB->coalescedOps();
      Flushes += WB->flushes();
      Issued += WB->issuedOps();
    }
  }
  K["sim.net_messages"] = Msgs;
  K["sim.net_bytes"] = Bytes;
  K["dfs.retransmits"] = Retrans;
  K["dfs.timed_out"] = TimedOut;
  K["dfs.attr_hits"] = Hits;
  K["dfs.attr_misses"] = Misses;
  K["dfs.wb_coalesced"] = Coalesced;
  K["dfs.wb_flushes"] = Flushes;
  K["dfs.wb_issued"] = Issued;
  K["dfs.stale_retries"] = Stale;
  auto *Sh = dynamic_cast<ShardedFs *>(D.Fs.get());
  K["dfs.splits"] = Sh ? Sh->splitCount() : 0;
  K["dfs.migrated"] = Sh ? Sh->migratedEntries() : 0;
  return K;
}

/// Span self times, the fs replay and the raw scheduler loop of a traced
/// lifecycle whose run phase took \p RunNs. Adds the traced counts to \p K.
std::string traceReport(Tracer &T, const WorkloadSpec &W, int64_t RunNs,
                        Counts &K) {
  std::vector<int64_t> SubmitNs, ReplyNs;
  int64_t SubmitSelf = 0, ReplySelf = 0;
  for (const Span &S : T.spans()) {
    std::vector<int64_t> &Into = S.Kind == SubmitSpan ? SubmitNs : ReplyNs;
    Into.push_back(S.Self);
    (S.Kind == SubmitSpan ? SubmitSelf : ReplySelf) += S.Self;
  }
  std::vector<int64_t> Lat(T.latencies().begin(), T.latencies().end());
  K["dfs.submits"] = SubmitNs.size();
  K["dfs.reply_errors"] = T.replyErrors();
  K["dfs.op_latency_sim_ns_p50"] =
      static_cast<uint64_t>(percentile(Lat, 0.50));
  K["dfs.op_latency_sim_ns_p99"] =
      static_cast<uint64_t>(percentile(Lat, 0.99));

  FsReplay FR = replay(T, W.Kind);
  K["fs.requests"] = FR.Requests;
  K["fs.replay_errors"] = FR.Errors;
  K["fs.dir_entries_scanned"] = FR.Cost.DirEntriesScanned;
  K["fs.dir_entries_written"] = FR.Cost.DirEntriesWritten;
  K["fs.inodes_touched"] = FR.Cost.InodesTouched;
  K["fs.inodes"] = FR.PeakInodes;

  // Every nanosecond of the run phase is inside a top-level span or not;
  // what is not is scheduler-dispatched work (delivery, server queueing
  // and service, fs execution, the event queue itself).
  return format(
      ", \"trace\": {\"submit_self_s\": %.9f, \"reply_self_s\": %.9f, "
      "\"dispatch_self_s\": %.9f, \"submit_ns_p50\": %.1f, "
      "\"submit_ns_p99\": %.1f, \"reply_ns_p50\": %.1f, "
      "\"reply_ns_p99\": %.1f, \"replay_s\": %.9f, \"raw_event_ns\": %.3f}",
      nsToS(SubmitSelf), nsToS(ReplySelf), nsToS(RunNs - T.topLevelNs()),
      percentile(SubmitNs, 0.50), percentile(SubmitNs, 0.99),
      percentile(ReplyNs, 0.50), percentile(ReplyNs, 0.99),
      nsToS(FR.WallNs), rawEventNs(W.Nodes * W.Ppn));
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 0;
  bool SetupOnly = false, Digest = false, Trace = false;
  std::string SpansPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool HasVal = I + 1 < Argc;
    if (Arg == "--workload" && HasVal)
      Name = Argv[++I];
    else if (Arg == "--seed" && HasVal)
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (Arg == "--setup-only")
      SetupOnly = true;
    else if (Arg == "--digest")
      Digest = true;
    else if (Arg == "--trace")
      Trace = true;
    else if (Arg == "--spans" && HasVal)
      SpansPath = Argv[++I];
    else
      return usage();
  }
  const WorkloadSpec *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", Name.c_str());
    return usage();
  }

  std::unique_ptr<Tracer> T = Trace ? std::make_unique<Tracer>() : nullptr;
  int64_t T0 = hostNs();
  Deployment D = setUp(*W, Seed, T.get());
  int64_t T1 = hostNs();
  if (SetupOnly) {
    // A cold set-up in a fresh process; teardown is measured by the full
    // lifecycles, so skip it here.
    std::printf("{\"setup_s\": %.9f}\n", nsToS(T1 - T0));
    std::fflush(stdout);
    std::_Exit(0);
  }
  ResultSet Res = D.M->runCombination(W->Nodes, W->Ppn);
  int64_t T2 = hostNs();

  // Untimed: output checks and counters.
  uint64_t FsckErrors = 0;
  Counts K = collectCounts(D, Res, FsckErrors);
  int64_t T3 = hostNs();
  D.destroy();
  int64_t T4 = hostNs();

  std::string Extra;
  if (Digest)
    Extra += ", \"digests\": " + subtaskDigests(Res);
  if (T) {
    Extra += traceReport(*T, *W, T2 - T1, K);
    if (!SpansPath.empty())
      writeSpans(*T, SpansPath, 100000);
  }
  std::string CountsJson;
  for (const auto &[Key, Value] : K)
    CountsJson += format("%s\"%s\": %llu", CountsJson.empty() ? "" : ", ",
                         Key.c_str(), (unsigned long long)Value);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
              "\"setup_s\": %.9f, \"run_s\": %.9f, \"teardown_s\": %.9f, "
              "\"total_wall_s\": %.9f, \"peak_rss_kb\": %ld, "
              "\"clients\": %u, \"fsck_errors\": %llu, \"counts\": {%s}%s}\n",
              W->Name, (unsigned long long)Seed, Trace ? "true" : "false",
              nsToS(T1 - T0), nsToS(T2 - T1), nsToS(T4 - T3),
              nsToS((T2 - T0) + (T4 - T3)), readVmHwmKb(), W->Nodes * W->Ppn,
              (unsigned long long)FsckErrors, CountsJson.c_str(),
              Extra.c_str());
  return 0;
}
