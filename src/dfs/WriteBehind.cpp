//===- dfs/WriteBehind.cpp ------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/WriteBehind.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

WriteBehindQueue::WriteBehindQueue(Scheduler &Sched,
                                   const WriteBehindPolicy &Policy,
                                   WriteBehindHooks Hooks)
    : Sched(Sched), Policy(Policy), Hooks(std::move(Hooks)) {}

static bool isCreatingOpen(const MetaRequest &Req) {
  return Req.Op == MetaOp::Open && (Req.Flags & OpenCreate);
}

/// Path-based namespace mutations the deferred queue understands (the
/// journalable set: what a flush can re-issue standalone).
static bool isQueueableNamespaceOp(MetaOp Op) {
  switch (Op) {
  case MetaOp::Mkdir:
  case MetaOp::Rmdir:
  case MetaOp::Unlink:
  case MetaOp::Remove:
  case MetaOp::Rename:
  case MetaOp::Link:
  case MetaOp::Symlink:
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
    return true;
  default:
    return false;
  }
}

/// True when Path2 names a real path (rename/link/symlink) rather than an
/// xattr key.
static bool path2IsPath(MetaOp Op) {
  return Op == MetaOp::Rename || Op == MetaOp::Link || Op == MetaOp::Symlink;
}

bool WriteBehindQueue::shouldQueue(const MetaRequest &Req) const {
  if (Req.Op == MetaOp::Fsync)
    return false; // barriers have their own entry point
  if (!Policy.DeferIssue)
    // Eager discipline (classic lustre-wb): every state change is applied
    // at the server on enqueue, so anything mutating belongs here.
    return isMutation(Req.Op) || isCreatingOpen(Req) ||
           Req.Op == MetaOp::Close;
  if (isQueueableNamespaceOp(Req.Op) || isCreatingOpen(Req))
    return true;
  // Handle-based data/metadata ops ride along only on queue-local handles
  // (files this queue created); server-handle ops stay synchronous.
  switch (Req.Op) {
  case MetaOp::Write:
  case MetaOp::Close:
  case MetaOp::Ftruncate:
    return isLocalFh(Req.Fh);
  default:
    return false;
  }
}

std::vector<uint64_t> WriteBehindQueue::seedsFor(const MetaRequest &Req) const {
  std::vector<uint64_t> Seeds;
  auto AddLive = [&](uint64_t Id) {
    if (Id && findOp(Id))
      Seeds.push_back(Id);
  };
  auto AddPath = [&](const std::string &P) {
    if (P.empty())
      return;
    if (const PathOp *L = LastByPath.find(P))
      AddLive(L->Id);
    // Reading a directory (or fsyncing it) also needs its queued children
    // settled: their creates change the listing and the dir's attrs.
    if (const PathOp *L = LastChildOf.find(P))
      AddLive(L->Id);
  };
  AddPath(Req.Path);
  if (path2IsPath(Req.Op))
    AddPath(Req.Path2);
  if (isLocalFh(Req.Fh)) {
    if (const LocalHandle *H = LocalFhs.find(Req.Fh)) {
      AddLive(H->OpenOp);
      AddLive(H->LastOp);
    }
  }
  return Seeds;
}

bool WriteBehindQueue::needsDrain(const MetaRequest &Req) const {
  if (!Policy.DeferIssue)
    return false; // eager: state is already applied in submit order
  if (isLocalFh(Req.Fh))
    return true; // at minimum the handle must be translated after a drain
  return !seedsFor(Req).empty();
}

MetaRequest WriteBehindQueue::translate(const MetaRequest &Req) const {
  if (!isLocalFh(Req.Fh))
    return Req;
  MetaRequest Out = Req;
  const LocalHandle *H = LocalFhs.find(Req.Fh);
  // InvalidHandle when the open failed or a completed close retired it.
  Out.Fh = H ? H->ServerFh : InvalidHandle;
  return Out;
}

void WriteBehindQueue::enqueue(const MetaRequest &Req, Callback Done) {
  // The dirty-op cap: admissions past it stall, in order, until the
  // pipeline drains (thesis \S 4.8: the client write-back cache limit).
  // Outside drainStalledAndBarriers a non-empty stall list implies the
  // cap is hit, so checking Live alone keeps FIFO order.
  if (Live >= Policy.MaxQueuedOps) {
    Stalled.push(StalledOp{Req, std::move(Done)});
    return;
  }
  if (Policy.DeferIssue)
    enqueueDeferred(Req, std::move(Done));
  else
    enqueueEager(Req, std::move(Done));
}

void WriteBehindQueue::enqueueEager(const MetaRequest &Req, Callback Done) {
  ++Enqueued;
  if (Hooks.Cache)
    Hooks.Cache->invalidateForMutation(Req);
  ++Live;
  // The state change happens now (the server sees operations in exactly
  // submit order); the reply is served from the client cache while the
  // commit drains in the background.
  MetaReply Reply = Hooks.ApplyEager(Req, [this]() {
    DMB_ASSERT(Live > 0, "write-behind commit drained below zero");
    --Live;
    drainStalledAndBarriers();
  });
  localAck(std::move(Done), std::move(Reply));
}

MetaReply WriteBehindQueue::predictReply(const MetaRequest &Req) {
  MetaReply Reply;
  if (Req.Op == MetaOp::Write)
    Reply.Bytes = Req.Bytes;
  return Reply;
}

bool WriteBehindQueue::coalesce(const MetaRequest &Req) {
  uint64_t CandidateId = 0;
  switch (Req.Op) {
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
    if (const PathOp *L = LastByPath.find(Req.Path))
      CandidateId = L->Id;
    break;
  case MetaOp::Write:
    if (isLocalFh(Req.Fh))
      if (const LocalHandle *H = LocalFhs.find(Req.Fh))
        CandidateId = H->LastOp;
    break;
  default:
    return false;
  }
  Op *Candidate = CandidateId ? findOp(CandidateId) : nullptr;
  if (!Candidate)
    return false;
  Op &O = *Candidate;
  // Only a not-yet-scheduled op of the same kind on the same target can
  // absorb: once a flush claimed it, its wire identity (Xid) is fixed.
  if (O.State != Op::St::Queued || O.Req.Op != Req.Op)
    return false;
  switch (Req.Op) {
  case MetaOp::Chmod:
    O.Req.Mode = Req.Mode;
    break;
  case MetaOp::Chown:
    O.Req.Uid = Req.Uid;
    O.Req.Gid = Req.Gid;
    break;
  case MetaOp::Utimes:
    O.Req.Atime = Req.Atime;
    O.Req.Mtime = Req.Mtime;
    break;
  case MetaOp::Setxattr:
    if (O.Req.Path2 != Req.Path2)
      return false; // different key: a distinct attribute, not an update
    O.Req.Value = Req.Value;
    break;
  case MetaOp::Write:
    if (O.Req.Fh != Req.Fh)
      return false;
    O.Req.Bytes += Req.Bytes;
    QueuedBytes += Req.Bytes;
    break;
  default:
    return false;
  }
  ++Coalesced;
  return true;
}

void WriteBehindQueue::addDep(Op &From, uint64_t On) {
  if (On == 0 || On == From.Id)
    return;
  Op *Target = findOp(On);
  if (!Target)
    return;
  if (std::find(From.Deps.begin(), From.Deps.end(), On) != From.Deps.end())
    return;
  From.Deps.push_back(On);
  Target->Dependents.push_back(From.Id);
  ++From.PendingDeps;
}

void WriteBehindQueue::setLast(PathIndex &Index, std::string_view Path,
                               uint64_t Id) {
  if (PathOp *L = Index.find(Path))
    L->Id = Id;
  else
    Index.insertOrAssign(PathOp{std::string(Path), Id});
}

void WriteBehindQueue::indexOp(const Op &O) {
  const MetaRequest &Req = O.Req;
  auto Index = [&](const std::string &P) {
    if (P.empty())
      return;
    setLast(LastByPath, P, O.Id);
    if (std::string_view Parent = parentPath(P); !Parent.empty())
      setLast(LastChildOf, Parent, O.Id);
  };
  Index(Req.Path);
  if (path2IsPath(Req.Op))
    Index(Req.Path2);
  if (isLocalFh(Req.Fh))
    LocalFhs.find(Req.Fh)->LastOp = O.Id;
}

void WriteBehindQueue::enqueueDeferred(const MetaRequest &Req,
                                       Callback Done) {
  if (isLocalFh(Req.Fh) && !LocalFhs.find(Req.Fh)) {
    // A completed close retired this handle: the application is using a
    // closed descriptor.
    MetaReply Reply;
    Reply.Err = FsError::BadFd;
    localAck(std::move(Done), std::move(Reply));
    return;
  }
  ++Enqueued;
  // Shadow the attribute cache *now*: between this local ack and the
  // flush, a cached stat must not serve the pre-mutation attrs (the
  // AttrCache coherence bug this layer's audit shook out of lustre-wb).
  if (Hooks.Cache)
    Hooks.Cache->invalidateForMutation(Req);

  if (coalesce(Req)) {
    localAck(std::move(Done), predictReply(Req));
    maybeTrigger();
    return;
  }

  uint64_t Id = NextOpId++;
  MetaReply Predicted = predictReply(Req);
  uint32_t Index;
  if (FreeOps.empty()) {
    Index = static_cast<uint32_t>(OpPool.size());
    OpPool.push_back(std::make_unique<Op>());
  } else {
    Index = FreeOps.back();
    FreeOps.pop_back();
  }
  Ops.insert(Id, Index);
  Op &O = *OpPool[Index];
  O.Id = Id;
  O.State = Op::St::Queued;
  O.PendingDeps = 0;
  O.LocalFh = InvalidHandle;
  // The queue's copy of the request; a reused record keeps its strings'
  // capacity.
  O.Req = Req;
  // Pin the duplicate-request-cache identity at enqueue: every issue (and
  // retransmit) of this op, whenever the flush happens, carries the same
  // (ClientId, Xid).
  if (Hooks.AllocXid && O.Req.Xid == 0)
    O.Req.Xid = Hooks.AllocXid();
  if (isCreatingOpen(Req)) {
    O.LocalFh = NextLocalFh++;
    LocalFhs.insert(O.LocalFh, LocalHandle{.OpenOp = Id});
    Predicted.Fh = O.LocalFh;
    Predicted.A.Mode = Req.Mode;
  }
  Unflushed.push_back(Id);

  // Dependency edges (computed before indexing, so the op never depends
  // on itself): same-path chains, parent-directory ordering for
  // create/unlink/rename, and handle chains through queue-local opens.
  auto DepPath = [&](const std::string &P) {
    if (P.empty())
      return;
    if (const PathOp *L = LastByPath.find(P))
      addDep(O, L->Id);
    if (std::string_view Parent = parentPath(P); !Parent.empty())
      if (const PathOp *L = LastByPath.find(Parent))
        addDep(O, L->Id);
  };
  DepPath(O.Req.Path);
  if (path2IsPath(O.Req.Op))
    DepPath(O.Req.Path2);
  if (O.Req.Op == MetaOp::Rmdir || O.Req.Op == MetaOp::Rename) {
    // Removing or renaming a directory orders after its queued children.
    if (const PathOp *L = LastChildOf.find(O.Req.Path))
      addDep(O, L->Id);
  }
  if (isLocalFh(O.Req.Fh)) {
    const LocalHandle &H = *LocalFhs.find(O.Req.Fh);
    addDep(O, H.OpenOp);
    addDep(O, H.LastOp);
  }
  indexOp(O);

  ++Live;
  ++QueuedCount;
  if (O.Req.Op == MetaOp::Write)
    QueuedBytes += O.Req.Bytes;

  localAck(std::move(Done), std::move(Predicted));
  maybeTrigger();
}

void WriteBehindQueue::localAck(Callback Done, MetaReply Reply) {
  uint32_t Slot = Acks.put(PendingAck{std::move(Done), std::move(Reply)});
  Sched.after(Policy.LocalAckCost, [this, Slot]() {
    PendingAck A = Acks.take(Slot);
    A.Done(std::move(A.Reply));
  });
}

void WriteBehindQueue::maybeTrigger() {
  if (QueuedCount >= Policy.FlushMaxOps ||
      QueuedBytes >= Policy.FlushMaxBytes) {
    flush();
    return;
  }
  armTimer();
}

void WriteBehindQueue::armTimer() {
  if (TimerArmed || QueuedCount == 0)
    return;
  TimerArmed = true;
  Sched.after(Policy.FlushDelay, [this, E = TimerEpoch]() {
    TimerArmed = false;
    if (E == TimerEpoch && QueuedCount > 0)
      flush();
    else
      armTimer(); // ops queued after a newer flush: keep the clock running
  });
}

void WriteBehindQueue::flush() {
  ++TimerEpoch; // a dwell timer in flight no longer owns this batch
  if (QueuedCount == 0)
    return;
  ++Flushes;
  scheduleAll();
}

void WriteBehindQueue::scheduleAll() {
  // Every St::Queued op is in Unflushed; entries a barrier already claimed
  // (Scheduled, or finished and gone) are skipped.
  std::vector<uint64_t> Claimed;
  Claimed.reserve(Unflushed.size());
  for (uint64_t Id : Unflushed)
    if (Op *O = findOp(Id); O && O->State == Op::St::Queued) {
      O->State = Op::St::Scheduled;
      Claimed.push_back(Id);
    }
  Unflushed.clear();
  QueuedCount = 0;
  QueuedBytes = 0;
  issueReady(Claimed);
}

void WriteBehindQueue::issueReady(const std::vector<uint64_t> &Claimed) {
  // Only the ops just claimed can be ready: onOpDone issues any other
  // Scheduled op the moment its last dependency completes.
  for (uint64_t Id : Claimed) {
    Op *O = findOp(Id);
    if (O && O->State == Op::St::Scheduled && O->PendingDeps == 0)
      issueOp(*O);
  }
}

void WriteBehindQueue::issueOp(Op &O) {
  O.State = Op::St::Issued;
  ++Issued;
  uint64_t Id = O.Id;
  auto Done = [this, Id](MetaReply &&Reply) {
    onOpDone(Id, std::move(Reply));
  };
  if (!isLocalFh(O.Req.Fh)) {
    Hooks.Issue(O.Req, std::move(Done));
    return;
  }
  const LocalHandle *H = LocalFhs.find(O.Req.Fh);
  if (!H || H->Failed) {
    // The creating open this op rode on never materialized, or a close
    // queued ahead of it retired the handle; complete with the handle
    // error without a round trip. Deferred a tick so the completion
    // cascade never runs under issueReady()'s loop.
    Sched.after(0, [this, Id]() {
      MetaReply R;
      R.Err = FsError::BadFd;
      onOpDone(Id, std::move(R));
    });
    return;
  }
  DMB_ASSERT(H->ServerFh != InvalidHandle,
             "write-behind issued a handle op before its open resolved");
  MetaRequest Wire = O.Req;
  Wire.Fh = H->ServerFh;
  Hooks.Issue(Wire, std::move(Done));
}

void WriteBehindQueue::onOpDone(uint64_t Id, MetaReply &&Reply) {
  const uint32_t *Found = Ops.find(Id);
  DMB_ASSERT(Found, "write-behind completion for a dead op");
  uint32_t Index = *Found;
  // From here on the op is dead to every lookup; its record stays put
  // (and off the free list) until this completion is through with it.
  Ops.erase(Id);
  Op &O = *OpPool[Index];

  if (O.LocalFh != InvalidHandle) {
    // Resolve the queue-local handle the application is holding. It is
    // still live: every op that could retire it depends on this open.
    LocalHandle &H = *LocalFhs.find(O.LocalFh);
    H.OpenOp = 0;
    H.ServerFh = Reply.Fh;
    H.Failed = !Reply.ok();
  }
  if (!Reply.ok() && Reply.Err != FsError::BadFd) {
    // A deferred op the application was already told succeeded has failed
    // at the server: record it sticky; the next fsync/close barrier
    // surfaces it (never swallowed). BadFd cascades from a failed open
    // are byproducts of the root failure already recorded.
    ++FlushErrors;
    if (Sticky == FsError::Ok)
      Sticky = Reply.Err;
  } else if (!Reply.ok()) {
    ++FlushErrors;
  }

  // Drop the last-op indexes that still point at this op.
  auto Unindex = [&](const std::string &P) {
    if (P.empty())
      return;
    if (auto L = LastByPath.locate(P); L && L.Value->Id == Id)
      LastByPath.erase(L);
    if (std::string_view Parent = parentPath(P); !Parent.empty())
      if (auto C = LastChildOf.locate(Parent); C && C.Value->Id == Id)
        LastChildOf.erase(C);
  };
  Unindex(O.Req.Path);
  if (path2IsPath(O.Req.Op))
    Unindex(O.Req.Path2);
  if (isLocalFh(O.Req.Fh)) {
    if (LocalHandle *H = LocalFhs.find(O.Req.Fh)) {
      if (H->LastOp == Id)
        H->LastOp = 0;
      // A completed close retires the local handle entirely.
      if (O.Req.Op == MetaOp::Close)
        LocalFhs.erase(O.Req.Fh);
    }
  }

  // Release dependents (the in-flight batch cascades in dependency
  // order), then barrier waiters, then admission. Every count drops
  // before the first issue; then the dependents that reached zero while
  // claimed by a flush go out, in edge order.
  for (uint64_t DepId : O.Dependents) {
    Op *D = findOp(DepId);
    if (!D)
      continue;
    DMB_ASSERT(D->PendingDeps > 0, "write-behind dependency count underflow");
    --D->PendingDeps;
  }
  for (uint64_t DepId : O.Dependents)
    if (Op *D = findOp(DepId);
        D && D->PendingDeps == 0 && D->State == Op::St::Scheduled)
      issueOp(*D);
  for (Scheduler::Action &W : O.Waiters)
    W();
  O.Deps.clear();
  O.Dependents.clear();
  O.Waiters.clear();
  FreeOps.push_back(Index);
  DMB_ASSERT(Live > 0, "write-behind live count underflow");
  --Live;
  drainStalledAndBarriers();
}

void WriteBehindQueue::drainStalledAndBarriers() {
  while (!Stalled.empty() && Live < Policy.MaxQueuedOps) {
    StalledOp Next = Stalled.pop();
    enqueue(Next.Req, std::move(Next.Done));
  }
  if (Live == 0 && Stalled.empty() && !IdleWaiters.empty()) {
    std::vector<Scheduler::Action> Waiters = std::move(IdleWaiters);
    IdleWaiters.clear();
    for (Scheduler::Action &W : Waiters)
      W();
  }
}

std::set<uint64_t>
WriteBehindQueue::closureOf(std::vector<uint64_t> Seeds) const {
  std::set<uint64_t> Closure;
  while (!Seeds.empty()) {
    uint64_t Id = Seeds.back();
    Seeds.pop_back();
    if (Id == 0 || !Closure.insert(Id).second)
      continue;
    const Op *O = findOp(Id);
    if (!O) {
      Closure.erase(Id);
      continue;
    }
    for (uint64_t Dep : O->Deps)
      Seeds.push_back(Dep);
  }
  return Closure;
}

void WriteBehindQueue::awaitClosure(std::vector<uint64_t> Seeds,
                                    Scheduler::Action Done) {
  std::set<uint64_t> Closure = closureOf(std::move(Seeds));
  if (Closure.empty()) {
    Done();
    return;
  }
  auto Remaining = std::make_shared<size_t>(Closure.size());
  auto Shared = std::make_shared<Scheduler::Action>(std::move(Done));
  std::vector<uint64_t> Claimed;
  for (uint64_t Id : Closure) {
    Op &O = *findOp(Id);
    if (O.State == Op::St::Queued) {
      O.State = Op::St::Scheduled;
      Claimed.push_back(Id);
      DMB_ASSERT(QueuedCount > 0, "write-behind queued count underflow");
      --QueuedCount;
      if (O.Req.Op == MetaOp::Write)
        QueuedBytes -= std::min(QueuedBytes, O.Req.Bytes);
    }
    O.Waiters.push_back([Remaining, Shared]() {
      if (--*Remaining == 0)
        (*Shared)();
    });
  }
  // With nothing left queued every Unflushed entry is stale; drop them
  // here, since a flush may be long in coming.
  if (QueuedCount == 0)
    Unflushed.clear();
  issueReady(Claimed);
}

FsError WriteBehindQueue::consumeSticky() {
  FsError E = Sticky;
  Sticky = FsError::Ok;
  return E;
}

void WriteBehindQueue::fsync(const MetaRequest &Req, Callback Done) {
  ++Barriers;
  bool Full = !Policy.DeferIssue ||
              (Req.Fh == InvalidHandle && Req.Path.empty());
  if (Full) {
    // Whole-queue barrier: under eager discipline ops are already applied
    // in submit order and only the commit drain remains; a deferred
    // fsync(-1) (sync()) covers every queued op.
    if (Policy.DeferIssue)
      flush();
    if (Live == 0 && Stalled.empty()) {
      MetaReply Reply;
      Reply.Err = consumeSticky();
      localAck(std::move(Done), std::move(Reply));
      return;
    }
    IdleWaiters.push_back([this, Done = std::move(Done)]() mutable {
      MetaReply Reply;
      Reply.Err = consumeSticky();
      Sched.after(0, [Done = std::move(Done), Reply]() mutable {
        Done(std::move(Reply));
      });
    });
    return;
  }
  // Targeted barrier: drain exactly the dependency closure of this
  // file's ops — the rest of the queue keeps riding behind.
  awaitClosure(seedsFor(Req), [this, Done = std::move(Done)]() mutable {
    MetaReply Reply;
    Reply.Err = consumeSticky();
    localAck(std::move(Done), std::move(Reply));
  });
}

void WriteBehindQueue::drainFor(const MetaRequest &Req,
                                Scheduler::Action Ready) {
  awaitClosure(seedsFor(Req), std::move(Ready));
}
