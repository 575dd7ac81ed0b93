//===- dfs/FileServer.cpp -------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/FileServer.h"
#include "dfs/PartitionMap.h"
#include "sim/HappensBefore.h"
#include "sim/Trace.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

FileServer::FileServer(Scheduler &Sched, ServerConfig C)
    : Sched(Sched), Config(std::move(C)),
      Cpu(Sched, Config.Name + ".cpu", Config.CpuThreads) {}

LocalFileSystem &FileServer::addVolume(const std::string &Name) {
  return addVolume(Name, Config.VolumeDefaults);
}

LocalFileSystem &FileServer::addVolume(const std::string &Name,
                                       FsConfig VolConfig) {
  uint32_t Id = volumeId(Name);
  if (Id >= Volumes.size())
    Volumes.resize(Id + 1);
  auto Vol = std::make_unique<LocalFileSystem>(VolConfig);
  LocalFileSystem &Ref = *Vol;
  Volumes[Id] = std::move(Vol);
  return Ref;
}

LocalFileSystem *FileServer::volume(const std::string &Name) {
  uint32_t Id = VolumeIds.find(Name);
  return Id == Interner::None ? nullptr : volume(Id);
}

std::unique_ptr<LocalFileSystem>
FileServer::removeVolume(const std::string &Name) {
  uint32_t Id = VolumeIds.find(Name);
  if (Id == Interner::None || Id >= Volumes.size())
    return nullptr;
  // The slot (and the id) stay: requests routed here now find a detached
  // volume and answer ESTALE, exactly as with the old map erase.
  return std::move(Volumes[Id]);
}

void FileServer::adoptVolume(const std::string &Name,
                             std::unique_ptr<LocalFileSystem> Vol) {
  uint32_t Id = volumeId(Name);
  if (Id >= Volumes.size())
    Volumes.resize(Id + 1);
  Volumes[Id] = std::move(Vol);
}

MetaReply FileServer::execute(LocalFileSystem &Vol, const MetaRequest &Req,
                              SimTime Now, OpCost &Cost) {
  OpCtx Ctx;
  Ctx.Creds = Req.Creds;
  Ctx.Now = Now;
  MetaReply Reply;

  switch (Req.Op) {
  case MetaOp::Mkdir:
    Reply.Err = Vol.mkdir(Ctx, Req.Path, Req.Mode);
    break;
  case MetaOp::Rmdir:
    Reply.Err = Vol.rmdir(Ctx, Req.Path);
    break;
  case MetaOp::Unlink:
    Reply.Err = Vol.unlink(Ctx, Req.Path);
    break;
  case MetaOp::Remove:
    Reply.Err = Vol.remove(Ctx, Req.Path);
    break;
  case MetaOp::Rename:
    Reply.Err = Vol.rename(Ctx, Req.Path, Req.Path2);
    break;
  case MetaOp::Link:
    Reply.Err = Vol.link(Ctx, Req.Path, Req.Path2);
    break;
  case MetaOp::Symlink:
    Reply.Err = Vol.symlink(Ctx, Req.Path2, Req.Path);
    break;
  case MetaOp::Readlink: {
    Result<std::string> R = Vol.readlink(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Text = *R;
    break;
  }
  case MetaOp::Stat: {
    Result<Attr> R = Vol.stat(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.A = *R;
    break;
  }
  case MetaOp::Lstat: {
    Result<Attr> R = Vol.lstat(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.A = *R;
    break;
  }
  case MetaOp::Chmod:
    Reply.Err = Vol.chmod(Ctx, Req.Path, Req.Mode);
    break;
  case MetaOp::Chown:
    Reply.Err = Vol.chown(Ctx, Req.Path, Req.Uid, Req.Gid);
    break;
  case MetaOp::Utimes:
    Reply.Err = Vol.utimes(Ctx, Req.Path, Req.Atime, Req.Mtime);
    break;
  case MetaOp::Readdir: {
    Result<std::vector<DirEntry>> R = Vol.readdir(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Entries = std::move(*R);
    break;
  }
  case MetaOp::ReaddirPlus: {
    Result<std::vector<DirEntry>> R = Vol.readdir(Ctx, Req.Path);
    Reply.Err = R.error();
    if (!R.ok())
      break;
    Reply.Entries = std::move(*R);
    // One server-side pass gathers every entry's attributes — the whole
    // point of the batched protocol (\S 5.3.2): no per-entry round trip.
    std::string Base = Req.Path == "/" ? std::string() : Req.Path;
    for (const DirEntry &E : Reply.Entries) {
      if (E.Name == "." || E.Name == "..")
        continue;
      Result<Attr> A = Vol.lstat(Ctx, Base + "/" + E.Name);
      if (A.ok())
        Reply.EntryAttrs.push_back({E.Name, *A});
    }
    break;
  }
  case MetaOp::Open: {
    Result<FileHandle> R = Vol.open(Ctx, Req.Path, Req.Flags, Req.Mode);
    Reply.Err = R.error();
    if (R.ok()) {
      Reply.Fh = *R;
      // Post-operation attributes, as NFSv3 replies carry them; clients use
      // this to warm their attribute caches.
      if (Result<Attr> A = Vol.fstat(Ctx, *R); A.ok())
        Reply.A = *A;
    }
    break;
  }
  case MetaOp::Close:
    Reply.Err = Vol.close(Ctx, Req.Fh);
    break;
  case MetaOp::Write: {
    Result<uint64_t> R = Vol.write(Ctx, Req.Fh, Req.Bytes);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Bytes = *R;
    break;
  }
  case MetaOp::Read: {
    Result<uint64_t> R = Vol.read(Ctx, Req.Fh, Req.Bytes);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Bytes = *R;
    break;
  }
  case MetaOp::Seek: {
    Result<uint64_t> R = Vol.seek(Ctx, Req.Fh, Req.Bytes);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Bytes = *R;
    break;
  }
  case MetaOp::Ftruncate:
    Reply.Err = Vol.ftruncate(Ctx, Req.Fh, Req.Bytes);
    break;
  case MetaOp::Fsync:
    // State is always durable in the in-memory store; fsync only costs time
    // (charged by the server's commit model).
    Reply.Err = FsError::Ok;
    break;
  case MetaOp::Lock:
    Reply.Err = Vol.lockFile(Ctx, Req.Fh, /*Exclusive=*/Req.Flags != 0);
    break;
  case MetaOp::Unlock:
    Reply.Err = Vol.unlockFile(Ctx, Req.Fh);
    break;
  case MetaOp::Setxattr:
    Reply.Err = Vol.setxattr(Ctx, Req.Path, Req.Path2, Req.Value);
    break;
  case MetaOp::Getxattr: {
    Result<std::string> R = Vol.getxattr(Ctx, Req.Path, Req.Path2);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Text = *R;
    break;
  }
  }

  Cost += Ctx.Cost;
  return Reply;
}

void FileServer::noteMutation(const MetaRequest &Req) {
  bool Mutates = isMutation(Req.Op) ||
                 (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate));
  if (!Mutates)
    return;
  DirtyBytes += Config.LogBytesPerMutation;
  DMB_HB_WRITE(Sched, DirtyBytes, "FileServer.DirtyBytes");
  if (Config.EnableConsistencyPoints)
    maybeStartConsistencyPoint();
  else
    DirtyBytes = 0; // No CP model: commits are immediate.
}

void FileServer::maybeStartConsistencyPoint() {
  // Arm the periodic timer on first dirty data: a CP happens at the latest
  // CpInterval after the previous one (WAFL behaviour, \S 4.2.3).
  if (!CpTimerArmed && DirtyBytes > 0) {
    CpTimerArmed = true;
    Sched.after(Config.CpInterval, [this]() {
      CpTimerArmed = false;
      if (DirtyBytes > 0 && !CpActive)
        startConsistencyPoint();
      else if (DirtyBytes > 0)
        maybeStartConsistencyPoint();
    });
  }
  // NVRAM half-full forces an early CP.
  if (!CpActive && DirtyBytes >= Config.NvramCapacityBytes / 2)
    startConsistencyPoint();
}

void FileServer::startConsistencyPoint() {
  DMB_ASSERT(!CpActive, "nested consistency point");
  CpActive = true;
  ++CpCount;
  uint64_t Flushing = DirtyBytes;
  DirtyBytes = 0;
  SimDuration FlushTime = static_cast<SimDuration>(
      static_cast<double>(Flushing) / Config.CpFlushBytesPerSec * 1e9);
  Cpu.setSlowdown(Config.CpSlowdown);
  Sched.after(FlushTime, [this]() {
    Cpu.setSlowdown(1.0);
    CpActive = false;
    if (DirtyBytes >= Config.NvramCapacityBytes / 2)
      startConsistencyPoint();
    else if (DirtyBytes > 0)
      maybeStartConsistencyPoint();
  });
}

MetaReply FileServer::processEager(const std::string &Volume,
                                   const MetaRequest &Req,
                                   Scheduler::Action Committed) {
  return processEager(volumeId(Volume), Req, std::move(Committed));
}

MetaReply FileServer::processEager(uint32_t VolId, const MetaRequest &Req,
                                   Scheduler::Action Committed) {
  Admission A;
  MetaReply Reply = admit(VolId, Req, A);
  charge(A, std::move(Committed));
  return Reply;
}

/// The reply to a request for a volume this server does not hold.
static MetaReply staleReply() {
  MetaReply R;
  R.Err = FsError::Stale;
  return R;
}

MetaReply FileServer::admit(uint32_t VolId, const MetaRequest &Req,
                            Admission &A) {
  // Request arrival at the server: from here until the CPU picks it up the
  // operation is queueing, not being serviced.
  Sched.traceStamp(TracePoint::QueueEnter);
  LocalFileSystem *Vol = volume(VolId);
  // Duplicate-request cache lookup (\S 2.6.4 retransmit semantics): a
  // resilient client reuses its (ClientId, Xid) on every retransmit, so a
  // request found here already executed — answer with the original reply
  // instead of double-applying. Only xid-stamped requests can match; the
  // fire-and-forget path never reaches this map.
  const DrcEntry *Hit = nullptr;
  if (Vol && Req.Xid != 0 && Req.ClientId != 0 &&
      Config.DuplicateRequestCacheSize) {
    uint64_t Key = drcKey(Req);
    Hit = Drc.find(keyView(Key));
  }
  // Execute at arrival: the CPU queue is FIFO, so arrival order equals
  // service order and state changes serialize exactly as on a real server.
  // (One reply object on every path, so it is built in place.)
  OpCost Cost;
  MetaReply Reply = (Hit   ? Hit->Reply
                     : Vol ? execute(*Vol, Req, Sched.now(), Cost)
                           : staleReply());
  if (!Vol) {
    // Unknown volume: the distributed-handle equivalent of ESTALE. The
    // request is rejected at arrival without touching the CPU, so its
    // service span is empty — stamp it closed rather than leaving a
    // record that entered the queue and never came out.
    Sched.traceStamp(TracePoint::ServiceStart);
    Sched.traceStamp(TracePoint::ServiceEnd);
    A.Rejected = true;
    return Reply;
  }
  if (Hit) {
    ++DrcHits;
    ++Processed;
    DMB_HB_WRITE(Sched, Processed, "FileServer.Processed");
    A.Service = Config.DrcHitCost;
    return Reply;
  }

  // Only successful mutations dirty the NVRAM log: a failed create writes
  // nothing back, so it must not grow the dirty set or drag the next
  // consistency point forward.
  if (Reply.ok())
    noteMutation(Req);

  A.Service = Config.Costs.serviceTime(Cost);
  bool Mutates = isMutation(Req.Op) ||
                 (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate));
  if (Mutates || Req.Op == MetaOp::Fsync)
    A.Service += Config.CommitLatency;

  if (Reply.ok() && Mutates && (Journal || !Watchers.empty())) {
    // Journal and watcher interfaces speak names; resolving the id here
    // keeps the string off the hot path above.
    const std::string &VolName = VolumeIds.name(VolId);
    // Asynchronous metadata logging (\S 2.7.1): append now, durable when
    // the server finishes the operation.
    if (Journal)
      if (std::optional<uint64_t> Seq =
              Journal->append(VolName, Req, Sched.now()))
        A.JournalSeqPlus1 = *Seq + 1;
    // Change notification (\S 2.8.3).
    for (const auto &W : Watchers)
      W(VolName, Req);
  }

  // Duplicate-request cache insert, at execution (not reply) time so a
  // retransmit racing the original's reply still matches. Failed replies
  // are cached too: a retransmitted failed create must observe the same
  // error, not the outcome of a second execution.
  if (Req.Xid != 0 && Req.ClientId != 0 && Config.DuplicateRequestCacheSize &&
      drcCacheable(Req.Op))
    drcInsert(DrcEntry{drcKey(Req), Req.Op, Reply, Req.Path, VolId,
                       A.JournalSeqPlus1});
  if (JitterMean > 0) {
    // Mostly small per-request extras with an occasional heavy hit.
    double Extra = JitterRng.exponential(static_cast<double>(JitterMean));
    if (JitterRng.uniform() < 0.02)
      Extra += JitterRng.exponential(20.0 * static_cast<double>(JitterMean));
    A.Service += static_cast<SimDuration>(Extra);
  }

  ++Processed;
  DMB_HB_WRITE(Sched, Processed, "FileServer.Processed");

  // Admission control (\S 5.4): a rate-limited tenant's requests wait for
  // their admission slot before consuming server CPU. The state change
  // already happened in arrival order; only time is shaped.
  if (RateLimit *Limit = tenantLimit(Req.Creds.Uid)) {
    A.AdmitAt = std::max(Sched.now(), Limit->NextAdmission);
    Limit->NextAdmission = A.AdmitAt + Limit->Period;
  }
  return Reply;
}

void FileServer::charge(const Admission &A, Scheduler::Action Committed) {
  if (A.Rejected) {
    Sched.after(0, std::move(Committed));
    return;
  }
  if (A.JournalSeqPlus1) {
    // The CPU finishing this request means the stable write is done — but
    // the ack may only leave once the journal's per-volume commit frontier
    // reaches this record (log-prefix rule): a 4-thread CPU finishes
    // service out of append order, and acking a dependent op whose
    // predecessor's record is still in flight lets a crash commit the
    // dependent without the predecessor. Hold the ack under the record's
    // seq; stableWriteDone() parks it, and the onCommit hook (or the crash
    // sweep, for discarded records) releases it.
    uint64_t Seq = A.JournalSeqPlus1 - 1;
    HeldCommitAcks.insert(Seq, HeldAck{std::move(Committed)});
    Committed = [this, Seq]() { stableWriteDone(Seq); };
  }
  if (A.AdmitAt >= 0) {
    Sched.at(A.AdmitAt, [this, Service = A.Service,
                         Committed = std::move(Committed)]() mutable {
      Cpu.request(Service, std::move(Committed));
    });
    return;
  }
  Cpu.request(A.Service, std::move(Committed));
}

void FileServer::stableWriteDone(uint64_t Seq) {
  HeldAck *H = HeldCommitAcks.find(Seq);
  DMB_ASSERT(H && !H->Parked, "stable write finished twice");
  if (Journal->isDiscarded(Seq)) {
    // Crashed before the stable write finished: the record is gone, but
    // the reply still travels (it models a message the server sent before
    // it lost the op's durability, the E29 acked-but-lost window).
    Scheduler::Action Ack = std::move(H->Ack);
    HeldCommitAcks.erase(Seq);
    Ack();
    return;
  }
  H->Parked = true;
  Journal->commit(Seq);
}

void FileServer::enableJournal() {
  if (Journal)
    return;
  Journal = std::make_unique<MetadataJournal>();
  Journal->onCommit([this](uint64_t Seq) {
    HeldAck *H = HeldCommitAcks.find(Seq);
    if (!H)
      return; // committed directly (server-internal execDirect records)
    DMB_ASSERT(H->Parked, "journal record committed before its stable write");
    Scheduler::Action Ack = std::move(H->Ack);
    HeldCommitAcks.erase(Seq);
    Ack();
  });
}

uint64_t FileServer::crashAndRecover(const std::string &Volume) {
  if (!Journal)
    return ~0ULL;
  LocalFileSystem *Vol = volume(Volume);
  if (!Vol)
    return ~0ULL;
  // The crash loses everything not yet durable; recovery replays the
  // committed log into a fresh store (\S 2.7.1: redo of the change log).
  // "Durable" is the committed per-volume prefix: a record whose stable
  // write finished but that was held behind an in-flight predecessor sits
  // after a hole in the on-disk log, so the crash discards it too.
  uint64_t Lost = Journal->discardUncommitted(Volume);
  // Release the parked acks of discarded records (in seq order): their
  // replies race the crash exactly as an in-service op's reply does, and
  // resilient clients re-execute via retransmission either way. Acks
  // still in service are released by stableWriteDone(). Each step
  // re-reads the window: a released ack may hold new requests.
  for (uint64_t Seq = HeldCommitAcks.firstId(); Seq < HeldCommitAcks.endId();
       ++Seq) {
    HeldAck *H = HeldCommitAcks.find(Seq);
    if (!H || !H->Parked || !Journal->isDiscarded(Seq))
      continue;
    Scheduler::Action Ack = std::move(H->Ack);
    HeldCommitAcks.erase(Seq);
    Ack();
  }
  FsConfig VolConfig = Vol->config();
  auto Fresh = std::make_unique<LocalFileSystem>(VolConfig);
  Journal->replay(Volume, *Fresh);
  uint32_t VolId = VolumeIds.find(Volume);
  Volumes[VolId] = std::move(Fresh);
  // The DRC is journaled with the metadata log: entries whose record
  // committed survive (their effect was replayed, so the cached reply is
  // still the truth), everything else for this volume dies with it. A
  // retransmit of a discarded op then misses here and re-executes against
  // the recovered store — applied exactly once overall.
  std::vector<uint64_t> Pruned;
  Drc.forEach([&](const DrcEntry &E) {
    bool Survives = E.VolId != VolId ||
                    (E.SeqPlus1 != 0 && Journal->isCommitted(E.SeqPlus1 - 1));
    if (!Survives)
      Pruned.push_back(E.Key);
  });
  for (uint64_t Key : Pruned)
    drcErase(Key);
  // Compact the pruned keys out of the eviction queue. Left behind they
  // would accumulate across crash/recover cycles without bound, and the
  // oldest-first eviction would burn its budget erasing dead keys.
  std::erase_if(DrcEvictOrder,
                [this](uint64_t Key) { return !Drc.find(keyView(Key)); });
  DMB_ASSERT(DrcEvictOrder.size() == Drc.size(),
             "DRC eviction queue out of sync after crash pruning");
  return Lost;
}

void FileServer::drcInsert(DrcEntry E) {
  DMB_ASSERT(E.Key != 0, "DRC key 0 is the side index's null link");
  if (DrcEntry *Old = Drc.find(keyView(E.Key))) {
    // A re-execution of a key that is still cached (a retransmit racing a
    // crash-pruned sibling, or a migrated entry landing again) refreshes
    // the entry in place. Re-pushing the key would leave a duplicate in
    // the eviction queue, and the oldest-first eviction would later erase
    // the live entry when it reaches the stale first push.
    drcUnlink(*Old);
    *Old = std::move(E);
    drcLink(*Old);
  } else {
    uint64_t Key = E.Key;
    Drc.insertOrAssign(std::move(E));
    drcLink(*Drc.find(keyView(Key)));
    DrcEvictOrder.push_back(Key);
    ++DrcInsertions;
  }
  while (Drc.size() > Config.DuplicateRequestCacheSize &&
         !DrcEvictOrder.empty()) {
    drcErase(DrcEvictOrder.front());
    DrcEvictOrder.pop_front();
  }
  DMB_ASSERT(DrcEvictOrder.size() == Drc.size(),
             "DRC eviction queue out of sync after insert");
}

void FileServer::drcErase(uint64_t Key) {
  FlatIndex<DrcEntry, DrcKeyOf, DrcKeyHash>::Found F =
      Drc.locate(keyView(Key));
  if (!F)
    return;
  drcUnlink(*F.Value);
  // Unlinking touches only other entries' links: F is still current.
  Drc.erase(F);
}

void FileServer::drcLink(DrcEntry &E) {
  PartitionMap::ParsedPath P;
  if (!PartitionMap::parse(E.Path, P) || P.Leaf.empty())
    return;
  E.Grouped = true;
  E.GroupToken = P.Token;
  E.GroupPartition = P.Partition;
  E.GroupPrev = 0;
  DrcGroup G;
  drcGroupId(G.Id, E.VolId, P.Token, P.Partition);
  DrcGroup *Head = DrcGroups.find({G.Id, sizeof G.Id});
  if (!Head) {
    G.Head = 0;
    DrcGroups.insertOrAssign(G);
    Head = DrcGroups.find({G.Id, sizeof G.Id});
  }
  E.GroupNext = Head->Head;
  if (E.GroupNext)
    Drc.find(keyView(E.GroupNext))->GroupPrev = E.Key;
  Head->Head = E.Key;
}

void FileServer::drcUnlink(DrcEntry &E) {
  if (!E.Grouped)
    return;
  E.Grouped = false;
  if (E.GroupNext)
    Drc.find(keyView(E.GroupNext))->GroupPrev = E.GroupPrev;
  if (E.GroupPrev) {
    Drc.find(keyView(E.GroupPrev))->GroupNext = E.GroupNext;
    return;
  }
  // E heads its list.
  char Id[16];
  drcGroupId(Id, E.VolId, E.GroupToken, E.GroupPartition);
  auto G = DrcGroups.locate({Id, sizeof Id});
  DMB_ASSERT(G && G.Value->Head == E.Key, "DRC partition list head lost");
  if (E.GroupNext)
    G.Value->Head = E.GroupNext;
  else
    DrcGroups.erase(G);
}

std::vector<FileServer::DrcExport> FileServer::extractDrcEntries(
    uint32_t VolId, uint64_t DirToken, unsigned Partition,
    const std::function<bool(const std::string &)> &Match) {
  std::vector<DrcExport> Out;
  char Id[16];
  drcGroupId(Id, VolId, DirToken, Partition);
  const DrcGroup *G = DrcGroups.find({Id, sizeof Id});
  if (!G)
    return Out;
  std::vector<uint64_t> Keys;
  for (uint64_t K = G->Head; K;) {
    const DrcEntry *E = Drc.find(keyView(K));
    if (Match(E->Path))
      Keys.push_back(K);
    K = E->GroupNext;
  }
  if (Keys.empty())
    return Out;
  // List order is insertion history; hand the caller a key-sorted view.
  std::sort(Keys.begin(), Keys.end());
  Out.reserve(Keys.size());
  for (uint64_t K : Keys) {
    DrcEntry *E = Drc.find(keyView(K));
    Out.push_back({K, E->Op, std::move(E->Reply), std::move(E->Path)});
    drcErase(K);
  }
  std::erase_if(DrcEvictOrder,
                [this](uint64_t Key) { return !Drc.find(keyView(Key)); });
  return Out;
}

std::vector<FileServer::DrcExport>
FileServer::drcEntries(uint32_t VolId) const {
  std::vector<DrcExport> Out;
  Drc.forEach([&](const DrcEntry &E) {
    if (E.VolId == VolId)
      Out.push_back({E.Key, E.Op, E.Reply, E.Path});
  });
  std::sort(Out.begin(), Out.end(),
            [](const DrcExport &A, const DrcExport &B) { return A.Key < B.Key; });
  return Out;
}

void FileServer::adoptDrcEntry(uint32_t VolId, uint64_t Key, MetaOp Op,
                               MetaReply Reply, std::string Path,
                               uint64_t SeqPlus1) {
  if (!Config.DuplicateRequestCacheSize)
    return;
  drcInsert(DrcEntry{Key, Op, std::move(Reply), std::move(Path), VolId,
                     SeqPlus1});
}

bool FileServer::drcCacheable(MetaOp Op) {
  switch (Op) {
  case MetaOp::Stat:
  case MetaOp::Lstat:
  case MetaOp::Readdir:
  case MetaOp::ReaddirPlus:
  case MetaOp::Readlink:
  case MetaOp::Getxattr:
  case MetaOp::Fsync:
    return false; // idempotent: re-execution is harmless
  default:
    return true;
  }
}

void FileServer::watchMutations(
    std::function<void(const std::string &, const MetaRequest &)> Watcher) {
  Watchers.push_back(std::move(Watcher));
}

void FileServer::setTenantRateLimit(uint32_t Uid, double OpsPerSec) {
  if (OpsPerSec <= 0) {
    std::erase_if(TenantLimits,
                  [Uid](const RateLimit &L) { return L.Uid == Uid; });
    return;
  }
  SimDuration Period = static_cast<SimDuration>(1e9 / OpsPerSec);
  if (RateLimit *Limit = tenantLimit(Uid)) {
    Limit->Period = Period;
    Limit->NextAdmission = Sched.now();
    return;
  }
  TenantLimits.push_back(RateLimit{Uid, Period, Sched.now()});
}

void FileServer::process(const std::string &Volume, const MetaRequest &Req,
                         Callback Done) {
  process(volumeId(Volume), Req, std::move(Done));
}

void FileServer::process(uint32_t VolId, const MetaRequest &Req,
                         Callback Done) {
  // The reply and its callback wait in a slot; the completion names the
  // slot, so it fits the scheduler's inline event storage.
  Admission A;
  MetaReply Reply = admit(VolId, Req, A);
  uint32_t Slot =
      PendingReplies.put(PendingReply{std::move(Done), std::move(Reply)});
  charge(A, [this, Slot]() {
    PendingReply P = PendingReplies.take(Slot);
    P.Done(std::move(P.Reply));
  });
}

void FileServer::injectWork(SimDuration Service, Scheduler::Action Done) {
  Cpu.request(Service, [Done = std::move(Done)]() mutable {
    if (Done)
      Done();
  });
}

void FileServer::setServiceJitter(SimDuration Mean, uint64_t Seed) {
  JitterMean = Mean;
  JitterRng.reseed(Seed);
}
