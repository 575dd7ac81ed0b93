//===- tests/WriteBehindTest.cpp - Client write-behind pipeline -----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the reusable client write-behind layer (dfs/WriteBehind.h):
/// deferred local acks and bulk flushing, the three flush triggers,
/// coalescing, queue-local handle translation, the dirty-op cap, sticky
/// flush errors, and — the core contract — that an fsync drains exactly
/// the dependency closure of its target, verified under permuted event
/// schedules.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace dmb;

namespace {

/// Submits \p Req and runs the simulation until the reply arrives.
MetaReply runSync(Scheduler &S, ClientFs &C, MetaRequest Req) {
  MetaReply Out;
  bool Got = false;
  C.submit(Req, [&](MetaReply R) {
    Out = std::move(R);
    Got = true;
  });
  S.run();
  EXPECT_TRUE(Got) << "operation did not complete";
  return Out;
}

/// NFS deployment with the deferred write-behind pipeline enabled.
NfsOptions deferredNfs() {
  NfsOptions O;
  O.Client.WriteBehind.Enabled = true;
  return O;
}

OpCtx userCtx() {
  OpCtx Ctx;
  Ctx.Creds.Uid = 1000;
  Ctx.Creds.Gid = 1000;
  return Ctx;
}

//===----------------------------------------------------------------------===//
// Deferred acks and flush triggers
//===----------------------------------------------------------------------===//

TEST(WriteBehind, DeferredAcksLocallyAndFlushesOnDwellTimer) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  int Acked = 0;
  for (int I = 0; I < 5; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)), [&](MetaReply R) {
      ASSERT_TRUE(R.ok());
      ++Acked;
    });
  // All five ack from the local queue long before any RPC could return;
  // nothing has reached the server yet (the dwell timer is 2 ms).
  S.runUntil(milliseconds(1));
  EXPECT_EQ(5, Acked);
  EXPECT_EQ(0u, Fs.server().processedRequests());
  ASSERT_NE(nullptr, C->writeBehind());
  EXPECT_EQ(5u, C->writeBehind()->dirtyOps());

  // The dwell timer fires and the batch issues as one flush.
  S.run();
  EXPECT_EQ(5u, Fs.server().processedRequests());
  EXPECT_EQ(1u, C->writeBehind()->flushes());
  EXPECT_EQ(5u, C->writeBehind()->issuedOps());
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
}

TEST(WriteBehind, OpCountTriggerFlushesBeforeTheTimer) {
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.FlushMaxOps = 3;
  Scheduler S;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);

  for (int I = 0; I < 3; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)), [](MetaReply) {});
  // The third enqueue hits the count trigger: the batch is at the server
  // well inside the 2 ms dwell window.
  S.runUntil(milliseconds(1));
  EXPECT_EQ(3u, Fs.server().processedRequests());
}

TEST(WriteBehind, ByteTriggerFlushesQueuedWrites) {
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.FlushMaxBytes = 1024;
  Scheduler S;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  C->submit(makeOpen("/f", OpenWrite | OpenCreate), [&](MetaReply R) {
    ASSERT_TRUE(R.ok());
    C->submit(makeWrite(R.Fh, 600), [](MetaReply) {});
    C->submit(makeWrite(R.Fh, 600), [](MetaReply) {});
  });
  // 1200 queued bytes cross the 1 KiB trigger: the chain flushes without
  // waiting for the dwell timer.
  S.runUntil(milliseconds(1));
  EXPECT_GE(Fs.server().processedRequests(), 2u);

  S.run();
  // The two writes coalesced into one appended wire op.
  EXPECT_EQ(1u, C->writeBehind()->coalescedOps());
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  ASSERT_TRUE(Vol->stat(Ctx, "/f").ok());
  EXPECT_EQ(1200u, Vol->stat(Ctx, "/f")->Size);
}

//===----------------------------------------------------------------------===//
// Coalescing and dependency ordering
//===----------------------------------------------------------------------===//

TEST(WriteBehind, RepeatedSetattrsCoalesceToTheLastValue) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  uint64_t IssuedBefore = C->writeBehind()->issuedOps();

  for (uint32_t Mode : {0700u, 0750u, 0755u}) {
    MetaRequest Chmod;
    Chmod.Op = MetaOp::Chmod;
    Chmod.Path = "/d";
    Chmod.Mode = Mode;
    C->submit(Chmod, [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  }
  S.run();
  // One wire op carried the final mode.
  EXPECT_EQ(2u, C->writeBehind()->coalescedOps());
  EXPECT_EQ(IssuedBefore + 1, C->writeBehind()->issuedOps());
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  EXPECT_EQ(0755u, Vol->stat(Ctx, "/d")->Mode & 0777u);
}

TEST(WriteBehind, CreateChainIssuesInDependencyOrder) {
  // mkdir -> create -> write -> close on one path must reach the server
  // in that order even though all four sit in one flushed batch, with the
  // queue-local handle translated to the server handle at issue time.
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  std::vector<FsError> Errs;
  C->submit(makeMkdir("/d"), [&](MetaReply R) { Errs.push_back(R.Err); });
  C->submit(makeOpen("/d/f", OpenWrite | OpenCreate), [&](MetaReply R) {
    Errs.push_back(R.Err);
    ASSERT_TRUE(R.ok());
    C->submit(makeWrite(R.Fh, 100), [&](MetaReply W) {
      Errs.push_back(W.Err);
    });
    C->submit(makeClose(R.Fh), [&](MetaReply Cl) {
      Errs.push_back(Cl.Err);
    });
  });
  S.run();
  EXPECT_EQ(std::vector<FsError>(4, FsError::Ok), Errs);
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  ASSERT_TRUE(Vol->stat(Ctx, "/d/f").ok());
  EXPECT_EQ(100u, Vol->stat(Ctx, "/d/f")->Size);
  EXPECT_TRUE(Vol->fsck().clean());
}

TEST(WriteBehind, PassThroughReadDrainsAndTranslatesTheHandle) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  MetaReply O =
      runSync(S, *C, makeOpen("/f", OpenRead | OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  C->submit(makeWrite(O.Fh, 64), [](MetaReply) {});
  // Seek and read on the queue-local handle are pass-through operations:
  // each must first drain the open/write closure, then issue against the
  // server handle the open resolved to.
  MetaRequest Rewind;
  Rewind.Op = MetaOp::Seek;
  Rewind.Fh = O.Fh;
  Rewind.Bytes = 0;
  ASSERT_TRUE(runSync(S, *C, Rewind).ok());
  MetaReply R = runSync(S, *C, makeRead(O.Fh, 64));
  EXPECT_EQ(FsError::Ok, R.Err);
  EXPECT_EQ(64u, R.Bytes);
}

//===----------------------------------------------------------------------===//
// Dirty-op cap, sticky errors
//===----------------------------------------------------------------------===//

TEST(WriteBehind, MaxQueuedOpsStallsAdmissionInOrder) {
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.MaxQueuedOps = 4;
  O.Client.WriteBehind.FlushMaxOps = 3;
  Scheduler S;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);

  std::vector<int> AckOrder;
  for (int I = 0; I < 10; ++I)
    C->submit(makeMkdir("/t" + std::to_string(I)), [&AckOrder, I](MetaReply R) {
      ASSERT_TRUE(R.ok());
      AckOrder.push_back(I);
    });
  // Only up to the cap is acked instantly; the rest waits for the
  // pipeline to drain.
  S.runUntil(microseconds(50));
  EXPECT_EQ(4u, AckOrder.size());
  S.run();
  ASSERT_EQ(10u, AckOrder.size());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(I, AckOrder[I]) << "stall must preserve FIFO admission";
  EXPECT_EQ(10u, Fs.server().processedRequests());
}

TEST(WriteBehind, FlushErrorIsStickyUntilTheNextBarrier) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  // The local ack is optimistic: the queue predicts success even though
  // the parent directory does not exist.
  MetaReply Local = runSync(S, *C, makeMkdir("/missing/sub"));
  EXPECT_EQ(FsError::Ok, Local.Err);
  // The flush observed the server's NoEnt; the next fsync surfaces it
  // instead of swallowing it.
  EXPECT_EQ(1u, C->writeBehind()->flushErrors());
  EXPECT_EQ(FsError::NoEnt, C->writeBehind()->pendingError());
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  // Consumed: a second barrier reports a clean pipeline.
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);
}

/// Use after close on a queue-local handle: once the close has completed
/// and retired the handle, every operation on it replies BadFd, and none
/// of them re-enters the queue.
void expectRetiredHandleRepliesBadFd(Scheduler &S, ClientFs &C,
                                     const WriteBehindQueue &WB) {
  MetaReply O = runSync(S, C, makeOpen("/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_EQ(FsError::Ok, runSync(S, C, makeClose(O.Fh)).Err);
  ASSERT_EQ(FsError::Ok, runSync(S, C, makeFsync(InvalidHandle)).Err);
  uint64_t Enqueued = WB.enqueuedOps();
  EXPECT_EQ(FsError::BadFd, runSync(S, C, makeClose(O.Fh)).Err);
  EXPECT_EQ(FsError::BadFd, runSync(S, C, makeWrite(O.Fh, 64)).Err);
  EXPECT_EQ(FsError::BadFd, runSync(S, C, makeRead(O.Fh, 64)).Err);
  EXPECT_EQ(Enqueued, WB.enqueuedOps());
  EXPECT_EQ(0u, WB.dirtyOps());
  EXPECT_EQ(FsError::Ok, runSync(S, C, makeFsync(InvalidHandle)).Err);
}

TEST(WriteBehind, NfsUseAfterCloseOnALocalHandleRepliesBadFd) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  expectRetiredHandleRepliesBadFd(S, *C, *C->writeBehind());
}

TEST(WriteBehind, ShardedUseAfterCloseOnALocalHandleRepliesBadFd) {
  Scheduler S;
  ShardedOptions O;
  O.Client.WriteBehind.Enabled = true;
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<ShardedClient *>(Client.get());
  expectRetiredHandleRepliesBadFd(S, *C, *C->writeBehind());
}

TEST(WriteBehind, WriteQueuedBehindItsCloseCompletesWithBadFd) {
  // The write rides behind the close in one batch: when its turn comes
  // the close has retired the handle, so it completes with BadFd — a
  // byproduct error, counted but not sticky.
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  MetaReply O = runSync(S, *C, makeOpen("/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  C->submit(makeClose(O.Fh), [](MetaReply R) { EXPECT_TRUE(R.ok()); });
  C->submit(makeWrite(O.Fh, 64), [](MetaReply) {});
  S.run();
  EXPECT_EQ(1u, C->writeBehind()->flushErrors());
  EXPECT_EQ(FsError::Ok, C->writeBehind()->pendingError());
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
}

//===----------------------------------------------------------------------===//
// Closure-only fsync barrier, under permuted schedules
//===----------------------------------------------------------------------===//

TEST(WriteBehind, FsyncDrainsExactlyTheDependencyClosure) {
  // Two independent chains share the queue. fsync on chain A's handle
  // must drain A's closure (mkdir /a, open /a/f, write, close) and
  // nothing else: chain B's ops stay queued behind their own triggers.
  // The whole interaction must be invariant under permuted same-timestamp
  // schedules — verifySchedules runs it 8 more times with perturbed tie
  // orders and compares this canonical output bit-for-bit.
  ScheduleScenario Sc;
  Sc.Name = "writebehind-closure-fsync";
  Sc.Run = [](Scheduler &S) {
    NfsOptions O = deferredNfs();
    // No count/byte/timer help: only barriers move this queue.
    O.Client.WriteBehind.FlushMaxOps = 1000;
    O.Client.WriteBehind.FlushMaxBytes = 1u << 30;
    O.Client.WriteBehind.FlushDelay = seconds(100.0);
    NfsFs Fs(S, O);
    std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
    auto *C = static_cast<NfsClient *>(Client.get());

    std::string Out;
    // Chain B: two ops with no relation to chain A.
    C->submit(makeMkdir("/b"), [](MetaReply) {});
    C->submit(makeOpen("/b/g", OpenWrite | OpenCreate), [](MetaReply) {});
    // Chain A, then the targeted barrier once its close is acked.
    C->submit(makeMkdir("/a"), [](MetaReply) {});
    C->submit(makeOpen("/a/f", OpenWrite | OpenCreate), [&](MetaReply R) {
      C->submit(makeWrite(R.Fh, 128), [](MetaReply) {});
      C->submit(makeClose(R.Fh), [](MetaReply) {});
      C->submit(makeFsync(R.Fh), [&, Fh = R.Fh](MetaReply F) {
        // At barrier completion exactly chain A reached the server.
        Out += "fsync=" + std::string(F.ok() ? "ok" : "err");
        Out += " served=" + std::to_string(Fs.server().processedRequests());
        Out += " still-queued=" +
               std::to_string(C->writeBehind()->dirtyOps());
        Out += "\n";
      });
    });
    S.run();
    // Chain B is still parked; a full barrier releases it.
    MetaReply Full = runSync(S, *C, makeFsync(InvalidHandle));
    Out += "full=" + std::string(Full.ok() ? "ok" : "err");
    Out += " served=" + std::to_string(Fs.server().processedRequests());
    LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
    OpCtx Ctx = userCtx();
    Out += " a=" + std::to_string(Vol->stat(Ctx, "/a/f").ok());
    Out += " b=" + std::to_string(Vol->stat(Ctx, "/b/g").ok());
    Out += " fsck=" + std::string(Vol->fsck().clean() ? "clean" : "dirty");
    Out += "\n";
    return Out;
  };

  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_TRUE(R.passed()) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);

  // Pin the canonical interaction: the targeted fsync saw chain A's four
  // ops at the server with chain B's two still queued; the full barrier
  // brought the total to six.
  Scheduler S;
  std::string Out = Sc.Run(S);
  EXPECT_EQ("fsync=ok served=4 still-queued=2\n"
            "full=ok served=6 a=1 b=1 fsck=clean\n",
            Out);
}

//===----------------------------------------------------------------------===//
// The queue's indexes, on a bare queue behind fake hooks
//===----------------------------------------------------------------------===//

/// Stands in for a client's RPC path: records every wire request in issue
/// order and replies after a fixed delay. A creating open gets the next
/// server handle, unless its path is in FailOpens.
struct FakeWire {
  explicit FakeWire(Scheduler &S) : S(S) {}

  WriteBehindHooks hooks() {
    WriteBehindHooks H;
    H.AllocXid = [this]() { return ++LastXid; };
    H.Issue = [this](const MetaRequest &Req, ReplyCallback Done) {
      Wire.push_back(Req);
      MetaReply Reply;
      if (Req.Op == MetaOp::Open) {
        if (FailOpens.count(Req.Path))
          Reply.Err = FsError::Access;
        else
          Reply.Fh = ServerFhOf[Req.Path] = NextServerFh++;
      }
      S.after(microseconds(100), [Done = std::move(Done), Reply]() mutable {
        Done(std::move(Reply));
      });
    };
    return H;
  }

  Scheduler &S;
  std::vector<MetaRequest> Wire;
  std::set<std::string> FailOpens;
  std::map<std::string, FileHandle> ServerFhOf;
  uint64_t LastXid = 0;
  FileHandle NextServerFh = 1;
};

/// Deferred policy that only explicit barriers and flush() move.
WriteBehindPolicy barrierOnlyPolicy() {
  WriteBehindPolicy P;
  P.Enabled = true;
  P.FlushMaxOps = 1u << 20;
  P.FlushMaxBytes = 1ULL << 40;
  P.FlushDelay = seconds(100.0);
  P.MaxQueuedOps = 1u << 20;
  return P;
}

/// Two create -> write chains and four mkdirs share the queue. fsync on
/// chain A claims and drains it; fsync on chain B claims it but leaves its
/// write waiting for the open; flush() must then issue exactly the four
/// mkdirs, in ascending Xid order. Returns the wire sequence and counters.
std::string targetedFsyncThenFlush(Scheduler &S) {
  FakeWire W(S);
  WriteBehindQueue Q(S, barrierOnlyPolicy(), W.hooks());
  auto Ignore = [](MetaReply) {};
  FileHandle FhA = InvalidHandle, FhB = InvalidHandle;
  Q.enqueue(makeMkdir("/x0"), Ignore);
  Q.enqueue(makeOpen("/a", OpenWrite | OpenCreate),
            [&](MetaReply R) { FhA = R.Fh; });
  Q.enqueue(makeOpen("/b", OpenWrite | OpenCreate),
            [&](MetaReply R) { FhB = R.Fh; });
  Q.enqueue(makeMkdir("/x1"), Ignore);
  S.runUntil(milliseconds(1));
  Q.enqueue(makeWrite(FhA, 10), Ignore);
  Q.enqueue(makeMkdir("/x2"), Ignore);
  Q.enqueue(makeClose(FhA), Ignore);
  Q.enqueue(makeWrite(FhB, 20), Ignore);
  Q.enqueue(makeMkdir("/x3"), Ignore);

  std::string Out;
  auto Barrier = [&](MetaReply R) {
    Out += std::string("fsync=") + (R.ok() ? "ok" : "err") + "\n";
  };
  Q.fsync(makeFsync(FhA), Barrier);
  S.runUntil(milliseconds(2)); // chain A completes and leaves the queue
  Q.fsync(makeFsync(FhB), Barrier);
  Q.flush();
  S.run();
  for (const MetaRequest &R : W.Wire)
    Out += "xid=" + std::to_string(R.Xid) + " " + metaOpName(R.Op) + " " +
           (R.Fh == InvalidHandle ? R.Path : "fh=" + std::to_string(R.Fh)) +
           "\n";
  Out += "enqueued=" + std::to_string(Q.enqueuedOps()) +
         " issued=" + std::to_string(Q.issuedOps()) +
         " flushes=" + std::to_string(Q.flushes()) +
         " dirty=" + std::to_string(Q.dirtyOps()) + "\n";
  return Out;
}

TEST(WriteBehindIndex, FlushAfterATargetedFsyncIssuesTheRestOnce) {
  Scheduler S;
  // Chain A (xids 2, 5, 7) went out under the first barrier, chain B's
  // open (3) under the second; flush() issued only the mkdirs, ascending;
  // chain B's write (8) followed its open's reply. Nine ops, nine issues.
  EXPECT_EQ("fsync=ok\n"
            "fsync=ok\n"
            "xid=2 open /a\n"
            "xid=5 write fh=1\n"
            "xid=7 close fh=1\n"
            "xid=3 open /b\n"
            "xid=1 mkdir /x0\n"
            "xid=4 mkdir /x1\n"
            "xid=6 mkdir /x2\n"
            "xid=9 mkdir /x3\n"
            "xid=8 write fh=2\n"
            "enqueued=9 issued=9 flushes=1 dirty=0\n",
            targetedFsyncThenFlush(S));
}

TEST(WriteBehindIndex, IssueSequenceIsScheduleInvariant) {
  ScheduleScenario Sc;
  Sc.Name = "writebehind-targeted-fsync-then-flush";
  Sc.Run = targetedFsyncThenFlush;
  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_TRUE(R.passed()) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);
}

TEST(WriteBehindIndex, FailedOpenRetiresOnlyItsOwnHandle) {
  constexpr int Files = 1024;
  constexpr int Failing = 517;
  Scheduler S;
  FakeWire W(S);
  W.FailOpens.insert("/f" + std::to_string(Failing));
  WriteBehindQueue Q(S, barrierOnlyPolicy(), W.hooks());

  std::vector<FileHandle> Fhs(Files, InvalidHandle);
  for (int I = 0; I < Files; ++I)
    Q.enqueue(makeOpen("/f" + std::to_string(I), OpenWrite | OpenCreate),
              [&Fhs, I](MetaReply R) { Fhs[I] = R.Fh; });
  S.runUntil(milliseconds(1));
  // One write per handle, all live at once; remember whose each Xid is.
  std::map<uint64_t, int> FileOfXid;
  for (int I = 0; I < Files; ++I) {
    Q.enqueue(makeWrite(Fhs[I], 100), [](MetaReply R) { EXPECT_TRUE(R.ok()); });
    FileOfXid[W.LastXid] = I;
  }
  EXPECT_EQ(2u * Files, Q.dirtyOps());
  Q.flush();
  S.run();

  // The failing handle's write completed locally with BadFd; every other
  // write went out under its own file's server handle.
  size_t Writes = 0;
  for (const MetaRequest &R : W.Wire) {
    if (R.Op != MetaOp::Write)
      continue;
    ++Writes;
    int I = FileOfXid.at(R.Xid);
    EXPECT_NE(Failing, I);
    EXPECT_EQ(W.ServerFhOf.at("/f" + std::to_string(I)), R.Fh) << "/f" << I;
  }
  EXPECT_EQ(size_t(Files - 1), Writes);
  EXPECT_EQ(2u * Files, Q.issuedOps());
  EXPECT_EQ(2u, Q.flushErrors()); // the open, then its write's BadFd
  EXPECT_EQ(FsError::Access, Q.pendingError());
  EXPECT_EQ(0u, Q.dirtyOps());
  for (int I = 0; I < Files; ++I) {
    FileHandle Expected = I == Failing
                              ? InvalidHandle
                              : W.ServerFhOf.at("/f" + std::to_string(I));
    EXPECT_EQ(Expected, Q.translate(makeRead(Fhs[I], 1)).Fh) << "/f" << I;
  }
}

//===----------------------------------------------------------------------===//
// The other clients opt in through the same policy
//===----------------------------------------------------------------------===//

TEST(WriteBehind, LustreClientOptsIntoTheDeferredPipeline) {
  Scheduler S;
  LustreOptions O;
  O.Client.WriteBehind.Enabled = true;
  LustreFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<LustreClient *>(Client.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  MetaReply F = runSync(S, *C, makeOpen("/d/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(F.ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(F.Fh)).Err);
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
  // A queued chmod still shadows the attribute cache (same invalidation
  // hook as the eager discipline).
  MetaReply St = runSync(S, *C, makeStat("/d/f"));
  ASSERT_TRUE(St.ok());
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/d/f";
  Chmod.Mode = 0700;
  C->submit(Chmod, [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  MetaReply St2 = runSync(S, *C, makeStat("/d/f"));
  EXPECT_EQ(0700u, St2.A.Mode & 0777u);
  LocalFileSystem *Vol = Fs.mds().volume(LustreFs::VolumeName);
  EXPECT_TRUE(Vol->fsck().clean());
}

TEST(WriteBehind, ShardedClientOptsIntoTheDeferredPipeline) {
  Scheduler S;
  ShardedOptions O;
  O.Client.WriteBehind.Enabled = true;
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<ShardedClient *>(Client.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  for (int I = 0; I < 8; ++I) {
    MetaReply F = runSync(
        S, *C, makeOpen("/d/f" + std::to_string(I), OpenWrite | OpenCreate));
    ASSERT_TRUE(F.ok());
    ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(F.Fh)).Err);
  }
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
  // The files are durably visible through a synchronous reader.
  std::unique_ptr<ClientFs> Reader = Fs.makeClient(1);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(runSync(S, *Reader, makeStat("/d/f" + std::to_string(I))).ok())
        << "/d/f" << I;
}

} // namespace
