//===- tests/ShardedTest.cpp - Sharded metadata service -------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the sharded metadata service (dfs/ShardedFs.h): the GIGA+
/// partition map and placement functions, namespace semantics through the
/// client's virtual-to-physical translation, incremental splitting of a
/// hot directory, the StaleMap redirect protocol (including the redirect
/// that is answered from a migrated duplicate-request-cache entry), rename
/// semantics across shards, and the tier-1 pinned benchmark scenario with
/// its schedule-invariance twin.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <algorithm>
#include <bit>
#include <gtest/gtest.h>
#include <memory>
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

/// Creates an empty file through the client (open/close).
FsError touch(Scheduler &S, ClientFs &C, const std::string &Path) {
  MetaReply R = runSync(S, C, makeOpen(Path, OpenWrite | OpenCreate));
  if (!R.ok())
    return R.Err;
  return runSync(S, C, makeClose(R.Fh)).Err;
}

//===----------------------------------------------------------------------===//
// Partition map and placement units
//===----------------------------------------------------------------------===//

TEST(Sharded, PartitionOfWalksTheBitmap) {
  // A single partition swallows every hash.
  for (uint64_t H : {0ull, 1ull, 63ull, 0xdeadbeefull})
    EXPECT_EQ(0u, PartitionMap::partitionOf(H, 0b1));
  // Depth-1 split: the low bit decides.
  EXPECT_EQ(0u, PartitionMap::partitionOf(6, 0b11));
  EXPECT_EQ(1u, PartitionMap::partitionOf(7, 0b11));
  // The GIGA+ walk clears the most significant bit until present:
  // 5 = 101b is absent from {0,1,2}, drops the 4-bit, lands on 1.
  EXPECT_EQ(1u, PartitionMap::partitionOf(5, 0b111));
  // 7 = 111b drops to 3 (absent), then to 1.
  EXPECT_EQ(1u, PartitionMap::partitionOf(7, 0b111));
  EXPECT_EQ(2u, PartitionMap::partitionOf(6, 0b111));
}

TEST(Sharded, PhysicalPathsRoundTrip) {
  uint64_t Tok = fnv1a64("/some/dir");
  for (unsigned P : {0u, 1u, 63u}) {
    std::string Dir = PartitionMap::partitionDirName(Tok, P);
    PartitionMap::ParsedPath Out;
    ASSERT_TRUE(PartitionMap::parse(Dir, Out)) << Dir;
    EXPECT_EQ(Tok, Out.Token);
    EXPECT_EQ(P, Out.Partition);
    EXPECT_TRUE(Out.Leaf.empty());
    std::string Entry = Dir + "/leafname"; // Out.Leaf views it
    ASSERT_TRUE(PartitionMap::parse(Entry, Out));
    EXPECT_EQ(Tok, Out.Token);
    EXPECT_EQ(P, Out.Partition);
    EXPECT_EQ("leafname", Out.Leaf);
  }
  PartitionMap::ParsedPath Out;
  EXPECT_FALSE(PartitionMap::parse("/ordinary/path", Out));
  EXPECT_FALSE(PartitionMap::parse("/giga/nothex.0", Out));
  EXPECT_FALSE(PartitionMap::parse("/giga", Out));
}

TEST(Sharded, SplitChildAndCommitFollowGigaRules) {
  PartitionMap M;
  GigaDir &D = M.registerDir("/d");
  uint64_t E0 = M.epoch();
  EXPECT_EQ(fnv1a64("/d"), D.Token);
  EXPECT_EQ(0b1ull, D.Bitmap);

  // Partition 0 at depth 0 splits into 0 + 2^0 = 1.
  unsigned Child = PartitionMap::splitChild(D, 0, PartitionMap::MaxPartitions);
  ASSERT_EQ(1u, Child);
  M.commitSplit(D, 0, Child);
  EXPECT_EQ(0b11ull, D.Bitmap);
  EXPECT_EQ(1u, D.Depth[0]);
  EXPECT_EQ(1u, D.Depth[1]);
  EXPECT_GT(M.epoch(), E0);

  // Partition 1 at depth 1 splits into 1 + 2^1 = 3; a partition cap below
  // the child index refuses the split.
  EXPECT_EQ(3u, PartitionMap::splitChild(D, 1, PartitionMap::MaxPartitions));
  EXPECT_EQ(PartitionMap::MaxPartitions, PartitionMap::splitChild(D, 1, 2));

  // An entry leaves its depth-d partition iff hash bit d is set.
  EXPECT_TRUE(PartitionMap::movesOnSplit(0b1, 0));
  EXPECT_FALSE(PartitionMap::movesOnSplit(0b10, 0));
  EXPECT_TRUE(PartitionMap::movesOnSplit(0b10, 1));

  // Registration is idempotent; unregistering forgets the directory.
  GigaDir &Again = M.registerDir("/d");
  EXPECT_EQ(&D, &Again);
  EXPECT_EQ(0b11ull, Again.Bitmap);
  M.unregisterDir(D.Token);
  EXPECT_EQ(nullptr, M.dir(fnv1a64("/d")));
}

TEST(Sharded, PlacementIsDeterministicAndFansOut) {
  ShardPlacement RR{4, ShardPlacement::Policy::RoundRobin};
  ShardPlacement HS{4, ShardPlacement::Policy::HashSpread};
  for (const char *Path : {"/a", "/a/b", "/hot"}) {
    uint64_t Tok = fnv1a64(Path);
    EXPECT_EQ(RR.homeShard(Tok), RR.shardFor(Tok, 0));
    EXPECT_EQ(HS.homeShard(Tok), HS.shardFor(Tok, 0));
    for (unsigned P = 0; P < 8; ++P) {
      // Round-robin: consecutive partitions land on consecutive shards,
      // so one directory's first N partitions cover all N shards.
      EXPECT_EQ((RR.shardFor(Tok, 0) + P) % 4, RR.shardFor(Tok, P));
      EXPECT_LT(HS.shardFor(Tok, P), 4u);
      // Pure functions: both sides of the protocol recompute identically.
      EXPECT_EQ(RR.shardFor(Tok, P), RR.shardFor(Tok, P));
      EXPECT_EQ(HS.shardFor(Tok, P), HS.shardFor(Tok, P));
    }
  }
}

//===----------------------------------------------------------------------===//
// Namespace semantics through the sharded client
//===----------------------------------------------------------------------===//

TEST(Sharded, BasicNamespaceOperations) {
  Scheduler S;
  ShardedFs Fs(S);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);

  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeMkdir("/d")).Err);
  EXPECT_EQ(FsError::Exists, runSync(S, *Client, makeMkdir("/d")).Err);
  EXPECT_EQ(FsError::Ok, touch(S, *Client, "/d/f"));

  MetaReply St = runSync(S, *Client, makeStat("/d/f"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Regular, St.A.Type);
  St = runSync(S, *Client, makeStat("/d"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Directory, St.A.Type);

  MetaReply Dir = runSync(S, *Client, makeReaddir("/d"));
  ASSERT_TRUE(Dir.ok());
  ASSERT_EQ(3u, Dir.Entries.size()); // ".", "..", "f"
  EXPECT_EQ("f", Dir.Entries.back().Name);

  // Symlinks resolve through the partition translation too.
  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeSymlink("f", "/d/l")).Err);
  MetaRequest RlReq;
  RlReq.Op = MetaOp::Readlink;
  RlReq.Path = "/d/l";
  MetaReply Rl = runSync(S, *Client, RlReq);
  ASSERT_TRUE(Rl.ok());
  EXPECT_EQ("f", Rl.Text);

  // A populated directory refuses rmdir until emptied.
  EXPECT_EQ(FsError::NotEmpty, runSync(S, *Client, makeRmdir("/d")).Err);
  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeUnlink("/d/l")).Err);
  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeUnlink("/d/f")).Err);
  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeRmdir("/d")).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *Client, makeStat("/d")).Err);
}

TEST(Sharded, HotDirectorySplitsAndSpreads) {
  Scheduler S;
  ShardedOptions O;
  O.NumShards = 4;
  O.SplitThreshold = 4;
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<ShardedClient *>(Client.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *Client, makeMkdir("/hot")).Err);
  constexpr unsigned N = 32;
  for (unsigned I = 0; I < N; ++I)
    ASSERT_EQ(FsError::Ok, touch(S, *Client, "/hot/f" + std::to_string(I)))
        << I;

  // 32 entries over a 4-entry threshold forced repeated splits, moving
  // entries between shards; the client followed the map via redirects.
  EXPECT_GT(Fs.splitCount(), 0u);
  EXPECT_GT(Fs.migratedEntries(), 0u);
  EXPECT_GT(C->staleMapRetries(), 0u);
  EXPECT_GT(Fs.staleReplies(), 0u);
  const GigaDir *D = Fs.partitionMap().dir(fnv1a64("/hot"));
  ASSERT_NE(nullptr, D);
  EXPECT_GT(std::popcount(D->Bitmap), 1);

  // The advisory per-partition counts sum to the real entry count.
  uint64_t Counted = 0;
  for (unsigned P = 0; P < PartitionMap::MaxPartitions; ++P)
    Counted += D->Count[P];
  EXPECT_EQ(uint64_t(N), Counted);

  // Nothing was lost or duplicated along the way: every file stats, and
  // the fan-out readdir returns each exactly once.
  for (unsigned I = 0; I < N; ++I)
    EXPECT_TRUE(runSync(S, *Client, makeStat("/hot/f" + std::to_string(I)))
                    .ok())
        << I;
  MetaReply Dir = runSync(S, *Client, makeReaddir("/hot"));
  ASSERT_TRUE(Dir.ok());
  std::vector<std::string> Names;
  for (const DirEntry &E : Dir.Entries)
    Names.push_back(E.Name);
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(N + 2, Names.size());
  EXPECT_EQ(Names.end(), std::adjacent_find(Names.begin(), Names.end()));

  // Every shard volume stayed consistent under the migrations.
  for (unsigned I = 0; I < Fs.numShards(); ++I)
    EXPECT_TRUE(Fs.shard(I)
                    .volume(ShardedFs::volumeName(I))
                    ->fsck()
                    .clean())
        << "shard " << I;
}

//===----------------------------------------------------------------------===//
// StaleMap redirects and the migrated duplicate-request cache
//===----------------------------------------------------------------------===//

TEST(Sharded, RedirectedRetransmitHitsMigratedDrcEntry) {
  // The end-to-end exactly-once chain across a split: client 1 creates a
  // directory entry and loses the reply; before its retransmit fires, a
  // split migrates the entry (and its cached reply) to another shard. The
  // retransmit carries the original Xid, is redirected by the stale map,
  // and must be answered from the *destination* shard's cache — Ok, not
  // the Exists a re-execution would see.
  Scheduler S;
  ShardedOptions O;
  O.NumShards = 2;
  O.SplitThreshold = 2;
  O.Client.Retry.Timeout = milliseconds(10);
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> C1 = Fs.makeClient(0);
  std::unique_ptr<ClientFs> C2 = Fs.makeClient(1);
  auto *R1 = static_cast<ShardedClient *>(C1.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *C2, makeMkdir("/d")).Err);

  // A leaf whose hash has bit 0 set leaves partition 0 on the first
  // split; with round-robin placement its new partition 1 is on the
  // other shard.
  std::string Mover;
  for (unsigned I = 0;; ++I) {
    std::string Name = "m" + std::to_string(I);
    if (PartitionMap::movesOnSplit(PartitionMap::hashName(Name), 0)) {
      Mover = Name;
      break;
    }
  }
  uint64_t Tok = fnv1a64("/d");
  ASSERT_NE(Fs.placement().shardFor(Tok, 0), Fs.placement().shardFor(Tok, 1));
  unsigned DstShard = Fs.placement().shardFor(Tok, 1);

  // Client 1 creates the mover and loses the reply.
  FaultPolicy P;
  P.Windows = {{S.now(), S.now() + milliseconds(2), 1.0}};
  R1->replyLink().setFaultPolicy(P);
  MetaReply MoverReply;
  bool MoverDone = false;
  C1->submit(makeMkdir("/d/" + Mover), [&](MetaReply R) {
    MoverReply = std::move(R);
    MoverDone = true;
  });

  // Client 2 trips the 2-entry threshold at 3 ms — after the mover
  // executed, before client 1's 10 ms retransmit — splitting /d.
  unsigned FillerDone = 0;
  S.after(milliseconds(3), [&] {
    C2->submit(makeMkdir("/d/a0"), [&](MetaReply) { ++FillerDone; });
    C2->submit(makeMkdir("/d/a1"), [&](MetaReply) { ++FillerDone; });
  });
  S.run();

  ASSERT_TRUE(MoverDone);
  ASSERT_EQ(2u, FillerDone);
  EXPECT_EQ(FsError::Ok, MoverReply.Err) << "retransmit was double-applied";
  EXPECT_GT(Fs.splitCount(), 0u);
  EXPECT_GE(R1->staleMapRetries(), 1u);
  // The replay came from the destination shard's adopted entry.
  EXPECT_GE(Fs.shard(DstShard).drcHits(), 1u);

  // Exactly once: the entry exists, once, on the destination.
  MetaReply St = runSync(S, *C2, makeStat("/d/" + Mover));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Directory, St.A.Type);
}

TEST(ShardedDrc, SideIndexedExtractionMatchesWholeCacheScan) {
  // Differential check of the duplicate-request cache's per-partition side
  // index: a seeded run of inserts (successes and cached failures), in-
  // place refreshes that move an entry between partitions, FIFO
  // evictions, crash prunes with in-flight records and split extractions
  // on two volumes. Every extraction must return exactly what a scan of
  // the whole cache selects — the same keys, in key order, with the same
  // payloads — and the eviction queue must track the cache after every
  // step.
  Scheduler S;
  ServerConfig Cfg;
  Cfg.DuplicateRequestCacheSize = 48; // small: evictions are frequent
  Cfg.CpuThreads = 4;
  FileServer Server(S, Cfg);
  const char *Vols[] = {"v0", "v1"};
  uint32_t VolIds[2];
  const uint64_t Tokens[] = {0x1234, 0xfeedface00000001ULL, 0x77};
  for (int V = 0; V < 2; ++V) {
    Server.addVolume(Vols[V]);
    VolIds[V] = Server.volumeId(Vols[V]);
  }
  Server.enableJournal();
  auto Apply = [&](int V, MetaRequest Req) {
    Server.process(VolIds[V], Req, [](MetaReply) {});
  };
  for (int V = 0; V < 2; ++V) {
    Apply(V, makeMkdir("/giga"));
    for (uint64_t Tok : Tokens)
      for (unsigned Part = 0; Part < 4; ++Part)
        Apply(V, makeMkdir(PartitionMap::partitionDirName(Tok, Part)));
  }
  S.run();

  const uint64_t Seed = 20261019;
  Rng R(Seed);
  auto RandomPath = [&]() {
    if (R.below(8) == 0)
      return std::string("/plain/f") + std::to_string(R.below(50));
    return PartitionMap::partitionDirName(Tokens[R.below(3)],
                                          static_cast<unsigned>(R.below(4))) +
           "/n" + std::to_string(R.below(200));
  };
  uint64_t NextXid = 1;
  std::vector<uint64_t> Keys; // every key ever inserted
  unsigned Extractions = 0, NonEmpty = 0, Crashes = 0, Refreshes = 0;
  for (int Step = 0; Step < 3000; ++Step) {
    int V = static_cast<int>(R.below(2));
    uint64_t Dice = R.below(100);
    if (Dice < 70) {
      // A fresh cacheable request: creates mostly succeed, unlinks of
      // names never created fail and are cached as failures.
      MetaRequest Req = R.below(3) ? makeMkdir(RandomPath())
                                   : makeUnlink(RandomPath());
      Req.ClientId = 1 + static_cast<uint32_t>(R.below(3));
      Req.Xid = NextXid++;
      Keys.push_back((uint64_t(Req.ClientId) << 40) ^ Req.Xid);
      Apply(V, Req);
    } else if (Dice < 78) {
      // An in-place refresh of a (possibly evicted) key under a new path,
      // which may move it to another partition or volume.
      uint64_t Key = Keys[R.below(Keys.size())];
      MetaReply Rep;
      Rep.Err = R.below(2) ? FsError::Ok : FsError::Exists;
      Server.adoptDrcEntry(VolIds[V], Key, MetaOp::Mkdir, Rep, RandomPath(),
                           0);
      ++Refreshes;
    } else if (Dice < 80) {
      Server.crashAndRecover(Vols[V]);
      ++Crashes;
    } else if (Dice < 90) {
      // A split: extract the entries of one partition whose leaf moves at
      // a random depth.
      uint64_t Tok = Tokens[R.below(3)];
      unsigned Part = static_cast<unsigned>(R.below(4));
      unsigned Depth = static_cast<unsigned>(R.below(3));
      auto Moves = [&](const std::string &Path) {
        PartitionMap::ParsedPath P;
        return PartitionMap::parse(Path, P) && P.Token == Tok &&
               P.Partition == Part && !P.Leaf.empty() &&
               PartitionMap::movesOnSplit(PartitionMap::hashName(P.Leaf),
                                          Depth);
      };
      std::vector<FileServer::DrcExport> Want;
      for (FileServer::DrcExport &E : Server.drcEntries(VolIds[V]))
        if (Moves(E.Path))
          Want.push_back(std::move(E));
      std::vector<FileServer::DrcExport> Got =
          Server.extractDrcEntries(VolIds[V], Tok, Part, Moves);
      ASSERT_EQ(Want.size(), Got.size()) << "step " << Step;
      for (size_t I = 0; I < Got.size(); ++I) {
        EXPECT_EQ(Want[I].Key, Got[I].Key) << "step " << Step;
        EXPECT_EQ(Want[I].Op, Got[I].Op) << "step " << Step;
        EXPECT_EQ(Want[I].Path, Got[I].Path) << "step " << Step;
        EXPECT_EQ(Want[I].Reply.Err, Got[I].Reply.Err) << "step " << Step;
        EXPECT_EQ(Want[I].Reply.A.Ino, Got[I].Reply.A.Ino) << "step " << Step;
      }
      for (const FileServer::DrcExport &E : Server.drcEntries(VolIds[V]))
        EXPECT_FALSE(Moves(E.Path)) << "step " << Step << ": not extracted";
      ++Extractions;
      NonEmpty += !Got.empty();
    } else {
      // Let some stable writes finish (commits, so some entries survive a
      // later crash) while others stay in flight.
      S.runUntil(S.now() + microseconds(R.below(400)));
    }
    ASSERT_EQ(Server.drcSize(), Server.drcEvictQueueSize()) << "step " << Step;
    ASSERT_LE(Server.drcSize(), Cfg.DuplicateRequestCacheSize);
  }
  S.run();
  EXPECT_GT(NonEmpty, 20u);
  EXPECT_GT(Extractions, 100u);
  EXPECT_GT(Crashes, 10u);
  EXPECT_GT(Refreshes, 50u);
  EXPECT_EQ(Server.drcSize(), Server.drcEvictQueueSize());
}

//===----------------------------------------------------------------------===//
// Rename semantics across partitions and shards
//===----------------------------------------------------------------------===//

TEST(Sharded, RenameAcrossShardsIsXDev) {
  Scheduler S;
  ShardedOptions O;
  O.NumShards = 2;
  O.SplitThreshold = 3;
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);

  // Directories cannot be renamed: their token (and every child's
  // physical placement) derives from the virtual path.
  ASSERT_EQ(FsError::Ok, runSync(S, *Client, makeMkdir("/dd")).Err);
  EXPECT_EQ(FsError::XDev, runSync(S, *Client, makeRename("/dd", "/ee")).Err);

  // Same directory, single partition: a plain rename.
  ASSERT_EQ(FsError::Ok, runSync(S, *Client, makeMkdir("/u")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *Client, "/u/x"));
  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeRename("/u/x", "/u/y")).Err);
  EXPECT_TRUE(runSync(S, *Client, makeStat("/u/y")).ok());
  EXPECT_EQ(FsError::NoEnt, runSync(S, *Client, makeStat("/u/x")).Err);

  // Split a directory, then rename between names whose partitions live on
  // different shards: the client reports XDev (the move would need a
  // cross-shard transaction the service does not implement).
  ASSERT_EQ(FsError::Ok, runSync(S, *Client, makeMkdir("/r")).Err);
  for (unsigned I = 0; I < 8; ++I)
    ASSERT_EQ(FsError::Ok, touch(S, *Client, "/r/g" + std::to_string(I)));
  const GigaDir *D = Fs.partitionMap().dir(fnv1a64("/r"));
  ASSERT_NE(nullptr, D);
  ASSERT_GT(std::popcount(D->Bitmap), 1);

  // Find an existing source and a fresh target name on different shards.
  std::string Src, Dst;
  for (unsigned I = 0; I < 8 && Src.empty(); ++I) {
    std::string Name = "g" + std::to_string(I);
    unsigned SrcShard = Fs.placement().shardFor(
        D->Token,
        PartitionMap::partitionOf(PartitionMap::hashName(Name), D->Bitmap));
    for (unsigned J = 0; J < 64; ++J) {
      std::string Cand = "h";
      Cand += std::to_string(J);
      unsigned DstShard = Fs.placement().shardFor(
          D->Token,
          PartitionMap::partitionOf(PartitionMap::hashName(Cand), D->Bitmap));
      if (DstShard != SrcShard) {
        Src = Name;
        Dst = Cand;
        break;
      }
    }
  }
  ASSERT_FALSE(Src.empty()) << "no cross-shard name pair found";
  std::string SrcPath = "/r/" + Src;
  std::string DstPath = "/r/" + Dst;
  EXPECT_EQ(FsError::XDev,
            runSync(S, *Client, makeRename(SrcPath, DstPath)).Err);
  // The failed rename moved nothing.
  EXPECT_TRUE(runSync(S, *Client, makeStat(SrcPath)).ok());
  EXPECT_EQ(FsError::NoEnt, runSync(S, *Client, makeStat(DstPath)).Err);
}

//===----------------------------------------------------------------------===//
// Tier-1 benchmark scenario: pinned and schedule-invariant
//===----------------------------------------------------------------------===//

TEST(Sharded, TierOneScenarioIsPinned) {
  // The sharded tier-1 scenario: 2 nodes x 2 processes, MakeFiles then
  // StatFiles at 300 files per process, splits enabled. The stonewall
  // averages are pinned as bit-exact values — any change to the engine,
  // the split cost accounting or the redirect protocol that moves them
  // must be deliberate.
  Scheduler S;
  Cluster C(S, 2, 4);
  ShardedOptions O;
  O.NumShards = 4;
  O.SplitThreshold = 64;
  ShardedFs Fs(S, O);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles", "StatFiles"};
  P.ProblemSize = 300;
  P.TimeLimit = seconds(1.0);
  // Ppn + 1: rank 0 on the fullest node becomes the master (\S 3.3.4)
  // and is not placeable as a worker.
  MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
  Master M(C, Env, "sharded", P);
  ResultSet Res = M.runCombination(2, 2);

  ASSERT_EQ(2u, Res.Subtasks.size());
  for (const SubtaskResult &Sub : Res.Subtasks)
    for (const ProcessTrace &Proc : Sub.Processes)
      EXPECT_EQ(0u, Proc.FailedRequests);
  // 300 files per process overflow the 64-entry threshold: the run splits.
  EXPECT_GT(Fs.splitCount(), 0u);
  // ops/s, pinned here as bit-exact values.
  EXPECT_DOUBLE_EQ(5854.545454545454, stonewallAverage(Res.Subtasks[0]));
  EXPECT_DOUBLE_EQ(12000.0, stonewallAverage(Res.Subtasks[1]));
}

TEST(Sharded, BenchmarkIsInvariantUnderPermutedSchedules) {
  // The same style of scenario as the pinned one, with a low threshold so
  // splits, migrations and redirects all happen mid-benchmark. Permuting
  // same-timestamp tie order must not change the canonical result: split
  // costs are a function of the threshold (not the tie-dependent moved
  // set), placement and hashing are pure, and migration order is sorted.
  ScheduleScenario Sc;
  Sc.Name = "sharded-makefiles-split";
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
  EXPECT_TRUE(R.IdentityIdentical) << R.Report;
  EXPECT_TRUE(R.Deterministic) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);
}

} // namespace
