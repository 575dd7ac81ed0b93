//===- tests/AllocTest.cpp - Heap allocations per RPC ---------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the host-side heap allocations of the operation path: small NFS
/// and sharded write-behind MakeFiles + StatFiles combinations run under a
/// counting global operator new (replaced in this executable only), and
/// the allocations made while each runs, divided by the RPCs its servers
/// processed, must stay at or below its budget below. Allocation counts are deterministic and
/// host-independent, so this is an exact regression gate on the
/// allocation-free RPC path (one record per RPC, a move-only reply
/// callback, a copy-free path walk) where wall-clock numbers are not.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

namespace {
bool Counting = false;
uint64_t Allocations = 0;

void *countedAlloc(std::size_t Size) {
  if (Counting)
    ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace dmb;

namespace {

/// Allocations per filer-processed RPC over a whole MakeFiles + StatFiles
/// combination (2 nodes x 4 processes), plugins, file system and result
/// bookkeeping included: 402,986 allocations over 77,190 RPCs (5.2207 per
/// RPC) when this budget was set, with the server CPU queue on a ring
/// instead of a std::deque. With the attribute cache, hashed directories
/// and inode table on dense tables but the deque it made 420,692 (5.45
/// per RPC), the node-based maps before them 497,599 (6.45 per RPC), and
/// the std::function reply plumbing before that 1,791,918 (23.21 per RPC)
/// on the same combination.
constexpr double AllocationsPerRpcBudget = 5.23;

TEST(Allocations, NfsCreateStatPerRpcWithinBudget) {
  Scheduler S;
  NfsFs Fs(S);
  Cluster C(S, 2, 4);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles", "StatFiles"};
  P.ProblemSize = 2000;
  P.TimeLimit = seconds(1.0);
  Master M(C, MpiEnvironment::uniform(2, 5), Fs.name(), P);

  uint64_t RpcsBefore = Fs.server().processedRequests();
  Allocations = 0;
  Counting = true;
  ResultSet R = M.runCombination(2, 4);
  Counting = false;
  uint64_t Rpcs = Fs.server().processedRequests() - RpcsBefore;

  ASSERT_GT(Rpcs, 10000u);
  double PerRpc = static_cast<double>(Allocations) / static_cast<double>(Rpcs);
  std::printf("allocations: %llu over %llu RPCs = %.2f per RPC "
              "(budget %.2f)\n",
              static_cast<unsigned long long>(Allocations),
              static_cast<unsigned long long>(Rpcs), PerRpc,
              AllocationsPerRpcBudget);
  EXPECT_LE(PerRpc, AllocationsPerRpcBudget);
}

/// The same gate for W3's shape (perfbench's sharded-writebehind): four
/// shards behind deferred write-behind, 4 nodes x 4 processes, a split
/// threshold low enough that MakeFiles splits partitions and migrates
/// entries (with their journal records and DRC entries), then StatFiles.
/// RPCs are the requests the shards processed. 896,892 allocations over
/// 95,875 RPCs (9.3548 per RPC) when this budget was set: the request
/// moves from the write-behind queue's pooled op into the RPC record, the
/// ingest batch references it, no callback is boxed inside another, the
/// journal record is compact, the DRC and id-keyed tables are dense and
/// the server CPU queues are rings. The same combination made 2,670,986
/// (27.86 per RPC) before.
constexpr double ShardedAllocationsPerRpcBudget = 9.36;

TEST(Allocations, ShardedWriteBehindPerRpcWithinBudget) {
  Scheduler S;
  ShardedOptions O;
  O.NumShards = 4;
  O.SplitThreshold = 128;
  O.Client.WriteBehind.Enabled = true;
  O.Client.WriteBehind.DeferIssue = true;
  ShardedFs Fs(S, O);
  Cluster C(S, 4, 5);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles", "StatFiles"};
  P.ProblemSize = 1024;
  P.TimeLimit = seconds(0.2);
  Master M(C, MpiEnvironment::uniform(4, 5), Fs.name(), P);

  auto ShardRpcs = [&Fs]() {
    uint64_t N = 0;
    for (unsigned I = 0; I < Fs.numShards(); ++I)
      N += Fs.shard(I).processedRequests();
    return N;
  };
  uint64_t RpcsBefore = ShardRpcs();
  Allocations = 0;
  Counting = true;
  ResultSet R = M.runCombination(4, 4);
  Counting = false;
  uint64_t Rpcs = ShardRpcs() - RpcsBefore;

  ASSERT_GT(Rpcs, 10000u);
  ASSERT_GT(Fs.splitCount(), 0u);
  double PerRpc = static_cast<double>(Allocations) / static_cast<double>(Rpcs);
  std::printf("sharded write-behind allocations: %llu over %llu RPCs "
              "(%llu splits) = %.2f per RPC (budget %.2f)\n",
              static_cast<unsigned long long>(Allocations),
              static_cast<unsigned long long>(Rpcs),
              static_cast<unsigned long long>(Fs.splitCount()), PerRpc,
              ShardedAllocationsPerRpcBudget);
  EXPECT_LE(PerRpc, ShardedAllocationsPerRpcBudget);
}

} // namespace
