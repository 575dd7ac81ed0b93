//===- dfs/ReexportFs.cpp -------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/ReexportFs.h"
#include "support/Format.h"

using namespace dmb;

ReexportFs::ReexportFs(Scheduler &Sched, DistributedFs &Inner,
                       ReexportOptions Opts, unsigned GatewayNodeIndex)
    : Sched(Sched), Inner(Inner), Options(Opts),
      GatewayCpu(Sched, "reexport-gateway.nfsd", Opts.GatewayThreads),
      InnerClient(Inner.makeClient(GatewayNodeIndex)) {}

std::unique_ptr<ClientFs> ReexportFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<ReexportClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), *this);
}

void ReexportFs::forward(const MetaRequest &Req, ClientFs::Callback Done) {
  ++Forwarded;
  // The gateway's nfsd threads translate NFS to the inner client's
  // protocol stack; the inner file system then does its own work.
  GatewayCpu.request(
      Options.GatewayCostPerRequest,
      [this, Req, Done = std::move(Done)]() mutable {
        InnerClient->submit(Req, [this, Done = std::move(Done)](
                                     MetaReply &&Reply) mutable {
          // The reply pays gateway translation again on the way out.
          GatewayCpu.request(Options.GatewayCostPerRequest,
                             [Done = std::move(Done),
                              Reply = std::move(Reply)]() mutable {
                               Done(std::move(Reply));
                             });
        });
      });
}

ReexportClient::ReexportClient(const ClientBuilder &B, ReexportFs &Gateway)
    : RpcClientBase(B), Gateway(Gateway), NodeIndex(B.nodeIndex()),
      Cache(Gateway.Options.AttrCacheTtl) {}

std::string ReexportClient::describe() const {
  return format("nfs3 node=%u gateway-for=%s", NodeIndex,
                Gateway.Inner.name().c_str());
}

void ReexportClient::submit(const MetaRequest &Req, Callback Done) {
  // Plain NFS semantics toward the client: TTL attribute cache.
  if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
    if (std::optional<Attr> A = Cache.lookup(Req.Path, sched().now())) {
      sched().after(Gateway.Options.CacheHitCost,
                    [Done = std::move(Done), A = *A]() mutable {
                      MetaReply Reply;
                      Reply.A = A;
                      Done(std::move(Reply));
                    });
      return;
    }
  }

  rpc(
      Req, 0,
      [this](CallRef C) {
        const MetaRequest &R = C->Req;
        Gateway.forward(R, replyTo(std::move(C)));
      },
      [this](Call &C) {
        const MetaRequest &R = C.Req;
        if (C.Reply.ok() && (R.Op == MetaOp::Stat || R.Op == MetaOp::Lstat ||
                             R.Op == MetaOp::Open))
          Cache.insert(R.Path, C.Reply.A, sched().now());
        if (isMutation(R.Op))
          Cache.invalidate(R.Path);
      },
      std::move(Done));
}
