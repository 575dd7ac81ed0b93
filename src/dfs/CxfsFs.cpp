//===- dfs/CxfsFs.cpp -----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/CxfsFs.h"
#include "support/Format.h"

using namespace dmb;

ServerConfig dmb::makeCxfsMdsConfig(const std::string &Name) {
  ServerConfig C;
  C.Name = Name;
  C.CpuThreads = 2;
  C.Costs.BaseMetaOp = microseconds(70);
  C.Costs.PerInodeTouched = microseconds(4);
  C.Costs.PerDirEntryWritten = microseconds(8);
  C.CommitLatency = microseconds(25); // metadata log commit
  // XFS-derived: B-tree directories.
  C.VolumeDefaults.DirIndex = DirIndexKind::BTree;
  return C;
}

CxfsOptions::CxfsOptions() : Mds(makeCxfsMdsConfig()) {}

CxfsFs::CxfsFs(Scheduler &Sched, CxfsOptions Opts)
    : Sched(Sched), Options(std::move(Opts)), Mds(Sched, Options.Mds) {
  Mds.addVolume(VolumeName);
}

std::unique_ptr<ClientFs> CxfsFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<CxfsClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), Mds, Options);
}

CxfsClient::CxfsClient(const ClientBuilder &B, FileServer &Mds,
                       const CxfsOptions &Opts)
    : Sched(B.sched()), Mds(Mds), VolId(Mds.volumeId(CxfsFs::VolumeName)),
      Options(Opts), NodeIndex(B.nodeIndex()),
      Token(Sched, "cxfs.metadata-token"), ToServer(Sched, B.config().Net),
      FromServer(Sched, B.config().Net) {}

std::string CxfsClient::describe() const {
  return format("cxfs node=%u mds=%s", NodeIndex,
                Mds.config().Name.c_str());
}

void CxfsClient::submit(const MetaRequest &Req, Callback Done) {
  // The node-wide token is held for the whole operation: processes inside
  // one OS instance serialize (\S 4.5.3), while different nodes proceed in
  // parallel up to MDS saturation.
  Token.lock([this, Req, Done = std::move(Done)]() mutable {
    NetworkLink::Delivery D = ToServer.plan(0);
    Sched.after(Options.TokenOverhead + D.Delay,
                [this, Req, Done = std::move(Done)]() mutable {
                  Mds.process(VolId, Req, [this, Done = std::move(Done)](
                                              MetaReply &&Reply) mutable {
                    NetworkLink::Delivery RD = FromServer.plan(0);
                    Sched.after(RD.Delay, [this, Done = std::move(Done),
                                           Reply = std::move(Reply)]() mutable {
                      Token.unlock();
                      Done(std::move(Reply));
                    });
                  });
                });
  });
}
