//===- dfs/LocalFsModel.cpp -----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/LocalFsModel.h"
#include "support/Format.h"

using namespace dmb;

LocalFsOptions::LocalFsOptions() {
  // In-memory-cached local file system: far cheaper per op than any
  // networked server (compare Table 4.2's /dev/shm loop).
  Costs.BaseMetaOp = microseconds(3);
  Costs.PerInodeTouched = nanoseconds(300);
  Costs.PerDirEntryWritten = nanoseconds(600);
  Costs.PerDirEntryScanned = nanoseconds(30);
  Costs.PerBlockAllocated = microseconds(1);
  Volume.DirIndex = DirIndexKind::BTree;
}

LocalFsModel::LocalFsModel(Scheduler &Sched, LocalFsOptions Opts)
    : Sched(Sched), Options(std::move(Opts)) {}

std::unique_ptr<ClientFs> LocalFsModel::makeClient(unsigned NodeIndex) {
  // No protocol client config: the config-free builder form.
  return std::make_unique<LocalClient>(ClientBuilder(Sched, NodeIndex),
                                       Options);
}

LocalClient::LocalClient(const ClientBuilder &B, const LocalFsOptions &Opts)
    : Sched(B.sched()), Options(Opts), NodeIndex(B.nodeIndex()),
      Fs(Opts.Volume), Cpu(Sched, "localfs.kernel", Opts.KernelThreads),
      VfsLock(Sched, "localfs.vfs-lock") {}

std::string LocalClient::describe() const {
  return format("localfs node=%u dir-index=%s", NodeIndex,
                dirIndexKindName(Options.Volume.DirIndex));
}

void LocalClient::submit(const MetaRequest &Req, Callback Done) {
  // Execute immediately (arrival order = kernel processing order), then
  // charge the service time.
  OpCost Cost;
  MetaReply Reply = FileServer::execute(Fs, Req, Sched.now(), Cost);
  SimDuration Service =
      Options.SyscallOverhead + Options.Costs.serviceTime(Cost);

  bool Mutates = isMutation(Req.Op) ||
                 (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate));
  if (Mutates) {
    // Namespace mutations serialize on the VFS/dentry lock.
    VfsLock.lock([this, Service, Done = std::move(Done),
                  Reply = std::move(Reply)]() mutable {
      Cpu.request(Service, [this, Done = std::move(Done),
                            Reply = std::move(Reply)]() mutable {
        VfsLock.unlock();
        Done(std::move(Reply));
      });
    });
    return;
  }
  Cpu.request(Service, [Done = std::move(Done),
                        Reply = std::move(Reply)]() mutable {
    Done(std::move(Reply));
  });
}
