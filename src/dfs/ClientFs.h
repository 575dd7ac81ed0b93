//===- dfs/ClientFs.h - Abstract file system client --------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-side mount point a benchmark worker talks to. There is one
/// ClientFs instance per (node, file system) pair, mirroring how an
/// operating-system instance shares one file system client — and one cache —
/// among all its processes (thesis \S 3.2.2 on intra- vs inter-node
/// parallelism).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_CLIENTFS_H
#define DMETABENCH_DFS_CLIENTFS_H

#include "dfs/FsAdmin.h"
#include "dfs/Message.h"
#include <string>

namespace dmb {

/// Asynchronous client interface: submit an operation, get the reply via
/// callback once network, queueing and service delays have elapsed.
/// Administrative operations (dropCaches, cacheStats, ...) come from the
/// shared FsAdmin surface; clients override the ones they support.
class ClientFs : public FsAdmin {
public:
  using Callback = ReplyCallback;

  ~ClientFs() override;

  /// Submits one operation. The callback fires at the simulated completion
  /// time of the operation, exactly once, with the reply moved into it.
  virtual void submit(const MetaRequest &Req, Callback Done) = 0;

  /// Short description for result protocols ("nfs3 filer=fas3050").
  virtual std::string describe() const = 0;
};

} // namespace dmb

#endif // DMETABENCH_DFS_CLIENTFS_H
