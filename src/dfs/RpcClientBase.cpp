//===- dfs/RpcClientBase.cpp ----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/RpcClientBase.h"
#include "dfs/FileServer.h"

using namespace dmb;

void RpcClientBase::serveAt(FileServer &Server, uint32_t VolId, CallRef C) {
  Call &X = *C;
  if (X.ReplyHeld) {
    // A retransmit overtook an earlier attempt whose reply still occupies
    // the record: this attempt's reply travels on its own.
    Server.process(VolId, X.Req, replyTo(std::move(C)));
    return;
  }
  X.ReplyHeld = true;
  // The server executes at arrival and returns the reply now; it leaves
  // once the server has finished the work. Committed always runs as a
  // later event, so the record is filled before anything reads it.
  X.Reply = Server.processEager(VolId, X.Req,
                                [this, C = std::move(C)]() mutable {
                                  sendHeldReply(std::move(C));
                                });
}

void RpcClientBase::mountWriteBehind(std::unique_ptr<WriteBehindQueue> &WB,
                                     const WriteBehindPolicy &Policy,
                                     WriteBehindHooks::IssueFn Issue,
                                     FileServer *Eager, uint32_t VolId,
                                     AttrCache *Cache) {
  if (!Policy.enabled())
    return;
  WriteBehindHooks Hooks;
  Hooks.Issue = std::move(Issue);
  Hooks.AllocXid = [this]() { return allocXid(); };
  if (Eager)
    Hooks.ApplyEager = [Eager, VolId](const MetaRequest &R,
                                      Scheduler::Action Committed) {
      return Eager->processEager(VolId, R, std::move(Committed));
    };
  Hooks.Cache = Cache;
  WB = std::make_unique<WriteBehindQueue>(Sched, Policy, std::move(Hooks));
}
