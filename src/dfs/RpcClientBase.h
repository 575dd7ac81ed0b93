//===- dfs/RpcClientBase.h - Slot-limited RPC client base -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for clients that issue RPCs over a bounded slot table
/// (the sunrpc request-slot limit). The slot limit is what caps intra-node
/// parallelism for protocol clients on large SMP machines (thesis \S 4.5):
/// processes beyond the slot count queue inside the client.
///
/// On top of the slot table sits transact(): one network round trip to the
/// server over a pair of (possibly faulty) NetworkLinks. With the default
/// RetryPolicy the exchange is a single fire-and-forget attempt — no timers,
/// no transaction ids, bit-identical to the pre-resilience client. With a
/// timeout configured the client retransmits with exponential backoff,
/// keeps its RPC slot across retries, reuses the same (ClientId, Xid) on
/// every attempt so the server's duplicate-request cache can recognise the
/// retransmit, and discards orphaned late replies. Both are one code path:
/// fire-and-forget simply arms no timer.
///
/// Each exchange keeps all of its state — the request, the caller's
/// callback, the reply — in one heap record (Call), allocated when the RPC
/// is issued and freed when the last event pointing at it has run. Every
/// scheduled hop captures only a reference to it, so the hops fit the
/// scheduler's inline event storage and the request is copied once.
///
/// Construction goes through dfs/ClientBuilder.h, and the common
/// write-behind wiring every model used to copy lives in
/// mountWriteBehind() — the model constructors shrink to their
/// model-specific state.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_RPCCLIENTBASE_H
#define DMETABENCH_DFS_RPCCLIENTBASE_H

#include "dfs/ClientBuilder.h"
#include "dfs/ClientConfig.h"
#include "dfs/ClientFs.h"
#include "dfs/Message.h"
#include "dfs/WriteBehind.h"
#include "sim/HappensBefore.h"
#include "sim/LockOrder.h"
#include "sim/Network.h"
#include "sim/Scheduler.h"
#include "sim/Trace.h"
#include "support/FifoRing.h"
#include <concepts>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmb {

class FileServer;

/// Base class managing RPC slots and the network round trip.
class RpcClientBase : public ClientFs {
protected:
  explicit RpcClientBase(const ClientBuilder &B)
      : Sched(B.sched()), Config(B.config()), ClientIdV(B.clientId()),
        Slots(Config.RpcSlots ? Config.RpcSlots : 1),
        ToServer(Sched, Config.Net), FromServer(Sched, Config.Net) {}

  struct Call;

  /// Shared ownership of a Call: the exchange itself, each scheduled hop
  /// and each server holding the request own one reference. Move-only and
  /// pointer-sized, so it fits any inline callback. The record is freed
  /// with its last reference — at completion, or with the pending events
  /// of a scheduler torn down mid-run.
  class CallRef {
  public:
    CallRef() = default;
    explicit CallRef(Call *C) : P(C) {
      if (P)
        ++P->Refs;
    }
    CallRef(CallRef &&O) noexcept : P(std::exchange(O.P, nullptr)) {}
    CallRef &operator=(CallRef &&O) noexcept {
      std::swap(P, O.P);
      return *this;
    }
    CallRef(const CallRef &) = delete;
    CallRef &operator=(const CallRef &) = delete;
    ~CallRef() {
      if (P && --P->Refs == 0)
        delete P;
    }
    Call *operator->() const { return P; }
    Call &operator*() const { return *P; }
    /// A further reference to the same record.
    CallRef share() const { return CallRef(P); }

  private:
    Call *P = nullptr;
  };

  /// Server half of one attempt: hands the (xid-stamped) request in the
  /// record to the server. The reply comes back through serveAt() or a
  /// replyTo() callback, at most once per attempt.
  using DispatchFn = InplaceFunction<void(CallRef), 16>;
  /// Client half: runs on the reply (or the timeout) before the slot is
  /// freed and the caller's callback fires — cache updates, handle
  /// wrapping. May rewrite Call::Reply.
  using ReplyHook = InplaceFunction<void(Call &), 16>;

  /// The state of one exchange.
  struct Call {
    MetaRequest Req; ///< as sent; one Xid on every attempt
    /// The reply between server execution (or arrival at the client) and
    /// delivery. A second attempt answering while it is occupied carries
    /// its reply in its own hop instead.
    MetaReply Reply;
    ReplyCallback Done; ///< the caller's callback
    DispatchFn Dispatch;
    ReplyHook OnReply;
    SimDuration SendExtra = 0;
    unsigned Refs = 0;
    unsigned Attempt = 0;     ///< retransmits so far
    bool HoldsSlot = false;   ///< completion frees the RPC slot
    bool ReplyHeld = false;   ///< Reply is occupied by an attempt
    bool Completed = false;
  };

  /// Runs \p RpcFn once a slot is free. RpcFn must eventually call
  /// slotDone() exactly once (rpc() does so at completion). The slot grant
  /// is the operation's NetOut hop: the request leaves the client once it
  /// holds an RPC slot.
  void withSlot(Scheduler::Action RpcFn) {
    uint64_t Ctx = Sched.activeTrace();
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onRequest(this, "RpcSlots", Ctx, Sched.now());
    if (InFlight < Slots) {
      ++InFlight;
      DMB_HB_WRITE(Sched, InFlight, "RpcClientBase.InFlight");
      if (LockOrderGraph *G = Sched.lockOrder())
        G->onGranted(this, Ctx);
      Sched.traceStamp(TracePoint::NetOut);
      RpcFn();
      return;
    }
    Pending.push(PendingRpc{std::move(RpcFn), Ctx});
  }

  /// Releases the slot taken by the current RPC and pumps the queue.
  void slotDone() {
    uint64_t Ctx = Sched.activeTrace();
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onReleased(this, Ctx);
    if (!Pending.empty()) {
      PendingRpc Next = Pending.pop();
      // The freed slot is handed to the queued request: everything the
      // finishing operation did happens-before the queued one resumes.
      if (HBTracker *T = Sched.happensBefore())
        T->syncEdge(Ctx, Next.Trace);
      if (LockOrderGraph *G = Sched.lockOrder())
        G->onGranted(this, Next.Trace);
      // The slot transfers to the queued request, which belongs to a
      // different operation than the one whose completion freed the slot.
      // Its NetOut hop fires at this instant, so the stamp is taken now and
      // the queued function itself is the event: wrapping it in a closure
      // that also stamps would outgrow the inline event storage.
      uint64_t Prev = Sched.swapActiveTrace(Next.Trace);
      Sched.traceStamp(TracePoint::NetOut);
      Sched.after(0, std::move(Next.Fn));
      Sched.swapActiveTrace(Prev);
      return;
    }
    --InFlight;
    DMB_HB_WRITE(Sched, InFlight, "RpcClientBase.InFlight");
  }

  /// One RPC: waits for a slot, exchanges \p Req with the server through
  /// \p Dispatch, runs \p OnReply (may be empty), frees the slot and hands
  /// the reply to \p Done. The request message spends \p SendExtra on top
  /// of the link delay (model-specific costs such as OSS object creation
  /// or VLDB lookups).
  /// \p Req is copied into the record, or moved when handed over.
  template <typename Request>
    requires std::same_as<std::remove_cvref_t<Request>, MetaRequest>
  void rpc(Request &&Req, SimDuration SendExtra, DispatchFn Dispatch,
           ReplyHook OnReply, ReplyCallback Done) {
    CallRef C = newCall(std::forward<Request>(Req), std::move(Dispatch),
                        std::move(Done));
    C->SendExtra = SendExtra;
    C->OnReply = std::move(OnReply);
    C->HoldsSlot = true;
    withSlot([this, C = std::move(C)]() mutable { transact(std::move(C)); });
  }

  /// One exchange for a caller that already holds a slot (a redirect loop
  /// re-issuing under it): \p Done receives the reply, the slot stays
  /// held. \p OnReply (may be empty) runs first, with the record. The
  /// request moves into the record.
  void transact(MetaRequest &&Req, DispatchFn Dispatch, ReplyHook OnReply,
                ReplyCallback Done) {
    CallRef C = newCall(std::move(Req), std::move(Dispatch), std::move(Done));
    C->OnReply = std::move(OnReply);
    transact(std::move(C));
  }

  /// Server half for models backed by a FileServer: executes the request
  /// at arrival straight into the record, and sends the reply once the
  /// server has committed it.
  void serveAt(FileServer &Server, uint32_t VolId, CallRef C);

  /// A reply callback for servers that answer through one (gateways,
  /// the sharded service): the reply hop back to this client.
  ReplyCallback replyTo(CallRef C) {
    return [this, C = std::move(C)](MetaReply &&Reply) mutable {
      if (!C->ReplyHeld) {
        C->ReplyHeld = true;
        C->Reply = std::move(Reply);
        sendHeldReply(std::move(C));
        return;
      }
      // A retransmit overtook an earlier attempt whose reply still
      // occupies the record: this reply travels in its own hop.
      NetworkLink::Delivery RD = FromServer.plan(0);
      if (RD.Dropped)
        return; // reply lost; the retransmit timer recovers
      Sched.after(RD.Delay, [this, C = std::move(C),
                             Reply = std::move(Reply)]() mutable {
        if (!C->Completed)
          C->Reply = std::move(Reply);
        deliver(*C);
      });
    };
  }

  /// Answers \p Done with \p Err on the next tick, without a round trip
  /// (errors the client sees before sending: bad handles, unroutable
  /// paths).
  void failLocally(FsError Err, ReplyCallback Done) {
    Sched.after(0, [Err, Done = std::move(Done)]() mutable {
      MetaReply R;
      R.Err = Err;
      Done(std::move(R));
    });
  }

  /// Mounts \p WB behind \p Policy with the hook wiring every model used
  /// to spell out by hand: Issue routes one op through \p Issue (the
  /// client's normal RPC path), AllocXid pins (ClientId, Xid) at enqueue
  /// time, and — when \p Eager is non-null — ApplyEager applies eager-
  /// discipline ops at \p Eager under \p VolId with \p Cache kept
  /// coherent. No-op when the policy is disabled.
  void mountWriteBehind(std::unique_ptr<WriteBehindQueue> &WB,
                        const WriteBehindPolicy &Policy,
                        WriteBehindHooks::IssueFn Issue,
                        FileServer *Eager = nullptr, uint32_t VolId = 0,
                        AttrCache *Cache = nullptr);

  Scheduler &sched() { return Sched; }
  SimDuration oneWayLatency() const { return Config.Net.OneWayLatency; }

  /// Allocates a fresh transaction id. Clients that must know an
  /// operation's Xid before transact() — e.g. to re-issue the same
  /// operation to a different server after a partition-map redirect —
  /// pre-stamp the request with this and transact() keeps it.
  uint64_t allocXid() { return ++LastXid; }

public:
  /// Observability for tests, benches and the fault plan.
  unsigned inFlightRpcs() const { return InFlight; }
  size_t queuedRpcs() const { return Pending.size(); }
  const ClientConfig &clientConfig() const { return Config; }
  unsigned rpcClientId() const { return ClientIdV; }
  uint64_t retransmits() const { return Retransmits; }
  uint64_t timedOutOps() const { return TimedOutOps; }
  NetworkLink &requestLink() { return ToServer; }
  NetworkLink &replyLink() { return FromServer; }

  /// Installs \p P on both directions of this client's path. Fault rolls
  /// are keyed by send time, and a request and its reply never travel in
  /// the same nanosecond, so the two directions roll independent dice.
  void setFaultPolicy(const FaultPolicy &P) {
    ToServer.setFaultPolicy(P);
    FromServer.setFaultPolicy(P);
  }

private:
  struct PendingRpc {
    Scheduler::Action Fn;
    uint64_t Trace = 0; ///< trace id of the queued operation
  };

  /// A record holding a copy of \p Req, or \p Req itself when moved in.
  template <typename Request>
  CallRef newCall(Request &&Req, DispatchFn Dispatch, ReplyCallback Done) {
    return CallRef(new Call{std::forward<Request>(Req), MetaReply(),
                            std::move(Done), std::move(Dispatch),
                            ReplyHook()});
  }


  SimDuration timeoutFor(unsigned Attempt) const {
    // The backoff train is computed step-by-step in integer sim-time: a
    // real client arms each timer from the previous timer's (tick-rounded)
    // value, so T_{i+1} = floor(T_i * F), saturating at MaxTimeout.
    // Accumulating the whole train in a double and casting once at the end
    // drifts from that sequence for non-power-of-two factors and can
    // overshoot for large attempt counts.
    SimDuration T = Config.Retry.Timeout;
    for (unsigned I = 0; I < Attempt; ++I) {
      T = static_cast<SimDuration>(static_cast<double>(T) *
                                   Config.Retry.BackoffFactor);
      if (T >= Config.Retry.MaxTimeout)
        return Config.Retry.MaxTimeout;
    }
    return T < Config.Retry.MaxTimeout ? T : Config.Retry.MaxTimeout;
  }

  /// One client<->server exchange: request hop over this client's link,
  /// the record's Dispatch at the server, reply hop back, then completion.
  ///
  /// Fire-and-forget (Retry.Timeout == 0): a single attempt, no timer —
  /// the event chain is `after(latency + extra) -> server -> after(latency)`;
  /// a message lost to the fault policy hangs the operation, like a
  /// hard-mounted NFS client with retransmits disabled.
  ///
  /// Resilient (Retry.Timeout > 0): every attempt carries the same
  /// (ClientId, Xid); a timer retransmits on loss with exponential backoff
  /// capped at Retry.MaxTimeout, the RPC slot is held across retries, and
  /// once Retry.MaxRetransmits retransmits are exhausted the operation
  /// completes with FsError::TimedOut. Late replies of superseded attempts
  /// are discarded at delivery. Retransmit wait time shows up in trace.txt
  /// inside the NetOut->QueueEnter (request lost) or ServiceEnd->Deliver
  /// (reply lost) span of the operation.
  void transact(CallRef C) {
    if (Config.Retry.enabled()) {
      C->Req.ClientId = ClientIdV;
      // A caller-stamped Xid is kept (pinned): a client re-issuing a
      // redirected operation passes the original Xid so the destination
      // server's duplicate-request cache still recognises the op. Requests
      // built by the ordinary constructors carry Xid 0 and get a fresh
      // one.
      if (!C->Req.Xid)
        C->Req.Xid = ++LastXid;
    }
    startAttempt(C);
  }

  void startAttempt(const CallRef &C) {
    // plan() keeps the traffic counters truthful; with no faults
    // configured it cannot drop and adds no jitter.
    NetworkLink::Delivery D = ToServer.plan(0);
    if (!D.Dropped)
      Sched.after(D.Delay + C->SendExtra,
                  [C = C.share()]() { C->Dispatch(C.share()); });
    if (!Config.Retry.enabled())
      return;
    Sched.after(timeoutFor(C->Attempt), [this, C = C.share()]() {
      if (C->Completed)
        return;
      if (C->Attempt >= Config.Retry.MaxRetransmits) {
        ++TimedOutOps;
        C->Reply = MetaReply();
        C->Reply.Err = FsError::TimedOut;
        deliver(*C);
        return;
      }
      ++C->Attempt;
      ++Retransmits;
      startAttempt(C);
    });
  }

  /// The reply hop for the reply held in \p C's record.
  void sendHeldReply(CallRef C) {
    NetworkLink::Delivery RD = FromServer.plan(0);
    if (RD.Dropped) {
      C->ReplyHeld = false; // reply lost; the retransmit timer recovers
      return;
    }
    Sched.after(RD.Delay, [this, C = std::move(C)]() mutable {
      C->ReplyHeld = false;
      deliver(*C);
    });
  }

  /// Completes the exchange with Call::Reply unless an earlier attempt
  /// already did (an orphan reply of a superseded attempt).
  void deliver(Call &C) {
    if (C.Completed)
      return;
    C.Completed = true;
    if (C.OnReply)
      C.OnReply(C);
    if (C.HoldsSlot)
      slotDone();
    C.Done(std::move(C.Reply));
  }

  Scheduler &Sched;
  ClientConfig Config;
  unsigned ClientIdV;
  unsigned Slots;
  NetworkLink ToServer;
  NetworkLink FromServer;
  unsigned InFlight = 0;
  uint64_t LastXid = 0;
  uint64_t Retransmits = 0;
  uint64_t TimedOutOps = 0;
  FifoRing<PendingRpc> Pending; ///< requests waiting for a slot
};

} // namespace dmb

#endif // DMETABENCH_DFS_RPCCLIENTBASE_H
