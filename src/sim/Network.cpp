//===- sim/Network.cpp ----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Network.h"
#include "sim/Trace.h"

using namespace dmb;

double FaultPolicy::dropProbabilityAt(SimTime Now) const {
  double P = DropProbability;
  for (const Window &W : Windows)
    if (Now >= W.Start && Now < W.End && W.DropProbability > P)
      P = W.DropProbability;
  return P;
}

void NetworkLink::setFaultPolicy(const FaultPolicy &P) { Faults = P; }

SimDuration NetworkLink::transferTime(uint64_t NumBytes) const {
  SimDuration Serialize =
      static_cast<SimDuration>(static_cast<double>(NumBytes) / BytesPerSec *
                               1e9);
  return Latency + Serialize;
}

NetworkLink::Delivery NetworkLink::plan(uint64_t NumBytes) {
  ++Messages;
  Bytes += NumBytes;
  Delivery D;
  D.Delay = transferTime(NumBytes);
  if (!Faults.enabled())
    return D;
  // Per-message randomness is a pure function of (Seed, send time) — no
  // sequential stream and no per-link identity in the mix. Both halves
  // matter for schedule invariance (verify-schedules): a stream would tie
  // rolls to the order plan() calls execute within a same-timestamp event
  // tie, and a link salt would tie them to which link a symmetric
  // operation happens to use when tie order relabels ranks. The price is
  // that messages sent in the same nanosecond share their fate — loss is
  // time-correlated, like burst loss on a shared switch. Fixed draw order
  // (loss roll, then jitter) within a message.
  Rng R(Faults.Seed ^ (0x2545f4914f6cdd1dULL * (uint64_t(Sched.now()) + 1)));
  double P = Faults.dropProbabilityAt(Sched.now());
  if (P > 0 && R.uniform() < P) {
    D.Dropped = true;
    ++Dropped;
    return D;
  }
  if (Faults.DelayJitterMax > 0) {
    SimDuration Jitter = static_cast<SimDuration>(
        R.uniform() * static_cast<double>(Faults.DelayJitterMax));
    if (Jitter > 0) {
      D.Delay += Jitter;
      ++Delayed;
    }
  }
  return D;
}

void NetworkLink::send(uint64_t NumBytes, Scheduler::Action Deliver) {
  Delivery D = plan(NumBytes);
  if (D.Dropped)
    return; // lost on the wire; Deliver is destroyed unrun
  // The message leaving the sender is the active operation's NetOut hop;
  // the delivery event inherits the trace id through the scheduler.
  Sched.traceStamp(TracePoint::NetOut);
  Sched.after(D.Delay, std::move(Deliver));
}
