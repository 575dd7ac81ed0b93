//===- sim/Network.h - Network latency/bandwidth model ----------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple point-to-point message model: each transfer pays the link's
/// one-way latency plus a size-proportional serialization delay. Thesis
/// \S 4.6 sweeps exactly this latency to show how synchronous metadata RPCs
/// degrade over WAN-like links.
///
/// Links additionally carry a seeded FaultPolicy so experiments can lose or
/// delay deliveries deterministically — the network-side analogue of the
/// \S 3.2.5 transient disturbances that the time-interval log makes visible.
/// With the default (empty) policy a link behaves exactly as before: no
/// random draws, no drops, no jitter.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_NETWORK_H
#define DMETABENCH_SIM_NETWORK_H

#include "sim/Scheduler.h"
#include "sim/Time.h"
#include "support/Random.h"
#include <cstdint>
#include <vector>

namespace dmb {

/// Deterministic fault model for one link. Per-message randomness is a
/// pure function of (Seed, send time) — no sequential stream, no link
/// identity — so the same scenario with the same seed reproduces the same
/// losses bit-for-bit, and the losses are invariant under schedule
/// perturbation. Messages sent in the same nanosecond share their fate:
/// loss is time-correlated, like burst loss on a shared switch.
struct FaultPolicy {
  /// Seeds the fault randomness of every link carrying this policy.
  uint64_t Seed = 1;

  /// Baseline per-message loss probability in [0, 1).
  double DropProbability = 0;

  /// Uniform extra delivery delay in [0, DelayJitterMax) added per message.
  SimDuration DelayJitterMax = 0;

  /// A scheduled lossy spell: messages sent at times in [Start, End) are
  /// dropped with probability DropProbability. 1.0 models a full link
  /// partition; the link heals at End.
  struct Window {
    SimTime Start = 0;
    SimTime End = 0;
    double DropProbability = 1.0;
  };
  std::vector<Window> Windows;

  /// True when any fault mechanism is configured. Disabled policies cost
  /// nothing: no random draws are made, keeping fault-free runs
  /// bit-identical to a build without the fault layer.
  bool enabled() const {
    return DropProbability > 0 || DelayJitterMax > 0 || !Windows.empty();
  }

  /// Effective loss probability for a message sent at \p Now: the maximum
  /// of the baseline and every active window.
  double dropProbabilityAt(SimTime Now) const;
};

/// Latency/bandwidth/fault parameters for one direction of a network path —
/// the network half of the uniform client configuration (see
/// dfs/ClientConfig.h).
struct NetConfig {
  SimDuration OneWayLatency = microseconds(100);
  double BytesPerSecond = 125e6; ///< 1 GigE
  FaultPolicy Faults;            ///< default-constructed == no faults
};

/// A unidirectional network path with fixed latency and bandwidth.
class NetworkLink {
public:
  NetworkLink(Scheduler &Sched, SimDuration OneWayLatency,
              double BytesPerSecond = 125e6 /* 1 GigE */)
      : Sched(Sched), Latency(OneWayLatency), BytesPerSec(BytesPerSecond) {}

  /// Builds a link from a NetConfig, adopting its fault policy.
  NetworkLink(Scheduler &Sched, const NetConfig &Cfg)
      : Sched(Sched), Latency(Cfg.OneWayLatency),
        BytesPerSec(Cfg.BytesPerSecond), Faults(Cfg.Faults) {}

  /// Outcome of accounting one message against the link: either the fault
  /// policy dropped it, or it is delivered after \c Delay.
  struct Delivery {
    bool Dropped = false;
    SimDuration Delay = 0;
  };

  /// The accounting entry point: counts a message of \p Bytes and rolls the
  /// fault policy, without scheduling anything. Callers that compose their
  /// own event chains out of transferTime() must route the message through
  /// plan() instead so messagesSent()/bytesSent() stay truthful — reading
  /// transferTime() alone bypasses the counters.
  Delivery plan(uint64_t Bytes);

  /// Delivers a message of \p Bytes after latency + serialization time
  /// (plus any fault-policy jitter). A dropped message destroys \p Deliver
  /// without running it.
  void send(uint64_t Bytes, Scheduler::Action Deliver);

  /// Transfer duration without accounting or delivering (composition
  /// helper; pair with plan() so the traffic counters stay correct).
  SimDuration transferTime(uint64_t Bytes) const;

  /// Installs \p P; fault rolls mix P.Seed with the send time of each
  /// message (see FaultPolicy).
  void setFaultPolicy(const FaultPolicy &P);
  const FaultPolicy &faultPolicy() const { return Faults; }

  SimDuration oneWayLatency() const { return Latency; }
  void setOneWayLatency(SimDuration L) { Latency = L; }
  uint64_t messagesSent() const { return Messages; }
  uint64_t bytesSent() const { return Bytes; }
  uint64_t messagesDropped() const { return Dropped; }
  uint64_t messagesDelayed() const { return Delayed; }

private:
  Scheduler &Sched;
  SimDuration Latency;
  double BytesPerSec;
  FaultPolicy Faults;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  uint64_t Dropped = 0;
  uint64_t Delayed = 0;
};

} // namespace dmb

#endif // DMETABENCH_SIM_NETWORK_H
