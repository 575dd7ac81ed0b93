//===- sim/Mutex.h - Simulated mutex -----------------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO mutex with hold-until-release semantics, unlike Resource whose
/// service time is fixed up front. Used for client-side serialization such
/// as the CXFS metadata token a node must hold across a whole operation
/// (thesis \S 2.5.2, \S 4.5).
///
/// Misuse is fatal: double unlock and destruction while locked (or with
/// waiters that would never wake) abort with a diagnostic. A mutex still
/// held when the scheduler goes quiescent is reported — not aborted, since
/// tests legitimately drive the scheduler in stages — through the
/// SimDiagnostics quiescence report.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_MUTEX_H
#define DMETABENCH_SIM_MUTEX_H

#include "sim/HappensBefore.h"
#include "sim/LockOrder.h"
#include "sim/Scheduler.h"
#include "support/Assert.h"
#include <deque>
#include <string>

namespace dmb {

/// FIFO simulated mutex. lock() fires its callback once the lock is held;
/// the holder must call unlock() exactly once.
class SimMutex {
public:
  explicit SimMutex(Scheduler &Sched, std::string Name = "mutex")
      : Sched(Sched), Name(std::move(Name)) {
    CheckId = Sched.addQuiescenceCheck([this](SimDiagnostics &D) {
      report(D);
    });
  }

  SimMutex(const SimMutex &) = delete;
  SimMutex &operator=(const SimMutex &) = delete;

  ~SimMutex() {
    Sched.removeQuiescenceCheck(CheckId);
    DMB_CHECK(!Locked, "SimMutex destroyed while still locked");
    DMB_CHECK(Waiters.empty(),
              "SimMutex destroyed with waiters that will never wake");
  }

  /// Requests the lock; \p Acquired runs (as a scheduled event) when held.
  void lock(Scheduler::Action Acquired) {
    uint64_t Ctx = Sched.activeTrace();
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onRequest(this, "SimMutex " + Name, Ctx, Sched.now());
    if (!Locked) {
      Locked = true;
      HolderTrace = Ctx;
      if (LockOrderGraph *G = Sched.lockOrder())
        G->onGranted(this, Ctx);
      Sched.after(0, std::move(Acquired));
      return;
    }
    Waiters.push_back({std::move(Acquired), Ctx});
  }

  /// Releases the lock, waking the next waiter in FIFO order.
  void unlock() {
    DMB_CHECK(Locked, "unlock of unlocked SimMutex (double unlock?)");
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onReleased(this, HolderTrace);
    if (Waiters.empty()) {
      Locked = false;
      HolderTrace = 0;
      return;
    }
    Waiter Next = std::move(Waiters.front());
    Waiters.pop_front();
    // Everything the holder did happens-before everything the queued
    // waiter does once woken: a real synchronization edge.
    if (HBTracker *T = Sched.happensBefore())
      T->syncEdge(HolderTrace, Next.Trace);
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onGranted(this, Next.Trace);
    HolderTrace = Next.Trace;
    // The wakeup belongs to the waiter's operation, not the unlocker's.
    uint64_t Prev = Sched.swapActiveTrace(Next.Trace);
    Sched.after(0, std::move(Next.Acquired));
    Sched.swapActiveTrace(Prev);
  }

  bool isLocked() const { return Locked; }
  size_t waiterCount() const { return Waiters.size(); }
  const std::string &name() const { return Name; }

private:
  void report(SimDiagnostics &D) const {
    if (Locked)
      D.addIssue("SimMutex " + Name, "still locked at quiescence");
    if (!Waiters.empty())
      D.addIssue("SimMutex " + Name,
                 std::to_string(Waiters.size()) +
                     " stranded waiter(s) at quiescence");
  }

  struct Waiter {
    Scheduler::Action Acquired;
    uint64_t Trace = 0; ///< trace id of the waiting operation
  };

  Scheduler &Sched;
  std::string Name;
  uint64_t CheckId = 0;
  bool Locked = false;
  uint64_t HolderTrace = 0; ///< trace id of the current holder (0 = none)
  std::deque<Waiter> Waiters;
};

} // namespace dmb

#endif // DMETABENCH_SIM_MUTEX_H
