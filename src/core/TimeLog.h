//===- core/TimeLog.h - Per-process time-interval logging -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The time-interval logging technique of thesis \S 3.2.5 (Fig. 3.4): every
/// process records how many operations completed in each fixed interval,
/// preserving per-process, time-resolved performance that summary averages
/// destroy. The 0.1 s default matches the supervisor thread's sampling.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_CORE_TIMELOG_H
#define DMETABENCH_CORE_TIMELOG_H

#include "sim/Time.h"
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmb {

/// Operations completed in each interval of a bench phase, stored sparsely:
/// the buckets before the first stored one are all zero and take no memory,
/// and the rest are a dense tail. A worker's buckets before its first
/// completion are zero, so on a saturated server — where late workers
/// finish their first operation many intervals in — the memory of a log is
/// what the worker did, not how late it did it.
class IntervalLog {
public:
  IntervalLog() = default;
  /// The log of the dense per-interval counts \p Dense; its leading zero
  /// buckets are not stored.
  explicit IntervalLog(const std::vector<uint64_t> &Dense);

  /// Adds \p Count operations to bucket \p Index; the log's length becomes
  /// at least Index+1 even when \p Count is 0. \p Index may not fall below
  /// firstStored() once a bucket is stored: simulated time never runs
  /// backwards.
  void add(size_t Index, uint64_t Count);

  /// Logical length: the last bucket ever added, plus one.
  size_t size() const { return First + Tail.size(); }
  /// Operations in bucket \p Index (< size()); 0 below firstStored().
  uint64_t operator[](size_t Index) const {
    return Index < First ? 0 : Tail[Index - First];
  }
  /// Cumulative operations at the boundary of bucket \p Index.
  uint64_t cumulativeAt(size_t Index) const;

  /// Index of the first stored bucket (size() when nothing is stored).
  size_t firstStored() const { return First; }
  /// The stored buckets, firstStored() onwards.
  const std::vector<uint64_t> &stored() const { return Tail; }

private:
  size_t First = 0;
  std::vector<uint64_t> Tail;
};

/// Operation-completion log of one worker process for one bench phase.
class TimeLog {
public:
  /// Begins logging at \p PhaseStart with the given interval width.
  void start(SimTime PhaseStart, SimDuration Interval);

  /// Records \p Count completed operations at absolute time \p Now.
  void record(SimTime Now, uint64_t Count = 1);

  /// Marks the process finished at \p Now.
  void finish(SimTime Now);

  /// Operations completed in each interval since the phase start.
  const IntervalLog &opsPerInterval() const { return Buckets; }
  /// Moves the interval counts out, leaving this log's empty.
  IntervalLog takeOpsPerInterval();

  uint64_t totalOps() const { return Total; }
  SimTime phaseStart() const { return Start; }
  SimDuration interval() const { return Interval; }
  /// Time from phase start to the last finish() call.
  SimDuration finishOffset() const { return FinishOffset; }

private:
  SimTime Start = 0;
  SimDuration Interval = milliseconds(100);
  SimDuration FinishOffset = 0;
  uint64_t Total = 0;
  IntervalLog Buckets;
};

} // namespace dmb

#endif // DMETABENCH_CORE_TIMELOG_H
