//===- core/TimeLog.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TimeLog.h"
#include "support/Assert.h"
#include <algorithm>
#include <utility>

using namespace dmb;

IntervalLog::IntervalLog(const std::vector<uint64_t> &Dense) {
  auto NonZero = std::find_if(Dense.begin(), Dense.end(),
                              [](uint64_t N) { return N != 0; });
  First = static_cast<size_t>(NonZero - Dense.begin());
  Tail.assign(NonZero, Dense.end());
}

void IntervalLog::add(size_t Index, uint64_t Count) {
  DMB_ASSERT(Index >= First, "interval log written below its first bucket");
  if (Tail.empty())
    First = Index;
  size_t Offset = Index - First;
  if (Tail.size() <= Offset)
    Tail.resize(Offset + 1, 0);
  Tail[Offset] += Count;
}

uint64_t IntervalLog::cumulativeAt(size_t Index) const {
  uint64_t Sum = 0;
  for (size_t I = First; I <= Index && I < size(); ++I)
    Sum += Tail[I - First];
  return Sum;
}

void TimeLog::start(SimTime PhaseStart, SimDuration IntervalWidth) {
  DMB_ASSERT(IntervalWidth > 0, "interval must be positive");
  Start = PhaseStart;
  Interval = IntervalWidth;
  Total = 0;
  FinishOffset = 0;
  Buckets = IntervalLog();
}

void TimeLog::record(SimTime Now, uint64_t Count) {
  DMB_ASSERT(Now >= Start, "operation completed before phase start");
  Buckets.add(static_cast<size_t>((Now - Start) / Interval), Count);
  Total += Count;
}

void TimeLog::finish(SimTime Now) {
  // A finish before the phase start would wrap into a negative offset and
  // poison every stonewall / wall-clock average computed from it.
  DMB_ASSERT(Now >= Start, "phase finished before it started");
  FinishOffset = Now - Start;
}

IntervalLog TimeLog::takeOpsPerInterval() {
  return std::exchange(Buckets, IntervalLog());
}
