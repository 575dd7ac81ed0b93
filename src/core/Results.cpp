//===- core/Results.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Results.h"
#include "support/Format.h"
#include <algorithm>

using namespace dmb;

uint64_t SubtaskResult::totalOps() const {
  uint64_t Sum = 0;
  for (const ProcessTrace &P : Processes)
    Sum += P.TotalOps;
  return Sum;
}

size_t SubtaskResult::numIntervals() const {
  size_t Max = 0;
  for (const ProcessTrace &P : Processes)
    Max = std::max(Max, P.OpsPerInterval.size());
  return Max;
}

std::string SubtaskResult::toTsv() const {
  std::string Out =
      "Hostname\tOperation\tProcessNo\tTimestamp\tOperationsDone\n";
  for (const ProcessTrace &P : Processes) {
    uint64_t Cum = 0;
    for (size_t I = 0, E = P.OpsPerInterval.size(); I != E; ++I) {
      Cum += P.OpsPerInterval[I];
      Out += format("%s\t%s\t%u\t%.1f\t%llu\n", P.Hostname.c_str(),
                    Operation.c_str(), P.Ordinal,
                    toSeconds(static_cast<SimDuration>(I + 1) * Interval),
                    (unsigned long long)Cum);
    }
  }
  return Out;
}

const SubtaskResult *ResultSet::find(const std::string &Operation,
                                     unsigned Nodes,
                                     unsigned PerNode) const {
  for (const SubtaskResult &S : Subtasks)
    if (S.Operation == Operation && S.NumNodes == Nodes &&
        S.PerNode == PerNode)
      return &S;
  return nullptr;
}
