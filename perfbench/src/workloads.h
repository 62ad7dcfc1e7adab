// The three benchmark workloads (perfbench/README.md). Each generates its
// inputs from args.seed, checks every answer against the src/reference
// oracle, measures for args.seconds and fills `report`. A false return is a
// set-up error (the run prints no result).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace perfbench {

bool RunScorecardServe(const Args& args, Report* report);
bool RunAdhocEql(const Args& args, Report* report);
bool RunIngestMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
