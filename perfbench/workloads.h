// The benchmark's workloads.  Each fills `report` with its end-to-end
// metrics (untraced run) or its per-layer metrics (opt.trace), and records
// every correctness violation it finds.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/bench_util.h"

namespace perfbench {

void RunMeshRead(const Options& opt, Report* report);
void RunMeshWrite(const Options& opt, Report* report);
void RunKernelFaults(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
