// The benchmark's three workloads and the metrics each run reports.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the traced run's joined-span dump ("" = none).
  std::string trace_dir;
};

struct RunResult {
  bool correct = true;
  /// Set when the run cannot be used as a measurement (the open-loop
  /// generator fell behind its schedule, or the traced ledger did not
  /// reconcile); the reason is printed and no result line is emitted.
  std::string invalid;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
};

/// Known workload names, for argument checking.
bool IsWorkload(const std::string& name);

/// Runs one workload for args.seconds and fills the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run).
Result<RunResult> RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
