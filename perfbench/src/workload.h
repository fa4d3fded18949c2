#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The three workloads (batch-sp, batch-control, serve-sp), their end-to-end
// run and their traced per-layer run. See ../README.md for what each one
// does, its estimators and which layer metric moves which end-to-end metric.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for data directories and span files.
  std::string out_dir = ".bench_run";
  /// When the process started: setup_s is measured from here.
  std::chrono::steady_clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// One JSON object with the plain medians, p90s and sample counts beside
  /// each reported estimate (printed before the result line).
  std::string details;
  /// The first few check failures, for stderr.
  std::vector<std::string> errors;
};

bool IsWorkload(const std::string& name);

/// Runs one workload: untraced (end-to-end metrics) or traced (per-layer).
mad::StatusOr<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
