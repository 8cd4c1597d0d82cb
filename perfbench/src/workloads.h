// The two benchmark workloads. Each generates its dataset, computes
// reference truth outside every timed window, drives the system through its
// public entry points with a schedule drawn from the seed, verifies every
// answer, and returns the end-to-end metrics (and, when traced, the
// per-layer metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "metrics.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump and the modeled-seconds record.
  std::string out_dir;
  /// Identifies the code under test (a hash of its sources); the modeled
  /// seconds of two runs with the same code_id, workload and seed must match.
  std::string code_id;
};

struct RunResult {
  bool correct = true;
  std::string dataset;  ///< Size name and genes x patients.
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Human-readable lines: provenance, sample counts, flags, failures.
  std::vector<std::string> notes;
};

genbase::Result<RunResult> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
