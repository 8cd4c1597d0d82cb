#ifndef GENBASE_OBS_DOCTOR_H_
#define GENBASE_OBS_DOCTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace genbase::obs::doctor {

/// \brief Bench-history regression doctor: ingests a directory of stamped
/// BENCH_*.json artifacts (workload figures and kernelbench), orders them by
/// stamp timestamp, and judges the newest run against a median-of-window
/// baseline built from the runs before it. Medians make the baseline robust
/// to one noisy historical run; the window keeps it tracking legitimate
/// drift instead of pinning to the oldest data.
struct DoctorOptions {
  /// Allowed fractional drop for higher-is-better metrics (throughput):
  /// value < baseline * (1 - throughput_slack) is a regression.
  double throughput_slack = 0.15;
  /// Allowed fractional rise for lower-is-better metrics (p99 latency,
  /// kernel ns/iter): value > baseline * (1 + latency_slack) regresses.
  double latency_slack = 0.25;
  /// Baseline = median of up to this many immediately-preceding runs that
  /// carry the series. A series with no history at all is "new" and passes.
  int baseline_window = 3;
};

/// One metric of the newest run, judged.
struct MetricVerdict {
  /// e.g. "fig7@avx2/scidb/mixed/c8/s4:qps" (the "@set" part only when
  /// the run's stamp names its kernel set).
  std::string series;
  double value = 0.0;
  double baseline = 0.0;     ///< Median of the window (0 when is_new).
  double change = 0.0;       ///< (value - baseline) / baseline; 0 when new.
  bool higher_is_better = false;
  bool is_new = false;       ///< No preceding run carries this series.
  bool regression = false;
};

/// One ingested artifact, in evaluated (timestamp) order.
struct RunSummary {
  std::string name;       ///< File name (or caller-provided label).
  std::string figure;
  std::string git_sha;
  std::string kernel_backend;
  std::string kernel_set;  ///< "avx512" / "avx2" / "scalar"; "" if unstamped.
  std::string timestamp;
  int metrics = 0;        ///< Series extracted from this artifact.
};

struct DoctorReport {
  std::vector<RunSummary> runs;        ///< Oldest first; back() was judged.
  std::vector<MetricVerdict> verdicts; ///< Newest run's metrics.
  int skipped_files = 0;  ///< Inputs without a "figure" field (not bench).

  bool ok() const {
    for (const MetricVerdict& v : verdicts) {
      if (v.regression) return false;
    }
    return true;
  }
};

/// Core entry point: `documents` is (name, raw JSON text) pairs in any
/// order. Returns InvalidArgument on malformed JSON in a bench artifact,
/// NotFound when fewer than one parsable bench run exists.
genbase::Result<DoctorReport> CheckHistory(
    const std::vector<std::pair<std::string, std::string>>& documents,
    const DoctorOptions& options);

/// Filesystem wrapper: reads every regular `*.json` file in `dir`
/// (non-recursive) and delegates to CheckHistory.
genbase::Result<DoctorReport> CheckHistoryDir(const std::string& dir,
                                              const DoctorOptions& options);

/// Human-readable trend table + verdict lines for the report.
std::string FormatReport(const DoctorReport& report);

}  // namespace genbase::obs::doctor

#endif  // GENBASE_OBS_DOCTOR_H_
