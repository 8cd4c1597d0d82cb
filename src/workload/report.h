#ifndef GENBASE_WORKLOAD_REPORT_H_
#define GENBASE_WORKLOAD_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "core/queries.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "plan/plan_stats.h"
#include "serving/counters.h"
#include "workload/latency_histogram.h"
#include "workload/workload_spec.h"

namespace genbase::workload {

/// --- display helpers ---------------------------------------------------------
/// Shared formatting used by the workload report, bench/bench_util and the
/// figure binaries, so "seconds", "INF" and grid layout render identically
/// everywhere.

/// "%.3f" seconds (the figure-cell convention).
std::string FormatSeconds(double s);

/// Milliseconds with adaptive precision ("0.52ms", "12.3ms", "432ms").
std::string FormatMillis(double seconds);

/// Operations per second with adaptive precision ("8.21", "412").
std::string FormatQps(double qps);

/// \brief Paper-figure-shaped grid: one column per engine/system, one row
/// per x-axis point. (Moved here from core/driver so every consumer of grid
/// output — single-run figures and workload reports — shares one printer.)
void PrintGrid(const std::string& title, const std::string& x_label,
               const std::vector<std::string>& x_values,
               const std::vector<std::string>& engines,
               const std::vector<std::vector<std::string>>& cells);

/// --- per-run report ----------------------------------------------------------

/// \brief Aggregated statistics over one slice of a run (one query, or the
/// whole run).
struct OpStats {
  int64_t ops = 0;              ///< Completed operations (any outcome).
  int64_t errors = 0;           ///< Non-OK, non-INF failures.
  int64_t infs = 0;             ///< Timeout / resource-exhaustion (paper INF).
  int64_t verify_failures = 0;  ///< OK results that failed reference check.
  int64_t shed_queue_full = 0;  ///< Rejected on arrival by admission control.
  int64_t shed_timeout = 0;     ///< Shed in queue past the start deadline.
  /// Per-op latency, successful (served) ops only: errored ops finish in
  /// ~0s, INF ops are censored at the budget, and shed ops never execute, so
  /// any of them would distort the distribution. Open-loop latencies are
  /// coordinated-omission-corrected: measured from *scheduled arrival* to
  /// completion, so an op that sat behind a saturated server pays its wait.
  /// latency.count() == successes.
  LatencyHistogram latency;
  /// Queueing share of the above, on its own clock: dispatch lag behind the
  /// arrival schedule plus admission-queue wait, per served op.
  LatencyHistogram queue_delay;
  /// Per-stage latency, successful ops only, indexed by obs::RequestStage
  /// (queue / cache / flight / dispatch / execute / verify). Stage seconds
  /// per op sum to e2e_latency's sample for that op: queue + flight ==
  /// queue_delay, cache + dispatch + execute == the cell total, and verify
  /// is the runner's reference check.
  LatencyHistogram stage[obs::kNumRequestStages];
  /// Summed per-stage wall and thread-CPU seconds over successful ops, for
  /// the profiler's cpu/wall attribution (ratio of sums — stable where a
  /// per-op ratio distribution would be noise). CPU sums stay zero unless
  /// the run was profiled (obs::Profiler); wall sums always fill.
  double stage_wall_s[obs::kNumRequestStages] = {0, 0, 0, 0, 0, 0};
  double stage_cpu_s[obs::kNumRequestStages] = {0, 0, 0, 0, 0, 0};
  /// End-to-end per-op latency including verification: latency + verify.
  LatencyHistogram e2e_latency;
  double dm_s = 0.0;            ///< Summed phase seconds over ops.
  double analytics_s = 0.0;
  double glue_s = 0.0;
  double modeled_s = 0.0;       ///< Virtual (simulated) share of the sums.

  int64_t shed() const { return shed_queue_full + shed_timeout; }

  void MergeFrom(const OpStats& other);
};

/// \brief Everything a finished workload run reports: achieved throughput,
/// tail latency, error/INF/verification counts, and per-query breakdowns
/// reusing the DM / analytics / glue phase clock.
struct WorkloadReport {
  std::string engine;
  std::string workload_name;
  ClientModel model = ClientModel::kClosedLoop;
  int clients = 0;
  int shards = 1;             ///< Engine shards served through (1 = direct).
  int param_variants = 1;     ///< Distinct parameter variants in the mix.
  uint64_t seed = 0;

  /// Which linalg kernel backend ("scalar" / "simd") produced these numbers,
  /// so fig6–fig8 results are attributable to the kernel variant. Stamped by
  /// WorkloadRunner from simd::ActiveBackend().
  std::string kernel_backend;

  /// Open-loop runs: the offered arrival rate (spec.arrival_rate_qps), so
  /// goodput can be read against load. 0 for closed-loop runs.
  double offered_qps = 0.0;

  /// Set when the run went through a ServingStack; `serving` then holds the
  /// measured-phase delta of cache/admission/shard counters.
  bool has_serving = false;
  serving::ServingCounters serving;

  /// Set when the planned column store executed during the measured phase;
  /// `plan` then holds the measured-phase delta of the plan_* counters
  /// (access-path builds, cache hits, executes, build ns).
  bool has_plan = false;
  plan::PlanStatsSnapshot plan;

  /// True when obs::Profiler was enabled for the measured phase: stage CPU
  /// sums, allocation deltas and `execute_perf` carry data. When false those
  /// fields export as null/absent rather than as misleading zeros.
  bool profiled = false;

  /// Hardware-counter delta attributed to the execute stage over the
  /// measured phase (sum across client threads). reading.valid is false when
  /// perf_event_open was unavailable — exported as nulls.
  obs::ExecutePerfTotals execute_perf;

  double wall_seconds = 0.0;  ///< Measured-phase wall time (real clock).
  OpStats total;
  std::map<core::QueryId, OpStats> per_query;

  /// Wall time of the *modeled* deployment: real wall plus each client's
  /// share of virtual (simulated) seconds. Per-op latencies include virtual
  /// time, so throughput must pay for it too or the two headline metrics
  /// contradict each other for engines with modeled costs (e.g. the UDF
  /// configs' per-invocation overhead). Virtual seconds are serial within a
  /// client; dividing the aggregate by the client count models clients
  /// incurring them concurrently.
  double modeled_wall_seconds() const {
    return wall_seconds + (clients > 0 ? total.modeled_s / clients : 0.0);
  }

  /// Operations that produced a result (shed ops never execute).
  int64_t served_ops() const { return total.ops - total.shed(); }

  /// Successful operations per modeled wall second (goodput — failures and
  /// shed ops excluded, virtual time included).
  double achieved_qps() const {
    const int64_t successes =
        served_ops() - total.errors - total.infs;
    const double wall = modeled_wall_seconds();
    return wall > 0 ? successes / wall : 0.0;
  }

  /// Successful operations per *real* wall second — the clock offered_qps
  /// is defined on. Open-loop goodput-vs-offered comparisons must use this
  /// (achieved_qps divides by the modeled wall, a different clock, and the
  /// two rates are not mutually comparable).
  double real_goodput_qps() const {
    const int64_t successes =
        served_ops() - total.errors - total.infs;
    return wall_seconds > 0 ? successes / wall_seconds : 0.0;
  }
  int64_t failed_ops() const { return total.errors + total.infs; }

  /// One-line summary: "SciDB mixed x4: 118 qps p50=28ms p95=61ms p99=74ms".
  std::string Summary() const;

  /// Compact cell text for throughput/latency grids:
  /// "118qps 28/61/74ms" (p50/p95/p99).
  std::string GridCell() const;

  /// Full human-readable report with the per-query breakdown table (plus
  /// queueing-delay and serving-layer lines when present).
  void Print() const;

  /// Machine-readable dump of everything above (counters, percentiles,
  /// per-query breakdown, serving-layer stats) as one JSON object, so bench
  /// runs can be captured into BENCH_*.json artifacts.
  std::string ToJson() const;
};

}  // namespace genbase::workload

#endif  // GENBASE_WORKLOAD_REPORT_H_
