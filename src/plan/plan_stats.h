#ifndef GENBASE_PLAN_PLAN_STATS_H_
#define GENBASE_PLAN_PLAN_STATS_H_

#include <cstdint>

namespace genbase::obs {
class Counter;
}  // namespace genbase::obs

namespace genbase::plan {

/// \brief Process-wide metrics of the planned column store's access-path
/// cache, registered once in the global MetricsRegistry so they ride along
/// in METRICS_* snapshots and the workload report's --json output.
struct PlanMetrics {
  obs::Counter* compiles;    ///< plan_compiles_total (access-path builds)
  obs::Counter* cache_hits;  ///< plan_cache_hits_total
  obs::Counter* executes;    ///< plan_executes_total
  obs::Counter* compile_ns;  ///< plan_compile_ns_total

  static PlanMetrics& Get();
};

/// \brief Point-in-time copy of the plan metrics; the workload runner
/// snapshots at measure-start and reports the delta, same as the serving
/// counters.
struct PlanStatsSnapshot {
  int64_t compiles = 0;
  int64_t cache_hits = 0;
  int64_t executes = 0;
  int64_t compile_ns = 0;

  static PlanStatsSnapshot Capture();

  /// Field-wise difference (a measured-phase delta).
  PlanStatsSnapshot operator-(const PlanStatsSnapshot& rhs) const;
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_STATS_H_
