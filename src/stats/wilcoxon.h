#ifndef GENBASE_STATS_WILCOXON_H_
#define GENBASE_STATS_WILCOXON_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace genbase::stats {

/// \brief Result of a Wilcoxon rank-sum (Mann-Whitney) test.
struct RankSumResult {
  double rank_sum_in_group = 0.0;  ///< W: sum of ranks of group-1 members.
  double u_statistic = 0.0;        ///< Mann-Whitney U for group 1.
  double z = 0.0;                  ///< Normal approximation statistic.
  double p_two_sided = 1.0;
  int64_t n_in = 0;
  int64_t n_out = 0;
};

/// \brief Wilcoxon rank-sum test of whether values flagged in_group rank
/// systematically high or low among all values. Normal approximation with
/// continuity correction and tie-corrected variance — the standard recipe
/// (and what R's wilcox.test uses at these sample sizes).
///
/// This is GenBase Query 5's statistical kernel: "The Wilcoxon Rank-Sum
/// statistical test is used to determine if a gene set ranks at the top or
/// bottom of the ranked list."
genbase::Result<RankSumResult> WilcoxonRankSum(
    const std::vector<double>& values, const std::vector<bool>& in_group);

/// \brief Exact two-sided p-value by complete enumeration of group
/// assignments. Exponential cost; only valid for small inputs (n <= 20,
/// choose(n, k) <= ~2e6). Used as the property-test oracle.
genbase::Result<double> ExactRankSumPValue(const std::vector<double>& values,
                                           const std::vector<bool>& in_group);

}  // namespace genbase::stats

#endif  // GENBASE_STATS_WILCOXON_H_
