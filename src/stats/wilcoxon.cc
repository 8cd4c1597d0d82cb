#include "stats/wilcoxon.h"

#include <algorithm>
#include <cmath>

#include "stats/normal.h"
#include "stats/ranking.h"

namespace genbase::stats {

genbase::Result<RankSumResult> WilcoxonRankSum(
    const std::vector<double>& values, const std::vector<bool>& in_group) {
  if (values.size() != in_group.size()) {
    return genbase::Status::InvalidArgument("values/mask length mismatch");
  }
  RankSumResult r;
  for (bool b : in_group) (b ? r.n_in : r.n_out)++;
  if (r.n_in == 0 || r.n_out == 0) {
    return genbase::Status::InvalidArgument(
        "rank-sum test needs both groups non-empty");
  }
  const double n1 = static_cast<double>(r.n_in);
  const double n2 = static_cast<double>(r.n_out);
  const double n = n1 + n2;

  // One index sort yields both the mid-ranks and the tie structure.
  const RankedValues ranked = RankWithTies(values);
  for (size_t i = 0; i < values.size(); ++i) {
    if (in_group[i]) r.rank_sum_in_group += ranked.ranks[i];
  }
  r.u_statistic = r.rank_sum_in_group - n1 * (n1 + 1.0) / 2.0;

  const double mean_u = n1 * n2 / 2.0;
  // Tie correction: var = n1 n2 /12 * (n+1 - sum(t^3 - t) / (n (n-1))).
  double tie_term = 0.0;
  for (int64_t t : ranked.tie_group_sizes) {
    const double td = static_cast<double>(t);
    tie_term += td * td * td - td;
  }
  const double var_u =
      n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (var_u <= 0.0) {
    // All values identical: no evidence either way.
    r.z = 0.0;
    r.p_two_sided = 1.0;
    return r;
  }
  // Continuity correction toward the mean.
  double diff = r.u_statistic - mean_u;
  if (diff > 0.5) {
    diff -= 0.5;
  } else if (diff < -0.5) {
    diff += 0.5;
  } else {
    diff = 0.0;
  }
  r.z = diff / std::sqrt(var_u);
  r.p_two_sided = TwoSidedNormalPValue(r.z);
  return r;
}

namespace {

/// Recursively enumerates size-k subsets accumulating rank sums >= observed
/// (in absolute deviation from the mean) to produce an exact p-value.
void EnumerateSubsets(const std::vector<double>& ranks, size_t next, int64_t
                      remaining, double sum, double mean, double target_dev,
                      int64_t* total, int64_t* at_least_as_extreme) {
  if (remaining == 0) {
    ++*total;
    if (std::fabs(sum - mean) >= target_dev - 1e-12) {
      ++*at_least_as_extreme;
    }
    return;
  }
  if (next >= ranks.size()) return;
  if (ranks.size() - next < static_cast<size_t>(remaining)) return;
  EnumerateSubsets(ranks, next + 1, remaining - 1, sum + ranks[next], mean,
                   target_dev, total, at_least_as_extreme);
  EnumerateSubsets(ranks, next + 1, remaining, sum, mean, target_dev, total,
                   at_least_as_extreme);
}

}  // namespace

genbase::Result<double> ExactRankSumPValue(const std::vector<double>& values,
                                           const std::vector<bool>& in_group) {
  if (values.size() != in_group.size()) {
    return genbase::Status::InvalidArgument("values/mask length mismatch");
  }
  if (values.size() > 20) {
    return genbase::Status::InvalidArgument(
        "exact test limited to n <= 20 (enumeration oracle)");
  }
  int64_t n1 = 0;
  for (bool b : in_group) n1 += b ? 1 : 0;
  if (n1 == 0 || n1 == static_cast<int64_t>(values.size())) {
    return genbase::Status::InvalidArgument("both groups must be non-empty");
  }
  const std::vector<double> ranks = AverageRanks(values);
  double observed = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (in_group[i]) observed += ranks[i];
  }
  const double n = static_cast<double>(values.size());
  const double mean = static_cast<double>(n1) * (n + 1.0) / 2.0;
  int64_t total = 0, extreme = 0;
  EnumerateSubsets(ranks, 0, n1, 0.0, mean, std::fabs(observed - mean),
                   &total, &extreme);
  return static_cast<double>(extreme) / static_cast<double>(total);
}

}  // namespace genbase::stats
