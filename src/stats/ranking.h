#ifndef GENBASE_STATS_RANKING_H_
#define GENBASE_STATS_RANKING_H_

#include <cstdint>
#include <vector>

namespace genbase::stats {

/// \brief Ranks plus tie structure, produced from one index sort.
struct RankedValues {
  /// 1-based mid-ranks: ties receive the average of the ranks they span
  /// (the convention the Wilcoxon test needs).
  std::vector<double> ranks;
  /// Sizes of tie groups with more than one member, in sorted-value order
  /// (for the tie-corrected rank-sum variance).
  std::vector<int64_t> tie_group_sizes;
};

/// \brief Computes mid-ranks and tie-group sizes with a single index sort
/// and one tie-run sweep: O(n log n) comparisons, no value copies, one pass
/// over each tie run. Q4/Q5 call this once per GO term, so the second sort
/// the old AverageRanks + TieGroupSizes pair paid is gone.
RankedValues RankWithTies(const std::vector<double>& values);

/// \brief Returns 1-based mid-ranks of `values` (RankWithTies().ranks).
std::vector<double> AverageRanks(const std::vector<double>& values);

/// \brief Tie-group sizes of the sorted values. Only groups of size > 1 are
/// returned. (RankWithTies().tie_group_sizes.)
std::vector<int64_t> TieGroupSizes(const std::vector<double>& values);

}  // namespace genbase::stats

#endif  // GENBASE_STATS_RANKING_H_
