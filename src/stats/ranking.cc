#include "stats/ranking.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace genbase::stats {

RankedValues RankWithTies(const std::vector<double>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // `<` alone is not a strict weak ordering when NaN is present, and
  // std::sort on an inconsistent comparator can read out of bounds. Sort
  // NaNs after every finite value, ordered among themselves by index.
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const double va = values[a];
    const double vb = values[b];
    const bool na = std::isnan(va);
    const bool nb = std::isnan(vb);
    if (na != nb) return nb;
    if (na) return a < b;
    return va < vb;
  });
  RankedValues out;
  out.ranks.assign(static_cast<size_t>(n), 0.0);
  int64_t i = 0;
  while (i < n) {
    const double v = values[order[i]];
    int64_t j = i;
    while (j + 1 < n && values[order[j + 1]] == v) ++j;
    // Positions i..j (0-based) share the average of 1-based ranks i+1..j+1.
    const double avg = 0.5 * static_cast<double>(i + j) + 1.0;
    for (int64_t t = i; t <= j; ++t) out.ranks[order[t]] = avg;
    if (j > i) out.tie_group_sizes.push_back(j - i + 1);
    i = j + 1;
  }
  return out;
}

std::vector<double> AverageRanks(const std::vector<double>& values) {
  return RankWithTies(values).ranks;
}

std::vector<int64_t> TieGroupSizes(const std::vector<double>& values) {
  return RankWithTies(values).tie_group_sizes;
}

}  // namespace genbase::stats
