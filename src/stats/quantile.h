#ifndef GENBASE_STATS_QUANTILE_H_
#define GENBASE_STATS_QUANTILE_H_

#include <vector>

#include "common/status.h"

namespace genbase::stats {

/// \brief q-quantile (0 <= q <= 1) of `values` by partial selection
/// (nth_element), in place: `values` is left reordered. q = 0.9 gives the
/// paper's Query 2 "top 10% covariance" threshold.
genbase::Result<double> Quantile(std::vector<double>&& values, double q);

/// \brief The same quantile of a copy of `values`.
genbase::Result<double> Quantile(const std::vector<double>& values, double q);

}  // namespace genbase::stats

#endif  // GENBASE_STATS_QUANTILE_H_
