#ifndef GENBASE_STATS_QUANTILE_H_
#define GENBASE_STATS_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace genbase::stats {

/// \brief q-quantile (0 <= q <= 1) of `values` by partial selection
/// (nth_element on a copy). q = 0.9 gives the paper's Query 2 "top 10%
/// covariance" threshold.
genbase::Result<double> Quantile(const std::vector<double>& values, double q);

/// \brief Approximate quantile from a deterministic subsample; used when the
/// full pair population (n^2 covariances) is too large to copy.
genbase::Result<double> SampledQuantile(const double* values, int64_t count,
                                        double q, int64_t max_sample,
                                        uint64_t seed);

}  // namespace genbase::stats

#endif  // GENBASE_STATS_QUANTILE_H_
