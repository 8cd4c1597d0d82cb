#include "stats/quantile.h"

#include <algorithm>

#include "common/rng.h"

namespace genbase::stats {

genbase::Result<double> Quantile(const std::vector<double>& values,
                                 double q) {
  if (values.empty()) {
    return genbase::Status::InvalidArgument("quantile of empty set");
  }
  if (q < 0.0 || q > 1.0) {
    return genbase::Status::InvalidArgument("quantile q out of [0,1]");
  }
  std::vector<double> copy = values;
  const int64_t idx = std::min<int64_t>(
      static_cast<int64_t>(copy.size()) - 1,
      static_cast<int64_t>(q * static_cast<double>(copy.size())));
  std::nth_element(copy.begin(), copy.begin() + idx, copy.end());
  return copy[static_cast<size_t>(idx)];
}

genbase::Result<double> SampledQuantile(const double* values, int64_t count,
                                        double q, int64_t max_sample,
                                        uint64_t seed) {
  if (count <= 0) {
    return genbase::Status::InvalidArgument("quantile of empty set");
  }
  if (count <= max_sample) {
    return Quantile(std::vector<double>(values, values + count), q);
  }
  genbase::Rng rng(seed);
  std::vector<double> sample(static_cast<size_t>(max_sample));
  for (int64_t i = 0; i < max_sample; ++i) {
    sample[static_cast<size_t>(i)] =
        values[rng.UniformInt(0, count - 1)];
  }
  return Quantile(sample, q);
}

}  // namespace genbase::stats
