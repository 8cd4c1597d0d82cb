#include "stats/quantile.h"

#include <algorithm>
#include <cstdint>

namespace genbase::stats {

genbase::Result<double> Quantile(std::vector<double>&& values, double q) {
  if (values.empty()) {
    return genbase::Status::InvalidArgument("quantile of empty set");
  }
  if (q < 0.0 || q > 1.0) {
    return genbase::Status::InvalidArgument("quantile q out of [0,1]");
  }
  const int64_t idx = std::min<int64_t>(
      static_cast<int64_t>(values.size()) - 1,
      static_cast<int64_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[static_cast<size_t>(idx)];
}

genbase::Result<double> Quantile(const std::vector<double>& values,
                                 double q) {
  return Quantile(std::vector<double>(values), q);
}

}  // namespace genbase::stats
