#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool TailSupported(int64_t n, double p) {
  // Compare in thousandths of a percent so 99.9 is exact.
  const int64_t beyond_milli =
      n * (100000 - static_cast<int64_t>(std::llround(p * 1000.0)));
  return n > 0 && beyond_milli >= kTailMinBeyond * 100000;
}

double HighestSupportedPercentile(int64_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (TailSupported(n, p)) return p;
  }
  return 0.0;
}

double TailOrZero(const std::vector<double>& values, double p) {
  if (!TailSupported(static_cast<int64_t>(values.size()), p)) return 0.0;
  return Percentile(values, p);
}

}  // namespace perfbench
