// Sample statistics used by every workload: medians, interpolated
// percentiles, and the tail rule (a percentile is reported only when at
// least kTailMinBeyond samples lie beyond it).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr int64_t kTailMinBeyond = 10;

/// Linear-interpolation percentile (p in [0, 100]) of unsorted `values`;
/// 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// True when a sample of `n` values has at least kTailMinBeyond of them
/// beyond percentile `p`, i.e. n * (100 - p) / 100 >= kTailMinBeyond.
bool TailSupported(int64_t n, double p);

/// The highest of {99.9, 99, 90, 50} that TailSupported allows for `n`
/// samples, or 0 when none does.
double HighestSupportedPercentile(int64_t n);

/// Percentile `p` of `values` when TailSupported, else 0: a tail read off
/// fewer than kTailMinBeyond samples is omitted rather than reported.
double TailOrZero(const std::vector<double>& values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
