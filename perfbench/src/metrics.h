// A named, unit-carrying number the benchmark prints.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
