// Self-tests of the benchmark's own machinery: schedule determinism per
// seed, the tail-percentile rule, and span self-time arithmetic. Exits 0
// when every check holds.

#include <cmath>
#include <cstdio>
#include <vector>

#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::MixEntry;
using perfbench::Op;
using genbase::core::QueryId;

const std::vector<MixEntry> kMix = {{QueryId::kRegression, 6},
                                    {QueryId::kCovariance, 4},
                                    {QueryId::kBiclustering, 1},
                                    {QueryId::kSvd, 3},
                                    {QueryId::kStatistics, 6}};

void TestScheduleDeterminism() {
  int differ = 0;
  int counts[5] = {0, 0, 0, 0, 0};
  int svd_variants[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int64_t i = 0; i < 20000; ++i) {
    const Op a = perfbench::MixOp(7, i, kMix, 8);
    const Op b = perfbench::MixOp(7, i, kMix, 8);
    const Op c = perfbench::MixOp(8, i, kMix, 8);
    CHECK(a.query == b.query && a.variant == b.variant);
    CHECK(a.variant >= 0 && a.variant < 8);
    differ += a.query != c.query || a.variant != c.variant;
    ++counts[static_cast<int>(a.query) - 1];
    if (a.query == QueryId::kSvd) ++svd_variants[a.variant];
    // Every whole block of 20 ops holds the mix's exact counts.
    if (i % 20 == 19) {
      const int expected[5] = {6, 4, 1, 3, 6};
      for (int q = 0; q < 5; ++q) {
        CHECK(counts[q] == expected[q] * (i + 1) / 20);
      }
    }
  }
  CHECK(differ > 10000);  // Another seed gives another order.
  for (int v = 0; v < 8; ++v) CHECK(svd_variants[v] == 3000 / 8);

  const auto p1 = perfbench::PoissonArrivals(7, 400.0, 8000);
  const auto p2 = perfbench::PoissonArrivals(7, 400.0, 8000);
  const auto p3 = perfbench::PoissonArrivals(8, 400.0, 8000);
  CHECK(p1 == p2);
  CHECK(p1 != p3);
  for (size_t i = 1; i < p1.size(); ++i) CHECK(p1[i] > p1[i - 1]);
  CHECK(std::fabs(p1.back() - 20.0) < 1.0);  // 8000 arrivals at 400/s.

  for (int64_t i = 0; i < 10; ++i) {
    CHECK(perfbench::RoundRobinOp(0, i).query ==
          genbase::core::kAllQueries[i % 5]);
    CHECK(perfbench::RoundRobinOp(7, i).query ==
          genbase::core::kAllQueries[(i + 2) % 5]);
  }
  // Variants: DM fields repeat with period 2, analytic fields differ.
  const auto v1 = perfbench::VariantParams(1);
  const auto v3 = perfbench::VariantParams(3);
  CHECK(v1.function_threshold == v3.function_threshold);
  CHECK(v1.max_age == v3.max_age);
  CHECK(v1.significance != v3.significance);
  CHECK(perfbench::VariantParams(0).svd_rank == 50);
}

void TestTailRule() {
  // p99 needs 1000 samples (10 beyond), p90 needs 100, p99.9 needs 10000.
  CHECK(!perfbench::TailSupported(999, 99.0));
  CHECK(perfbench::TailSupported(1000, 99.0));
  CHECK(!perfbench::TailSupported(99, 90.0));
  CHECK(perfbench::TailSupported(100, 90.0));
  CHECK(perfbench::TailSupported(10000, 99.9));
  CHECK(!perfbench::TailSupported(9999, 99.9));
  CHECK(perfbench::HighestSupportedPercentile(50) == 50.0);
  CHECK(perfbench::HighestSupportedPercentile(19) == 0.0);
  CHECK(perfbench::HighestSupportedPercentile(20) == 50.0);
  CHECK(perfbench::HighestSupportedPercentile(150) == 90.0);
  CHECK(perfbench::HighestSupportedPercentile(5000) == 99.0);

  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  CHECK(perfbench::TailOrZero(v, 99.0) == 0.0);  // Omitted.
  v.push_back(1000);
  CHECK(Near(perfbench::TailOrZero(v, 99.0), 990.01));
  CHECK(Near(perfbench::Median({3, 1, 2}), 2.0));
  CHECK(Near(perfbench::Median({4, 1, 2, 3}), 2.5));
  CHECK(perfbench::Median({}) == 0.0);
}

void TestSelfTime() {
  using perfbench::SpanRecord;
  // Root [0, 10]; children [1, 3] and [2, 5] overlap (union 4 s) and
  // [8, 12] runs past the root's end (2 s inside it). Grandchild [1, 2]
  // lies inside the first child.
  const std::vector<SpanRecord> spans = {
      {"root", 1, 0, 0.0, 10.0},   {"child", 2, 1, 1.0, 3.0},
      {"child", 3, 1, 2.0, 5.0},   {"tail", 4, 1, 8.0, 12.0},
      {"leaf", 5, 2, 1.0, 2.0},
  };
  const auto self = perfbench::SelfSecondsByName(spans);
  CHECK(Near(self.at("root"), 10.0 - 4.0 - 2.0));
  CHECK(Near(self.at("child"), (2.0 - 1.0) + 3.0));
  CHECK(Near(self.at("tail"), 4.0));
  CHECK(Near(self.at("leaf"), 1.0));
  const auto total = perfbench::TotalSecondsByName(spans);
  CHECK(Near(total.at("child"), 5.0));

  // Recorder: a disabled recorder records nothing; an enabled one nests.
  perfbench::SpanRecorder off(false);
  { perfbench::Span s(&off, "x"); CHECK(s.id() == 0); }
  CHECK(off.Collect().empty());
  perfbench::SpanRecorder on(true);
  {
    perfbench::Span outer(&on, "outer");
    perfbench::Span inner(&on, "inner", outer.id());
  }
  const auto recorded = on.Collect();
  CHECK(recorded.size() == 2);
  CHECK(recorded.size() == 2 && recorded[1].parent == recorded[0].id);
  const auto rec_self = perfbench::SelfSecondsByName(recorded);
  CHECK(rec_self.at("outer") >= 0.0);
}

}  // namespace

int main() {
  TestScheduleDeterminism();
  TestTailRule();
  TestSelfTime();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
