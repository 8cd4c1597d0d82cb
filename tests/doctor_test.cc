#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/doctor.h"

namespace genbase::obs::doctor {
namespace {

/// Builds a minimal but realistic fig7-shaped bench artifact: one stamped
/// run with a single workload report carrying qps + p99 and the shape
/// dimensions the doctor folds into the series identity.
std::string Fig7Run(const std::string& timestamp, double qps, double p99_s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"figure\":\"fig7\","
      "\"stamp\":{\"git_sha\":\"abc1234\",\"kernel_backend\":\"simd\","
      "\"timestamp\":\"%s\"},"
      "\"reports\":[{\"engine\":\"genbase\",\"workload\":\"serving-mix\","
      "\"clients\":8,\"shards\":2,\"param_variants\":1,\"offered_qps\":0,"
      "\"achieved_qps\":%.1f,\"total\":{\"latency\":{\"p99_s\":%.4f}}}]}",
      timestamp.c_str(), qps, p99_s);
  return buf;
}

/// A kernelbench artifact; `kernel_set` empty leaves the stamp without
/// one, as artifacts written before stamps named their kernel set.
std::string KernelRun(const std::string& timestamp, double gemm_ns,
                      const std::string& kernel_set = "") {
  const std::string set_field =
      kernel_set.empty() ? "" : ",\"kernel_set\":\"" + kernel_set + "\"";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"figure\":\"kernelbench\","
                "\"stamp\":{\"git_sha\":\"abc1234\","
                "\"kernel_backend\":\"simd\"%s,\"timestamp\":\"%s\"},"
                "\"kernels\":{\"gemm/simd\":{\"ns\":%.1f,\"gflops\":10.0}}}",
                set_field.c_str(), timestamp.c_str(), gemm_ns);
  return buf;
}

using Docs = std::vector<std::pair<std::string, std::string>>;

const MetricVerdict* FindVerdict(const DoctorReport& report,
                                 const std::string& suffix) {
  for (const MetricVerdict& v : report.verdicts) {
    if (v.series.size() >= suffix.size() &&
        v.series.compare(v.series.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
      return &v;
    }
  }
  return nullptr;
}

TEST(DoctorTest, StableHistoryPasses) {
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"r2.json", Fig7Run("2026-08-02T00:00:00Z", 102, 0.011)},
               {"r3.json", Fig7Run("2026-08-03T00:00:00Z", 98, 0.009)},
               {"r4.json", Fig7Run("2026-08-04T00:00:00Z", 101, 0.010)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_TRUE(report.ok()) << FormatReport(report);
  ASSERT_EQ(report.runs.size(), 4u);
  // Sorted oldest -> newest; the newest run is the one judged.
  EXPECT_EQ(report.runs.back().name, "r4.json");
  EXPECT_EQ(report.runs.back().git_sha, "abc1234");
  EXPECT_EQ(report.runs.back().kernel_backend, "simd");
  ASSERT_EQ(report.verdicts.size(), 2u);  // qps + p99 for one series.
}

TEST(DoctorTest, DetectsInjectedThroughputRegression) {
  // 20% qps drop on the newest run against a ~100 qps median baseline —
  // past the 15% default slack, so the doctor must flag it.
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"r2.json", Fig7Run("2026-08-02T00:00:00Z", 101, 0.010)},
               {"r3.json", Fig7Run("2026-08-03T00:00:00Z", 99, 0.010)},
               {"r4.json", Fig7Run("2026-08-04T00:00:00Z", 80, 0.010)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_FALSE(report.ok());
  const MetricVerdict* qps = FindVerdict(report, ":qps");
  ASSERT_NE(qps, nullptr);
  EXPECT_TRUE(qps->regression);
  EXPECT_TRUE(qps->higher_is_better);
  EXPECT_NEAR(qps->baseline, 100.0, 1e-9);  // Median of {100, 101, 99}.
  EXPECT_NEAR(qps->change, -0.20, 1e-9);
  const MetricVerdict* p99 = FindVerdict(report, ":p99_s");
  ASSERT_NE(p99, nullptr);
  EXPECT_FALSE(p99->regression);
}

TEST(DoctorTest, DetectsLatencyRegression) {
  // p99 rises 50% — past the 25% latency slack; qps stays healthy.
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"r2.json", Fig7Run("2026-08-02T00:00:00Z", 100, 0.010)},
               {"r3.json", Fig7Run("2026-08-03T00:00:00Z", 100, 0.015)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_FALSE(report.ok());
  const MetricVerdict* p99 = FindVerdict(report, ":p99_s");
  ASSERT_NE(p99, nullptr);
  EXPECT_TRUE(p99->regression);
  EXPECT_FALSE(p99->higher_is_better);
}

TEST(DoctorTest, MedianBaselineAbsorbsOneOutlier) {
  // One historically slow run must not drag the baseline down far enough
  // to mask a real regression — and conversely a healthy newest run must
  // pass even though the window contains the outlier.
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"r2.json", Fig7Run("2026-08-02T00:00:00Z", 40, 0.010)},
               {"r3.json", Fig7Run("2026-08-03T00:00:00Z", 101, 0.010)},
               {"r4.json", Fig7Run("2026-08-04T00:00:00Z", 99, 0.010)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  const MetricVerdict* qps = FindVerdict(report, ":qps");
  ASSERT_NE(qps, nullptr);
  EXPECT_NEAR(qps->baseline, 100.0, 1e-9);  // Median of {100, 40, 101}.
  EXPECT_FALSE(qps->regression);
}

TEST(DoctorTest, NewSeriesPasses) {
  // The newest run introduces a different shape (4 shards): its series has
  // no history, so it's "new" and never a regression.
  std::string four_shards = Fig7Run("2026-08-04T00:00:00Z", 50, 0.020);
  const size_t pos = four_shards.find("\"shards\":2");
  ASSERT_NE(pos, std::string::npos);
  four_shards.replace(pos, 10, "\"shards\":4");
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"r2.json", std::move(four_shards)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_TRUE(report.ok());
  for (const MetricVerdict& v : report.verdicts) {
    EXPECT_TRUE(v.is_new) << v.series;
  }
}

TEST(DoctorTest, KernelSeriesRegressionDetected) {
  // Kernel ns is lower-is-better: a 2x slowdown must fail, and the series
  // identity keeps kernelbench separate from workload figures.
  Docs docs = {{"k1.json", KernelRun("2026-08-01T00:00:00Z", 1000)},
               {"k2.json", KernelRun("2026-08-02T00:00:00Z", 1010)},
               {"k3.json", KernelRun("2026-08-03T00:00:00Z", 2000)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_FALSE(report.ok());
  const MetricVerdict* ns = FindVerdict(report, "gemm/simd:ns");
  ASSERT_NE(ns, nullptr);
  EXPECT_TRUE(ns->regression);
}

TEST(DoctorTest, KernelSetsAreSeparateSeries) {
  // An AVX-512 host's run must not be baselined on AVX2 hosts' runs (nor on
  // unstamped ones): its series are new, and its own history judges it.
  Docs docs = {{"k1.json", KernelRun("2026-08-01T00:00:00Z", 400, "avx2")},
               {"k2.json", KernelRun("2026-08-02T00:00:00Z", 1000)},
               {"k3.json", KernelRun("2026-08-03T00:00:00Z", 2000, "avx512")}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_TRUE(report.ok()) << FormatReport(report);
  EXPECT_EQ(report.runs.back().kernel_set, "avx512");
  const MetricVerdict* ns = FindVerdict(report, "gemm/simd:ns");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->series, "kernelbench@avx512/gemm/simd:ns");
  EXPECT_TRUE(ns->is_new);

  docs.emplace_back("k4.json",
                    KernelRun("2026-08-04T00:00:00Z", 4000, "avx512"));
  result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  report = std::move(result).ValueOrDie();
  ns = FindVerdict(report, "gemm/simd:ns");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->baseline, 2000);
  EXPECT_TRUE(ns->regression);
}

TEST(DoctorTest, SkipsNonBenchFilesAndRejectsBadJson) {
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"metrics.json", "{\"stamp\":{},\"metrics\":{}}"}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  EXPECT_EQ(report.skipped_files, 1);
  EXPECT_EQ(report.runs.size(), 1u);

  Docs bad = {{"broken.json", "{\"figure\":"}};
  auto bad_result = CheckHistory(bad, DoctorOptions{});
  EXPECT_FALSE(bad_result.ok());
  EXPECT_NE(bad_result.status().ToString().find("broken.json"),
            std::string::npos);

  auto empty_result = CheckHistory({}, DoctorOptions{});
  EXPECT_FALSE(empty_result.ok());
}

TEST(DoctorTest, UnstampedRunsSortOldest) {
  // A legacy artifact without a stamp must never be judged as the newest
  // run when stamped runs exist.
  std::string unstamped =
      "{\"figure\":\"fig7\",\"reports\":[{\"engine\":\"genbase\","
      "\"workload\":\"serving-mix\",\"clients\":8,\"shards\":2,"
      "\"param_variants\":1,\"offered_qps\":0,\"achieved_qps\":10,"
      "\"total\":{\"latency\":{\"p99_s\":0.5}}}]}";
  Docs docs = {{"new.json", Fig7Run("2026-08-02T00:00:00Z", 100, 0.010)},
               {"legacy.json", std::move(unstamped)}};
  auto result = CheckHistory(docs, DoctorOptions{});
  ASSERT_TRUE(result.ok());
  const DoctorReport report = std::move(result).ValueOrDie();
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs.front().name, "legacy.json");
  EXPECT_EQ(report.runs.back().name, "new.json");
  // 10 -> 100 qps is an improvement over the legacy baseline, not a
  // regression.
  EXPECT_TRUE(report.ok()) << FormatReport(report);
}

TEST(DoctorTest, WiderSlackSuppressesRegression) {
  Docs docs = {{"r1.json", Fig7Run("2026-08-01T00:00:00Z", 100, 0.010)},
               {"r2.json", Fig7Run("2026-08-02T00:00:00Z", 80, 0.010)}};
  DoctorOptions loose;
  loose.throughput_slack = 0.6;
  auto result = CheckHistory(docs, loose);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::move(result).ValueOrDie().ok());
}

}  // namespace
}  // namespace genbase::obs::doctor
