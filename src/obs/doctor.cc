#include "obs/doctor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/json.h"

namespace genbase::obs::doctor {

namespace {

struct ParsedRun {
  RunSummary summary;
  /// (series, value, higher_is_better) triples extracted from the artifact.
  std::vector<std::tuple<std::string, double, bool>> metrics;
};

std::string CompactNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Series identity for one workload report: enough run-shape dimensions that
/// only like runs compare (a 4-shard run must never baseline a 1-shard run).
std::string ReportSeriesPrefix(const std::string& figure,
                               const json::Value& report) {
  std::string key = figure;
  key += "/" + report.StringOr("engine", "?");
  key += "/" + report.StringOr("workload", "?");
  key += "/c" + CompactNumber(report.NumberOr("clients", 0));
  key += "/s" + CompactNumber(report.NumberOr("shards", 1));
  const double variants = report.NumberOr("param_variants", 1);
  if (variants > 1) key += "/v" + CompactNumber(variants);
  const double offered = report.NumberOr("offered_qps", 0);
  if (offered > 0) key += "/off" + CompactNumber(offered);
  return key;
}

void ExtractWorkloadMetrics(const std::string& figure,
                            const json::Value& report, ParsedRun* run) {
  const std::string prefix = ReportSeriesPrefix(figure, report);
  const double qps = report.NumberOr("achieved_qps", -1);
  if (qps >= 0) {
    run->metrics.emplace_back(prefix + ":qps", qps, /*higher=*/true);
  }
  if (const json::Value* total = report.Find("total")) {
    if (const json::Value* latency = total->Find("latency")) {
      const double p99 = latency->NumberOr("p99_s", -1);
      // Sub-granularity p99s (tiny scales round to 0) carry no signal and
      // would divide by zero in the change computation.
      if (p99 > 0) {
        run->metrics.emplace_back(prefix + ":p99_s", p99, /*higher=*/false);
      }
    }
  }
}

void ExtractKernelMetrics(const std::string& figure,
                          const json::Value& doc, ParsedRun* run) {
  const json::Value* kernels = doc.Find("kernels");
  if (kernels == nullptr || !kernels->is_object()) return;
  for (const auto& [name, kernel] : kernels->object) {
    const double ns = kernel.NumberOr("ns", -1);
    if (ns > 0) {
      run->metrics.emplace_back(figure + "/" + name + ":ns", ns,
                                /*higher=*/false);
    }
  }
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace

genbase::Result<DoctorReport> CheckHistory(
    const std::vector<std::pair<std::string, std::string>>& documents,
    const DoctorOptions& options) {
  DoctorReport report;
  std::vector<ParsedRun> runs;
  for (const auto& [name, text] : documents) {
    auto parsed = json::Parse(text);
    if (!parsed.ok()) {
      return genbase::Status::InvalidArgument(name + ": " +
                                              parsed.status().message());
    }
    const json::Value doc = std::move(parsed).ValueOrDie();
    const std::string figure = doc.StringOr("figure", "");
    if (figure.empty()) {
      // Not a bench artifact (a metrics snapshot, a trace, a stray file) —
      // skipping, not failing, keeps the history directory easy to curate.
      ++report.skipped_files;
      continue;
    }
    ParsedRun run;
    run.summary.name = name;
    run.summary.figure = figure;
    if (const json::Value* stamp = doc.Find("stamp")) {
      run.summary.git_sha = stamp->StringOr("git_sha", "");
      run.summary.kernel_backend = stamp->StringOr("kernel_backend", "");
      run.summary.kernel_set = stamp->StringOr("kernel_set", "");
      run.summary.timestamp = stamp->StringOr("timestamp", "");
    }
    // Runs on different kernel sets (an AVX2 host and an AVX-512 host) are
    // different series: the set joins the figure in every series name.
    const std::string root = run.summary.kernel_set.empty()
                                 ? figure
                                 : figure + "@" + run.summary.kernel_set;
    if (const json::Value* reports = doc.Find("reports")) {
      for (const json::Value& r : reports->array) {
        if (r.is_object()) ExtractWorkloadMetrics(root, r, &run);
      }
    }
    ExtractKernelMetrics(root, doc, &run);
    run.summary.metrics = static_cast<int>(run.metrics.size());
    runs.push_back(std::move(run));
  }
  if (runs.empty()) {
    return genbase::Status::NotFound("no bench artifacts found");
  }

  // ISO-8601 UTC timestamps order lexicographically; unstamped artifacts
  // sort oldest (legacy seeds), the file name breaks ties deterministically.
  std::sort(runs.begin(), runs.end(), [](const ParsedRun& a,
                                         const ParsedRun& b) {
    return std::tie(a.summary.timestamp, a.summary.name) <
           std::tie(b.summary.timestamp, b.summary.name);
  });
  for (const ParsedRun& run : runs) report.runs.push_back(run.summary);

  // Judge the newest run: baseline each of its series on the median of the
  // last `baseline_window` preceding runs that carry the series.
  const ParsedRun& latest = runs.back();
  for (const auto& [series, value, higher] : latest.metrics) {
    MetricVerdict v;
    v.series = series;
    v.value = value;
    v.higher_is_better = higher;
    std::vector<double> window;
    for (size_t i = runs.size() - 1; i-- > 0;) {
      for (const auto& [s, past_value, h] : runs[i].metrics) {
        if (s == series) {
          window.push_back(past_value);
          break;
        }
      }
      if (static_cast<int>(window.size()) >= options.baseline_window) break;
    }
    if (window.empty()) {
      v.is_new = true;
    } else {
      v.baseline = Median(std::move(window));
      v.change = v.baseline != 0 ? (v.value - v.baseline) / v.baseline : 0;
      v.regression = higher ? v.change < -options.throughput_slack
                            : v.change > options.latency_slack;
    }
    report.verdicts.push_back(std::move(v));
  }
  return report;
}

genbase::Result<DoctorReport> CheckHistoryDir(const std::string& dir,
                                              const DoctorOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return genbase::Status::NotFound("not a directory: " + dir);
  }
  std::vector<std::pair<std::string, std::string>> documents;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".json") continue;
    std::ifstream f(path, std::ios::binary);
    if (!f.is_open()) {
      return genbase::Status::IOError("cannot read " + path.string());
    }
    std::ostringstream contents;
    contents << f.rdbuf();
    documents.emplace_back(path.filename().string(), contents.str());
  }
  if (ec) {
    return genbase::Status::IOError("cannot list " + dir + ": " +
                                    ec.message());
  }
  return CheckHistory(documents, options);
}

std::string FormatReport(const DoctorReport& report) {
  std::string out;
  char line[512];
  out += "bench history (oldest -> newest):\n";
  for (const RunSummary& run : report.runs) {
    std::snprintf(line, sizeof(line),
                  "  %-32s %-12s %-8.8s %-8s %-8s %s (%d)\n",
                  run.name.c_str(), run.figure.c_str(),
                  run.git_sha.empty() ? "-" : run.git_sha.c_str(),
                  run.kernel_backend.empty() ? "-"
                                             : run.kernel_backend.c_str(),
                  run.kernel_set.empty() ? "-" : run.kernel_set.c_str(),
                  run.timestamp.empty() ? "-" : run.timestamp.c_str(),
                  run.metrics);
    out += line;
  }
  if (report.skipped_files > 0) {
    std::snprintf(line, sizeof(line), "  (%d non-bench file%s skipped)\n",
                  report.skipped_files,
                  report.skipped_files == 1 ? "" : "s");
    out += line;
  }
  out += "newest run vs median baseline:\n";
  for (const MetricVerdict& v : report.verdicts) {
    if (v.is_new) {
      std::snprintf(line, sizeof(line), "  %-48s %12.4g %12s %8s  new\n",
                    v.series.c_str(), v.value, "-", "-");
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-48s %12.4g %12.4g %+7.1f%%  %s\n", v.series.c_str(),
                    v.value, v.baseline, v.change * 100.0,
                    v.regression ? "REGRESSION" : "ok");
    }
    out += line;
  }
  out += report.ok() ? "doctor: PASS\n" : "doctor: FAIL\n";
  return out;
}

}  // namespace genbase::obs::doctor
