// GenBase benchmark runner.
//
//   perfbench --workload <suite_medium|serve_cold> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//             [--code-id <id>] [--git-sha <sha>]
//
// Prints '#' lines (provenance stamp, sample counts, every metric with its
// unit, failures) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any operation failed or any answer differed
// from the reference, 2 on bad usage or a set-up error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "workloads.h"

namespace {

// The program's inputs from the environment, pinned: a run with any of
// them unset or set differently would measure another configuration.
constexpr std::pair<const char*, const char*> kPinnedEnv[] = {
    {"GENBASE_SCALE", "0.08"},       {"GENBASE_TIMEOUT", "40"},
    {"GENBASE_KERNEL_BACKEND", "simd"}, {"GENBASE_TRACE_SAMPLE", "0"},
    {"GENBASE_PROFILE", "0"},        {"GENBASE_LOG", "warn"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--code-id <id>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

std::string JsonMetrics(const perfbench::Metrics& metrics, bool* finite) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    double value = m.value;
    if (!std::isfinite(value)) {
      *finite = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0 &&
                     config.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--code-id") {
      config.code_id = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      config.out_dir.empty()) {
    return Usage("--workload, --seed, --seconds (0, 600], --trace 0|1 and "
                 "--out-dir are required");
  }
  for (const auto& [name, pinned] : kPinnedEnv) {
    const char* set = std::getenv(name);
    if (set == nullptr || std::strcmp(set, pinned) != 0) {
      std::fprintf(stderr, "perfbench: refusing to run: %s=%s, pinned to %s\n",
                   name, set == nullptr ? "(unset)" : set, pinned);
      return 2;
    }
  }

  auto run = perfbench::RunWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 2;
  }
  perfbench::RunResult result = std::move(run).ValueOrDie();
  std::printf(
      "# stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"code_id\": \"%s\", "
      "\"kernel_backend\": \"%s\", \"nproc\": %u, \"scale\": %s, "
      "\"dataset\": \"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, git_sha.c_str(),
      config.code_id.c_str(),
      genbase::simd::BackendName(genbase::simd::ActiveBackend()),
      std::thread::hardware_concurrency(), kPinnedEnv[0].second,
      result.dataset.c_str());
  for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
  const perfbench::Metrics& metrics =
      config.trace ? result.per_layer : result.end_to_end;
  for (const auto& m : metrics) {
    std::printf("# metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  bool finite = true;
  const std::string json = JsonMetrics(metrics, &finite);
  if (!finite) {
    std::printf("# FAILED a metric was not a finite number\n");
    result.correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
