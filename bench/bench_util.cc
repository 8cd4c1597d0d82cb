#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>

#include "common/check.h"
#include "common/simd.h"
#include "core/config.h"
#include "core/generator.h"
#include "engine/engines.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "plan/plan_engine.h"
#include "workload/report.h"

namespace genbase::bench {

namespace {

struct LoadedEngine {
  std::unique_ptr<core::Engine> engine;
  genbase::Status load_status;
};

std::map<int, core::GenBaseData>& DataCache() {
  static auto* cache = new std::map<int, core::GenBaseData>();
  return *cache;
}

std::map<std::string, LoadedEngine>& EngineCache() {
  static auto* cache = new std::map<std::string, LoadedEngine>();
  return *cache;
}

std::vector<core::CellResult>& Cells() {
  static auto* cells = new std::vector<core::CellResult>();
  return *cells;
}

core::CellResult RunOnCached(const std::string& cache_key,
                             const std::function<std::unique_ptr<
                                 core::Engine>()>& factory,
                             core::QueryId query, core::DatasetSize size,
                             int nodes) {
  auto& slot = EngineCache()[cache_key];
  if (slot.engine == nullptr) {
    slot.engine = factory();
    slot.load_status = slot.engine->LoadDataset(CachedData(size));
  }
  core::CellResult cell;
  if (!slot.load_status.ok()) {
    cell.engine = slot.engine->name();
    cell.query = query;
    cell.size = size;
    cell.status = slot.load_status;
    cell.infinite = slot.load_status.IsResourceFailure();
    cell.supported = slot.engine->SupportsQuery(query);
  } else {
    cell = core::RunCell(slot.engine.get(), query, size,
                         DefaultDriverOptions());
  }
  cell.nodes = nodes;
  RecordCell(cell);
  return cell;
}

}  // namespace

const core::GenBaseData& CachedData(core::DatasetSize size) {
  auto& cache = DataCache();
  const int key = static_cast<int>(size);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto data =
        core::GenerateDataset(size, core::SimConfig::Get().scale);
    GENBASE_CHECK(data.ok());
    it = cache.emplace(key, std::move(data).ValueOrDie()).first;
  }
  return it->second;
}

core::DriverOptions DefaultDriverOptions() {
  core::DriverOptions options;
  options.timeout_seconds = core::SimConfig::Get().timeout_seconds;
  return options;
}

core::CellResult RunSingleNodeCell(
    const std::string& engine_key,
    const std::function<std::unique_ptr<core::Engine>()>& factory,
    core::QueryId query, core::DatasetSize size) {
  const std::string cache_key =
      engine_key + "@" + core::DatasetSizeName(size);
  return RunOnCached(cache_key, factory, query, size, 1);
}

core::CellResult RunClusterCell(const cluster::ClusterEngineOptions& options,
                                core::QueryId query, core::DatasetSize size) {
  const std::string cache_key =
      options.name + (options.phi_offload ? "+phi" : "") + "/n" +
      std::to_string(options.nodes) + "@" + core::DatasetSizeName(size);
  return RunOnCached(
      cache_key,
      [&options]() -> std::unique_ptr<core::Engine> {
        return std::make_unique<cluster::ClusterEngine>(options);
      },
      query, size, options.nodes);
}

void RecordCell(const core::CellResult& cell) { Cells().push_back(cell); }

const std::vector<core::CellResult>& RecordedCells() { return Cells(); }

const core::CellResult* FindCell(const std::string& engine,
                                 core::QueryId query, core::DatasetSize size,
                                 int nodes) {
  for (const auto& c : Cells()) {
    if (c.engine == engine && c.query == query && c.size == size &&
        c.nodes == nodes) {
      return &c;
    }
  }
  return nullptr;
}

std::string CellDisplay(const std::string& engine, core::QueryId query,
                        core::DatasetSize size, int nodes) {
  const core::CellResult* c = FindCell(engine, query, size, nodes);
  return c == nullptr ? "?" : c->Display();
}

std::string FormatSeconds(double s) { return workload::FormatSeconds(s); }

const std::vector<ServingEngineSpec>& ServingEngines() {
  static const auto* engines = new std::vector<ServingEngineSpec>{
      {"scidb", "SciDB", engine::CreateSciDb},
      {"col_udf", "Column store + UDFs", engine::CreateColumnStoreUdf},
      {"col_r", "Column store + R", engine::CreateColumnStoreR},
      {"plan", "Planned column store", plan::CreatePlanStore},
  };
  return *engines;
}

std::string ExtractFlagValue(int* argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  std::string value;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      continue;
    }
    if (arg == flag && i + 1 < *argc) {
      value = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;  // Keep the argv null-termination guarantee.
  return value;
}

std::string ExtractJsonPath(int* argc, char** argv) {
  return ExtractFlagValue(argc, argv, "--json");
}

namespace {

std::string DetectGitSha() {
  if (const char* env = std::getenv("GENBASE_GIT_SHA")) {
    if (env[0] != '\0') return env;
  }
  std::string sha;
#if defined(__linux__) || defined(__APPLE__)
  if (std::FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    pclose(p);
  }
#endif
  return sha.empty() ? "unknown" : sha;
}

std::string IsoUtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

const RunStamp& CurrentRunStamp() {
  static const RunStamp* stamp = [] {
    auto* s = new RunStamp();
    s->git_sha = DetectGitSha();
    s->kernel_backend = simd::BackendName(simd::ActiveBackend());
    s->kernel_set = linalg::ActiveKernels().name;
    s->timestamp = IsoUtcNow();
    return s;
  }();
  return *stamp;
}

std::string StampJson() {
  const RunStamp& s = CurrentRunStamp();
  // All fields are shell-safe strings (hex sha, backend and kernel-set
  // identifiers, ISO timestamp) — no escaping needed.
  return "{\"git_sha\":\"" + s.git_sha + "\",\"kernel_backend\":\"" +
         s.kernel_backend + "\",\"kernel_set\":\"" + s.kernel_set +
         "\",\"timestamp\":\"" + s.timestamp + "\"}";
}

ObsDumpPaths ExtractObsPaths(int* argc, char** argv) {
  ObsDumpPaths paths;
  paths.trace_path = ExtractFlagValue(argc, argv, "--trace");
  paths.metrics_path = ExtractFlagValue(argc, argv, "--metrics");
  paths.profile_path = ExtractFlagValue(argc, argv, "--profile");
  if (paths.metrics_path.empty()) {
    if (const char* env = std::getenv("GENBASE_METRICS_JSON")) {
      paths.metrics_path = env;
    }
  }
  if (!paths.profile_path.empty()) {
    obs::Profiler::SetEnabled(true);
    // The folded output aggregates spans, so profile runs want them all —
    // unless the caller pinned an explicit sampling rate for an experiment.
    if (std::getenv("GENBASE_TRACE_SAMPLE") == nullptr) {
      obs::Tracer::Global().set_sample_rate(1.0);
    }
  }
  return paths;
}

genbase::Status WriteObsDumps(const ObsDumpPaths& paths) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!paths.trace_path.empty() || !paths.profile_path.empty()) {
    // One drain feeds both artifacts: TakeCollected empties the collector,
    // so trace and profile must come from the same snapshot.
    const std::vector<obs::Span> spans = tracer.TakeCollected();
    if (!paths.trace_path.empty()) {
      if (!obs::WriteTextFile(paths.trace_path,
                              obs::ChromeTraceJson(spans, StampJson()))) {
        return genbase::Status::IOError("cannot write trace file: " +
                                        paths.trace_path);
      }
      std::printf("# trace written to %s (%zu spans, %lld dropped)\n",
                  paths.trace_path.c_str(), spans.size(),
                  static_cast<long long>(tracer.spans_dropped()));
      // The slow-query log rides along with the trace: same base name, so
      // the two artifacts travel together through CI uploads.
      std::string slow_path = paths.trace_path;
      const std::string suffix = ".json";
      if (slow_path.size() >= suffix.size() &&
          slow_path.compare(slow_path.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
        slow_path.resize(slow_path.size() - suffix.size());
      }
      slow_path += ".slow.jsonl";
      const std::vector<obs::SlowQueryRecord> slow = tracer.TakeSlowQueries();
      if (!obs::WriteTextFile(slow_path, obs::SlowQueryJsonl(slow))) {
        return genbase::Status::IOError("cannot write slow-query log: " +
                                        slow_path);
      }
      std::printf("# slow-query log written to %s (%zu records)\n",
                  slow_path.c_str(), slow.size());
    }
    if (!paths.profile_path.empty()) {
      const std::string folded = obs::FoldedStacks(spans);
      if (!obs::WriteTextFile(paths.profile_path, folded)) {
        return genbase::Status::IOError("cannot write profile file: " +
                                        paths.profile_path);
      }
      std::printf("# folded stacks written to %s (%zu spans)\n",
                  paths.profile_path.c_str(), spans.size());
    }
  }
  if (!paths.metrics_path.empty()) {
    const std::string wrapped = "{\"stamp\":" + StampJson() + ",\"metrics\":" +
                                obs::MetricsRegistry::Global().ToJson() + "}";
    if (!obs::WriteTextFile(paths.metrics_path, wrapped)) {
      return genbase::Status::IOError("cannot write metrics file: " +
                                      paths.metrics_path);
    }
    std::printf("# metrics written to %s\n", paths.metrics_path.c_str());
  }
  return genbase::Status::OK();
}

genbase::Status WriteJsonReports(
    const std::string& path, const std::string& figure,
    const std::vector<workload::WorkloadReport>& reports) {
  if (path.empty()) return genbase::Status::OK();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return genbase::Status::IOError("cannot open json report file: " + path);
  }
  const auto& c = core::SimConfig::Get();
  std::fprintf(f,
               "{\"figure\":\"%s\",\"stamp\":%s,"
               "\"config\":{\"scale\":%.17g,"
               "\"timeout_seconds\":%.17g},\"reports\":[",
               figure.c_str(), StampJson().c_str(), c.scale,
               c.timeout_seconds);
  for (size_t i = 0; i < reports.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",", reports[i].ToJson().c_str());
  }
  std::fprintf(f, "]}\n");
  // A truncated artifact that CI happily uploads is worse than a failed
  // step: surface short writes (disk full, I/O error) as a failure.
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    return genbase::Status::IOError("short write to json report file: " +
                                    path);
  }
  std::printf("# json report written to %s (%zu runs)\n", path.c_str(),
              reports.size());
  return genbase::Status::OK();
}

int FigureExitCode(const std::string& json_path, const std::string& figure,
                   const std::vector<workload::WorkloadReport>& reports,
                   int64_t verification_failures) {
  const genbase::Status json =
      WriteJsonReports(json_path, figure, reports);
  if (!json.ok()) {
    std::fprintf(stderr, "%s\n", json.ToString().c_str());
    return 1;
  }
  return verification_failures == 0 ? 0 : 1;
}

void PrintBanner(const char* figure) {
  const auto& c = core::SimConfig::Get();
  std::printf("# GenBase reproduction — %s\n", figure);
  std::printf(
      "# scale=%.3g (paper dims x scale), timeout=%.0fs (paper: 7200s)\n",
      c.scale, c.timeout_seconds);
  for (core::DatasetSize s : kBenchSizes) {
    const core::DatasetDims d = core::DimsFor(s, c.scale);
    std::printf("#   %-6s: %lld genes x %lld patients (paper: %s)\n",
                core::DatasetSizeName(s),
                static_cast<long long>(d.genes),
                static_cast<long long>(d.patients),
                s == core::DatasetSize::kSmall    ? "5k x 5k"
                : s == core::DatasetSize::kMedium ? "15k x 20k"
                                                  : "30k x 40k");
  }
  std::printf(
      "# modeled constants: net=%.0fMB/s lat=%.0fus, MR job=%.2gs, "
      "UDF call=%.1gms, plpython cell=%.3gns, Phi gemm x%.2g bw x%.2g "
      "pcie=%.0fGB/s\n",
      c.net_bandwidth_bytes_per_s / 1e6, c.net_latency_s * 1e6,
      c.mr_job_startup_s, c.udf_invocation_overhead_s * 1e3,
      c.interpreted_cell_overhead_s * 1e9, c.phi_gemm_speedup,
      c.phi_bandwidth_speedup, c.phi_transfer_bytes_per_s / 1e9);
}

}  // namespace genbase::bench
