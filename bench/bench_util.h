#ifndef GENBASE_BENCH_BENCH_UTIL_H_
#define GENBASE_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "core/datasets.h"
#include "core/driver.h"
#include "core/engine.h"
#include "workload/report.h"

namespace genbase::bench {

/// Benchmark datasets are generated once per size at SimConfig scale.
const core::GenBaseData& CachedData(core::DatasetSize size);

/// Driver options from SimConfig (GENBASE_TIMEOUT).
core::DriverOptions DefaultDriverOptions();

/// Runs one (engine, query, size) cell. The engine instance is cached and
/// loaded once per (key, size); a failed load (e.g. R on the large dataset)
/// is reported as INF for every query — the paper's semantics for systems
/// that cannot hold the data.
core::CellResult RunSingleNodeCell(
    const std::string& engine_key,
    const std::function<std::unique_ptr<core::Engine>()>& factory,
    core::QueryId query, core::DatasetSize size);

/// As above for a multi-node configuration (cached per options + size).
core::CellResult RunClusterCell(const cluster::ClusterEngineOptions& options,
                                core::QueryId query, core::DatasetSize size);

/// Global collector so bench binaries can print paper-shaped grids after
/// google-benchmark has run all registered cells.
void RecordCell(const core::CellResult& cell);
const std::vector<core::CellResult>& RecordedCells();

/// Looks up a recorded cell's display string; "?" if absent.
std::string CellDisplay(const std::string& engine, core::QueryId query,
                        core::DatasetSize size, int nodes = 1);

/// Finds a recorded cell (nullptr if absent).
const core::CellResult* FindCell(const std::string& engine,
                                 core::QueryId query, core::DatasetSize size,
                                 int nodes = 1);

/// Prints the workload banner (scale, dims, timeout, model constants).
void PrintBanner(const char* figure);

/// One serving-scenario engine configuration. The lineup (ServingEngines)
/// is the subset of the paper's single-node configs that implement all five
/// queries natively: the serving scenario assumes full functionality, and a
/// mixed stream against Postgres/Hadoop configs would report errors, not
/// latency. Shared by fig6 and fig7 so the two figures cannot drift apart.
struct ServingEngineSpec {
  const char* key;
  const char* display;
  std::unique_ptr<core::Engine> (*factory)();
};
const std::vector<ServingEngineSpec>& ServingEngines();

/// Strips a `--flag=VALUE` (or `--flag VALUE`) pair out of argv — call
/// before benchmark::Initialize, which rejects flags it does not know — and
/// returns the value ("" when the flag is absent).
std::string ExtractFlagValue(int* argc, char** argv, const std::string& flag);

/// ExtractFlagValue for the shared `--json=PATH` report flag.
std::string ExtractJsonPath(int* argc, char** argv);

/// \brief Provenance stamped into every BENCH_/TRACE_/METRICS_ artifact so
/// the bench-history doctor can order runs and attribute regressions to a
/// commit and kernel variant.
struct RunStamp {
  std::string git_sha;         ///< GENBASE_GIT_SHA, else `git rev-parse`.
  std::string kernel_backend;  ///< simd::BackendName of the active backend.
  /// linalg::ActiveKernels().name: "avx512", "avx2" or "scalar". Runs on
  /// different sets are different series to the bench-history doctor.
  std::string kernel_set;
  std::string timestamp;       ///< ISO-8601 UTC at stamp time.
};

/// The current process's stamp (computed once).
const RunStamp& CurrentRunStamp();

/// The stamp as a JSON object: `{"git_sha":...,"kernel_backend":...,
/// "kernel_set":...,"timestamp":...}`.
std::string StampJson();

/// Observability dump destinations for a figure run (empty = skip).
struct ObsDumpPaths {
  std::string trace_path;    ///< Chrome trace_event JSON (+ .slow.jsonl).
  std::string metrics_path;  ///< MetricsRegistry JSON snapshot.
  std::string profile_path;  ///< Folded flame-graph stacks (PROFILE_*.folded).
};

/// Strips the shared `--trace=PATH` / `--metrics=PATH` / `--profile=PATH`
/// flags (call before benchmark::Initialize, like ExtractJsonPath). When
/// --metrics is absent, falls back to the GENBASE_METRICS_JSON environment
/// variable. `--profile=` additionally enables obs::Profiler for the run
/// and, unless GENBASE_TRACE_SAMPLE pinned a rate, raises trace sampling to
/// 1.0 so the folded output aggregates every request.
ObsDumpPaths ExtractObsPaths(int* argc, char** argv);

/// Writes the requested observability artifacts: drains the global tracer
/// once into `trace_path` (Chrome trace JSON, stamped) plus the slow-query
/// log next to it (trace path with a .slow.jsonl suffix), folds the same
/// spans into `profile_path` flame-graph stacks, and snapshots the global
/// metrics registry into `metrics_path` (wrapped with the stamp). Empty
/// paths skip; short writes are errors.
genbase::Status WriteObsDumps(const ObsDumpPaths& paths);

/// Dumps workload reports as one machine-readable JSON document
/// (`{"figure":…,"config":{scale,timeout},"reports":[…]}`), so perf
/// trajectory can be captured into BENCH_*.json artifacts. No-op ("" path)
/// when the caller ran without --json.
genbase::Status WriteJsonReports(
    const std::string& path, const std::string& figure,
    const std::vector<workload::WorkloadReport>& reports);

/// Shared workload-figure epilogue: dumps `reports` via WriteJsonReports
/// and converts (verification failures, dump status) into the process exit
/// code — nonzero on any failure, so CI smoke steps gate on end-to-end
/// correctness. One definition keeps fig6/fig7 exit policy in lockstep.
int FigureExitCode(const std::string& json_path, const std::string& figure,
                   const std::vector<workload::WorkloadReport>& reports,
                   int64_t verification_failures);

/// Formats seconds with the paper's INF convention.
std::string FormatSeconds(double s);

inline constexpr core::DatasetSize kBenchSizes[] = {
    core::DatasetSize::kSmall, core::DatasetSize::kMedium,
    core::DatasetSize::kLarge};

}  // namespace genbase::bench

#endif  // GENBASE_BENCH_BENCH_UTIL_H_
