#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "common/exec_context.h"
#include "core/config.h"
#include "core/driver.h"
#include "core/generator.h"
#include "core/reference.h"
#include "core/verify.h"
#include "loadgen.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"
#include "probes.h"
#include "serving/serving_stack.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace gc = genbase::core;
namespace gs = genbase::serving;
using genbase::ExecContext;

namespace {

constexpr double kScale = 0.08;
constexpr int kShards = 4;
constexpr int kUntimedReloads = 5;

// Fixed load constants. They never come from a probe of the machine or of
// the commit, so two commits always receive the same offered load.
struct WorkloadSpec {
  const char* name;
  gc::DatasetSize size;
  bool serving;             ///< false: a plan engine, called directly.
  bool open_loop;
  int threads;              ///< Closed-loop clients or open-loop senders.
  std::vector<MixEntry> mix;  ///< Every query; empty: Q1..Q5 round-robin.
  int variants;
  bool serving_tiers_on;    ///< Result cache, single flight, admission.
  double rate_qps;          ///< Open loop only.
  int64_t reload_every;     ///< Open loop: ops k * reload_every reload.
  int repeats;  ///< Set-ups, and quiet reloads, per run; each reports a median.
  int probe_reps;           ///< Repetitions of each traced layer probe.
};

// The fig7 serving mix.
const std::vector<MixEntry> kServingMix = {
    {gc::QueryId::kRegression, 6}, {gc::QueryId::kCovariance, 4},
    {gc::QueryId::kBiclustering, 1}, {gc::QueryId::kSvd, 3},
    {gc::QueryId::kStatistics, 6}};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"suite_medium", gc::DatasetSize::kMedium, false, false, 1, {}, 1,
       false, 0.0, 0, 15, 3},
      {"serve_cold", gc::DatasetSize::kSmall, true, false, 4, kServingMix, 8,
       false, 0.0, 0, 31, 5},
  };
  return specs;
}

// Hot serving: an open loop over a stack with every serving tier on and few
// variants, so nearly every request is a result-cache hit, with periodic
// reloads of the same data. A hit costs a few microseconds, and on a shared
// host the median hit moves by 2x from one process to the next, so no bound
// holds for it end to end: the traced run of serve_cold runs this traffic
// as a third pass and reports it as per-layer `hot.*` metrics. Its variants
// are a subset of serve_cold's, so serve_cold's truth covers it.
const WorkloadSpec kHotServing = {
    "hot_serving", gc::DatasetSize::kSmall, true, true, 4, kServingMix, 4,
    true, 400.0, 1000, 0, 5};
// A hot serving op slower than this misses goodput.
constexpr double kHotLatencyLimitS = 0.05;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// The system under test: one planned column store called directly, or a
// serving stack of planned column-store shards.
struct System {
  std::unique_ptr<gc::Engine> engine;
  std::unique_ptr<gs::ServingStack> stack;

  genbase::Status Reload(const gc::GenBaseData& data) {
    return stack ? stack->ReloadDataset(data) : engine->LoadDataset(data);
  }
};

genbase::Result<System> BuildSystem(const WorkloadSpec& spec,
                                    const gc::GenBaseData& data) {
  System system;
  if (!spec.serving) {
    system.engine = genbase::plan::CreatePlanStore();
    GENBASE_RETURN_NOT_OK(system.engine->LoadDataset(data));
    return system;
  }
  gs::ServingOptions options;
  options.shards = kShards;
  options.cache_enabled = spec.serving_tiers_on;
  options.single_flight = spec.serving_tiers_on;
  if (spec.serving_tiers_on) {
    options.admission.max_inflight = 4;
    options.admission.max_queue = 256;
    options.admission.max_queue_delay_s = 2.0;
  }
  GENBASE_ASSIGN_OR_RETURN(
      system.stack,
      gs::ServingStack::Create(options, genbase::plan::CreatePlanStore, data));
  return system;
}

using TruthKey = std::pair<gc::QueryId, int>;
using Truths = std::map<TruthKey, gc::QueryResult>;

struct OpSample {
  Op op;
  bool ok = false;
  double wall_s = 0.0;   ///< Latency, from the call (closed) or due (open).
  double call_s = 0.0;   ///< Wall of the entry-point call alone.
  double late_s = 0.0;   ///< Open loop: how late the sender issued the op.
  bool executed = false;  ///< Ran on an engine (not a hit, follower or shed).
  bool hit = false;
  bool coalesced = false;
  bool shed = false;
  double dm_s = 0.0;         ///< Measured engine data-management seconds.
  double analytics_s = 0.0;  ///< Measured engine analytics seconds.
  double modeled_s = 0.0;
  double queue_wait_s = 0.0;
  double stage[5] = {0, 0, 0, 0, 0};  ///< cache, flight, queue, dispatch, exec.
  std::string error;
};

constexpr const char* kStageNames[5] = {"cache", "flight", "queue", "dispatch",
                                        "execute"};

struct Pass {
  std::vector<OpSample> ops;  ///< Measured window only.
  std::vector<double> loaded_reload_s;  ///< Reload ops inside the window.
  std::vector<double> quiet_reload_s;   ///< Reloads after the window.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double modeled_s = 0.0;     ///< Warm-up ops: each (query, variant) once.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  genbase::plan::PlanStatsSnapshot plan;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunConfig& config,
         const gc::GenBaseData& data, const Truths& truths, System* system,
         SpanRecorder* spans)
      : spec_(spec),
        config_(config),
        data_(data),
        truths_(truths),
        system_(system),
        spans_(spans) {
    for (int v = 0; v < spec.variants; ++v) {
      gc::DriverOptions options;
      options.timeout_seconds = gc::SimConfig::Get().timeout_seconds;
      options.params = VariantParams(v);
      options_.push_back(options);
    }
  }

  Pass Run() {
    Pass pass;
    // Warm-up: every (query, variant) the schedule can issue, once.
    for (gc::QueryId q : gc::kAllQueries) {
      for (int v = 0; v < spec_.variants; ++v) {
        ExecContext ctx;
        Op op;
        op.query = q;
        op.variant = v;
        OpSample s = Execute(op, &ctx, std::nullopt);
        pass.modeled_s += s.modeled_s;
        Count(s, &pass);
      }
    }
    const genbase::plan::PlanStatsSnapshot plan_before =
        genbase::plan::PlanStatsSnapshot::Capture();
    const double cpu_before = CpuSeconds();
    std::vector<ExecContext> contexts(static_cast<size_t>(spec_.threads));
    std::mutex mu;
    if (spec_.open_loop) {
      const int64_t count =
          static_cast<int64_t>(std::llround(spec_.rate_qps * config_.seconds));
      const std::vector<double> send =
          PoissonArrivals(config_.seed, spec_.rate_qps, count);
      // Built before the window, so no op waits on schedule arithmetic.
      std::vector<Op> schedule;
      schedule.reserve(static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        schedule.push_back(MixOp(config_.seed, i, spec_.mix, spec_.variants));
      }
      std::vector<OpSample> ops(static_cast<size_t>(count));
      const auto is_reload = [&](int64_t i) {
        return i > 0 && i % spec_.reload_every == 0;
      };
      pass.wall_s = RunOpenLoop(
          spec_.threads, send, is_reload,
          [&](int t, int64_t i, Clock::time_point due) {
            OpSample& s = ops[static_cast<size_t>(i)];
            if (is_reload(i)) {
              s = Reload();
            } else {
              s = Execute(schedule[static_cast<size_t>(i)],
                          &contexts[static_cast<size_t>(t)], due);
            }
          });
      pass.ops = std::move(ops);
    } else {
      pass.wall_s = RunClosedLoop(
          spec_.threads, config_.seconds, [&](int c, int64_t i) {
            const Op op = spec_.mix.empty()
                              ? RoundRobinOp(config_.seed, i)
                              : MixOp(config_.seed, i, spec_.mix,
                                      spec_.variants);
            OpSample s =
                Execute(op, &contexts[static_cast<size_t>(c)], std::nullopt);
            std::lock_guard<std::mutex> lock(mu);
            pass.ops.push_back(std::move(s));
          });
    }
    pass.cpu_s = CpuSeconds() - cpu_before;
    pass.plan = genbase::plan::PlanStatsSnapshot::Capture() - plan_before;
    for (const OpSample& s : pass.ops) {
      Count(s, &pass);
      if (s.op.kind == Op::Kind::kReload) {
        pass.loaded_reload_s.push_back(s.wall_s);
      }
    }
    // Reloads timed apart from traffic: under load a rolling reload mostly
    // waits for in-flight queries to drain. The first few are not timed:
    // reload time falls over them (11 ms to 4 ms on medium) while the
    // allocator settles into reusing the freed tables.
    for (int r = 0; r < kUntimedReloads + spec_.repeats; ++r) {
      const OpSample s = Reload();
      Count(s, &pass);
      if (r >= kUntimedReloads) pass.quiet_reload_s.push_back(s.wall_s);
    }
    return pass;
  }

 private:
  static void Count(const OpSample& s, Pass* pass) {
    ++pass->attempted;
    if (!s.ok) {
      ++pass->failed;
      if (pass->errors.size() < 5) pass->errors.push_back(s.error);
    }
  }

  OpSample Reload() {
    OpSample s;
    s.op.kind = Op::Kind::kReload;
    Span span(spans_, "serving.reload");
    const Clock::time_point t0 = Clock::now();
    const genbase::Status st = system_->Reload(data_);
    s.wall_s = s.call_s = Since(t0);
    s.ok = st.ok();
    if (!s.ok) s.error = "reload: " + st.ToString();
    return s;
  }

  OpSample Execute(const Op& op, ExecContext* ctx,
                   std::optional<Clock::time_point> due) {
    OpSample s;
    s.op = op;
    Span op_span(spans_, "op");
    const gc::DriverOptions& options =
        options_[static_cast<size_t>(op.variant)];
    const Clock::time_point t0 = Clock::now();
    if (due.has_value()) {
      s.late_s = std::chrono::duration<double>(t0 - *due).count();
    }
    Clock::time_point t1;
    gc::CellResult cell;
    if (system_->stack == nullptr) {
      {
        Span call(spans_, "engine.run", op_span.id());
        cell = gc::RunCellWithContext(system_->engine.get(), op.query,
                                      spec_.size, options, ctx);
      }
      t1 = Clock::now();
      s.executed = true;
      const genbase::PhaseClock& clock = ctx->clock();
      s.dm_s = clock.measured(genbase::Phase::kDataManagement) +
               clock.measured(genbase::Phase::kGlue);
      s.analytics_s = clock.measured(genbase::Phase::kAnalytics);
    } else {
      gs::ServeResult served;
      {
        Span call(spans_, "serving.serve", op_span.id());
        served = system_->stack->Serve(op.query, spec_.size, options, ctx, due);
      }
      t1 = Clock::now();
      cell = std::move(served.cell);
      s.shed = served.shed;
      s.coalesced = served.coalesced;
      s.hit = served.cache_hit && !served.coalesced;
      s.executed = !served.cache_hit && !served.shed;
      s.queue_wait_s = served.admission_wait_s;
      using genbase::obs::RequestStage;
      s.stage[0] = served.stages[RequestStage::kCache];
      s.stage[1] = served.stages[RequestStage::kFlight];
      s.stage[2] = served.stages[RequestStage::kQueue];
      // The dispatch stage carries the modeled network round trip; only
      // the measured remainder belongs to a measured stage.
      s.stage[3] = std::max(
          0.0, served.stages[RequestStage::kDispatch] - cell.modeled_s);
      s.stage[4] = served.stages[RequestStage::kExecute];
      if (s.executed) {
        s.dm_s = std::max(0.0, cell.dm_s - cell.modeled_s);
        s.analytics_s = cell.analytics_s;
      }
    }
    s.call_s = std::chrono::duration<double>(t1 - t0).count();
    s.wall_s = due.has_value()
                   ? std::chrono::duration<double>(t1 - *due).count()
                   : s.call_s;
    s.modeled_s = cell.modeled_s;
    if (s.shed || !cell.supported || cell.infinite || !cell.status.ok()) {
      s.error = std::string(gc::QueryName(op.query)) + ": " +
                (s.shed ? "shed: " : "") + cell.status.ToString();
      return s;
    }
    Span verify(spans_, "verify.compare", op_span.id());
    const genbase::Status match = gc::CompareQueryResults(
        truths_.at({op.query, op.variant}), cell.result);
    s.ok = match.ok();
    if (!s.ok) {
      s.error = std::string(gc::QueryName(op.query)) + " variant " +
                std::to_string(op.variant) + ": " + match.ToString();
    }
    return s;
  }

  const WorkloadSpec& spec_;
  const RunConfig& config_;
  const gc::GenBaseData& data_;
  const Truths& truths_;
  System* system_;
  SpanRecorder* spans_;
  std::vector<gc::DriverOptions> options_;  ///< Per variant.
};

// Field `field` of every query op of `pass` that satisfies `pred`.
template <typename Pred, typename Field>
std::vector<double> Collect(const Pass& pass, Pred pred, Field field) {
  std::vector<double> out;
  for (const OpSample& s : pass.ops) {
    if (s.op.kind == Op::Kind::kQuery && pred(s)) out.push_back(field(s));
  }
  return out;
}

template <typename Pred>
double Share(const Pass& pass, Pred pred) {
  const auto all = Collect(pass, [](const OpSample&) { return true; },
                           [](const OpSample&) { return 0.0; });
  const auto hits = Collect(pass, pred, [](const OpSample&) { return 0.0; });
  return all.empty() ? 0.0
                     : static_cast<double>(hits.size()) /
                           static_cast<double>(all.size());
}

const auto kAny = [](const OpSample&) { return true; };
const auto kOk = [](const OpSample& s) { return s.ok; };
const auto kWall = [](const OpSample& s) { return s.wall_s; };
const auto kCall = [](const OpSample& s) { return s.call_s; };
const auto kExecuted = [](const OpSample& s) { return s.executed; };

struct SetupTimes {
  std::vector<double> generate_s, load_s, total_s;
};

Metrics EndToEnd(const SetupTimes& setup, const Pass& pass,
                 std::vector<std::string>* notes) {
  Metrics m;
  m.push_back({"setup_s", Median(setup.total_s), "s"});
  double suite = 0.0;
  Metrics per_query;
  for (gc::QueryId q : gc::kAllQueries) {
    const std::vector<double> w = Collect(
        pass, [q](const OpSample& s) { return s.ok && s.op.query == q; },
        kWall);
    const std::string name = "q" + std::to_string(static_cast<int>(q)) + "_s";
    per_query.push_back({name, Median(w), "s"});
    suite += Median(w);
    notes->push_back(name + ": " + std::to_string(w.size()) + " samples");
  }
  m.push_back({"suite_s", suite, "s"});
  m.insert(m.end(), per_query.begin(), per_query.end());
  const std::vector<double> all = Collect(pass, kOk, kWall);
  m.push_back({"throughput_qps",
               static_cast<double>(all.size()) / pass.wall_s, "1/s"});
  m.push_back({"latency_p50_s", Median(all), "s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  const int64_t n = static_cast<int64_t>(all.size());
  const double tail_p = HighestSupportedPercentile(n);
  char line[200];
  std::snprintf(line, sizeof(line),
                "latency: %lld ops; p%g %.6g s is the highest percentile "
                "with >= %lld samples beyond; p99 %s",
                static_cast<long long>(n), tail_p, Percentile(all, tail_p),
                static_cast<long long>(kTailMinBeyond),
                TailSupported(n, 99.0)
                    ? std::to_string(Percentile(all, 99.0)).c_str()
                    : "omitted");
  notes->push_back(line);
  std::snprintf(line, sizeof(line), "failed_frac: %lld / %lld = %.6f",
                static_cast<long long>(pass.failed),
                static_cast<long long>(pass.attempted),
                static_cast<double>(pass.failed) /
                    static_cast<double>(std::max<int64_t>(1, pass.attempted)));
  notes->push_back(line);
  return m;
}

Metrics PerLayer(const WorkloadSpec& spec, const SetupTimes& setup,
                 const Pass& untraced, const Pass& traced, double truth_s,
                 const std::vector<SpanRecord>& spans) {
  Metrics m;
  double phase_gap = 0.0;
  for (gc::QueryId q : gc::kAllQueries) {
    const auto executed = [q](const OpSample& s) {
      return s.ok && s.executed && s.op.query == q;
    };
    const double dm = Median(
        Collect(traced, executed, [](const OpSample& s) { return s.dm_s; }));
    const double an = Median(Collect(
        traced, executed, [](const OpSample& s) { return s.analytics_s; }));
    const double call = Median(Collect(traced, executed, kCall));
    const std::string prefix = "engine.q" + std::to_string(static_cast<int>(q));
    m.push_back({prefix + ".dm_s", dm, "s"});
    m.push_back({prefix + ".analytics_s", an, "s"});
    if (call > 0.0) {
      phase_gap = std::max(phase_gap, std::fabs(dm + an - call) / call);
    }
  }
  m.push_back({"engine.modeled_s", traced.modeled_s, "s"});
  m.push_back({"setup.generate_s", Median(setup.generate_s), "s"});
  m.push_back({"engine.load_s", Median(setup.load_s), "s"});

  const double compiles = static_cast<double>(traced.plan.compiles);
  const double plan_hits = static_cast<double>(traced.plan.cache_hits);
  m.push_back({"plan.compiles", compiles, "count"});
  m.push_back({"plan.cache_hit_ratio",
               plan_hits / std::max(1.0, compiles + plan_hits), "ratio"});
  m.push_back({"plan.compile_s",
               1e-9 * static_cast<double>(traced.plan.compile_ns) /
                   std::max(1.0, compiles),
               "s"});

  // Serving metrics of the workload's own traffic; a workload without a
  // serving tier reports 0.
  const double on = spec.serving ? 1.0 : 0.0;
  const std::vector<double> miss_s = Collect(traced, kExecuted, kCall);
  const std::vector<double> calls = Collect(traced, kAny, kCall);
  m.push_back({"serving.miss_s.p50", on * Median(miss_s), "s"});
  m.push_back({"serving.miss_s.p99", on * TailOrZero(miss_s, 99.0), "s"});
  double stage_median_sum = 0.0, stage_mean_sum = 0.0, execute_total = 0.0;
  for (int k = 0; k < 5; ++k) {
    const std::vector<double> v =
        Collect(traced, kAny, [k](const OpSample& s) { return s.stage[k]; });
    stage_median_sum += Median(v);
    stage_mean_sum += Mean(v);
    if (k == 4) execute_total = Mean(v) * static_cast<double>(v.size());
    m.push_back({std::string("serving.stage.") + kStageNames[k] + "_s",
                 Median(v), "s"});
  }
  m.push_back({"engine.reload_s", Median(traced.quiet_reload_s), "s"});
  m.push_back({"serving.shard_busy_frac",
               on * execute_total / (kShards * traced.wall_s), "ratio"});
  m.push_back({"reconcile.phase_gap_frac", phase_gap, "ratio"});
  m.push_back({"reconcile.stage_median_sum_frac",
               on * stage_median_sum / Median(calls), "ratio"});
  m.push_back({"reconcile.stage_mean_sum_frac",
               on * stage_mean_sum / Mean(calls), "ratio"});

  m.push_back({"proc.cpu_util", traced.cpu_s / traced.wall_s, "ratio"});
  m.push_back({"verify.truth_s", truth_s, "s"});
  m.push_back({"trace.overhead_frac",
               Median(calls) / Median(Collect(untraced, kAny, kCall)) - 1.0,
               "ratio"});
  const auto self = SelfSecondsByName(spans);
  const auto total = TotalSecondsByName(spans);
  const auto seconds = [](const std::map<std::string, double>& by_name,
                          const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second;
  };
  m.push_back({"trace.harness_self_frac",
               seconds(self, "op") / std::max(1e-12, seconds(total, "op")),
               "ratio"});
  m.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  const double compares = static_cast<double>(
      std::count_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
        return std::string_view(s.name) == "verify.compare";
      }));
  m.push_back({"verify.compare_s",
               seconds(total, "verify.compare") / std::max(1.0, compares),
               "s"});
  m.push_back({"e2e.latency_p99_s",
               TailOrZero(Collect(traced, kOk, kWall), 99.0), "s"});
  return m;
}

// The hot serving pass (kHotServing) of a traced serve_cold run; every
// metric is 0 when the run has none.
Metrics HotServing(const Pass* hot) {
  static const Pass kNone;
  const Pass& p = hot != nullptr ? *hot : kNone;
  const auto hit = [](const OpSample& s) { return s.hit; };
  const std::vector<double> hit_s = Collect(p, hit, kCall);
  const std::vector<double> latency = Collect(p, kOk, kWall);
  const double within_limit = static_cast<double>(
      Collect(p,
              [](const OpSample& s) {
                return s.ok && s.wall_s <= kHotLatencyLimitS;
              },
              kWall)
          .size());
  Metrics m;
  m.push_back({"hot.hit_ratio", Share(p, hit), "ratio"});
  m.push_back({"hot.coalesced_frac",
               Share(p, [](const OpSample& s) { return s.coalesced; }),
               "ratio"});
  m.push_back({"hot.hit_s.p50", Median(hit_s), "s"});
  m.push_back({"hot.hit_s.p99", TailOrZero(hit_s, 99.0), "s"});
  m.push_back({"hot.miss_s.p50", Median(Collect(p, kExecuted, kCall)), "s"});
  m.push_back(
      {"hot.queue_wait_s.p99",
       TailOrZero(Collect(p, kAny,
                          [](const OpSample& s) { return s.queue_wait_s; }),
                  99.0),
       "s"});
  m.push_back({"hot.shed_frac",
               Share(p, [](const OpSample& s) { return s.shed; }), "ratio"});
  m.push_back({"hot.reload_s", Median(p.loaded_reload_s), "s"});
  m.push_back(
      {"hot.late_p99_s",
       TailOrZero(
           Collect(p, kAny, [](const OpSample& s) { return s.late_s; }),
           99.0),
       "s"});
  m.push_back({"hot.latency_p50_s", Median(latency), "s"});
  m.push_back({"hot.latency_p99_s", TailOrZero(latency, 99.0), "s"});
  m.push_back({"hot.goodput_qps",
               p.wall_s > 0.0 ? within_limit / p.wall_s : 0.0, "1/s"});
  return m;
}

// Flags a run whose modeled seconds differ from the previous run of the same
// code, workload and seed: modeled time is a pure function of the inputs.
std::string CheckModeled(const RunConfig& config, double modeled_s) {
  char value[64];
  std::snprintf(value, sizeof(value), "%.17g", modeled_s);
  const std::string path = config.out_dir + "/modeled-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".txt";
  std::string note = std::string("engine.modeled_s ") + value;
  std::ifstream in(path);
  std::string prev_code, prev_value;
  if (in >> prev_code >> prev_value && prev_code == config.code_id) {
    note += prev_value == value
                ? " (matches the previous run of this code)"
                : " FLAG: previous run of this code modeled " + prev_value;
  }
  std::ofstream(path) << config.code_id << " " << value << "\n";
  return note;
}

}  // namespace

genbase::Result<RunResult> RunWorkload(const RunConfig& config) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& s : Specs()) {
    if (config.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    return genbase::Status::InvalidArgument("unknown workload " +
                                            config.workload);
  }
  RunResult result;
  // The dataset is the generator's canonical instance for every run seed,
  // as GenBase fixes one dataset per size: with seeded data the number of
  // selected genes and patients, and so the work of every query, would
  // change from seed to seed. The seed drives what the benchmark generates:
  // query order, parameter variants and arrival times.
  const gc::GeneratorOptions gen;

  // Set-up: generate the dataset and load it, several times.
  SetupTimes setup;
  gc::GenBaseData data;
  System system;
  for (int i = 0; i < spec->repeats; ++i) {
    system = System();
    data = gc::GenBaseData();
    const Clock::time_point t0 = Clock::now();
    GENBASE_ASSIGN_OR_RETURN(data,
                             gc::GenerateDataset(spec->size, kScale, gen));
    const double generated = Since(t0);
    GENBASE_ASSIGN_OR_RETURN(system, BuildSystem(*spec, data));
    const double total = Since(t0);
    setup.generate_s.push_back(generated);
    setup.load_s.push_back(total - generated);
    setup.total_s.push_back(total);
  }
  result.dataset = std::string(gc::DatasetSizeName(spec->size)) + " " +
                   std::to_string(data.dims.genes) + "x" +
                   std::to_string(data.dims.patients);

  // Reference truth for every (query, variant) the schedule can issue,
  // outside set-up and every timed window.
  Truths truths;
  const Clock::time_point truth_t0 = Clock::now();
  for (gc::QueryId q : gc::kAllQueries) {
    for (int v = 0; v < spec->variants; ++v) {
      GENBASE_ASSIGN_OR_RETURN(
          gc::QueryResult truth,
          gc::RunReferenceQuery(q, data, VariantParams(v)));
      truths.emplace(TruthKey{q, v}, std::move(truth));
    }
  }
  const double truth_s = Since(truth_t0);

  // A traced run splits the run's seconds between an untraced pass, a
  // traced pass and, on serve_cold, a traced hot serving pass, so it takes
  // about as long as an untraced run.
  const bool hot_pass = config.trace && spec->serving;
  RunConfig pass_config = config;
  if (config.trace) pass_config.seconds /= hot_pass ? 3 : 2;
  const Pass untraced =
      Runner(*spec, pass_config, data, truths, &system, nullptr).Run();
  result.attempted += untraced.attempted;
  result.failed += untraced.failed;
  result.notes.push_back(CheckModeled(config, untraced.modeled_s));
  for (const auto& e : untraced.errors) result.notes.push_back("FAILED " + e);

  if (!config.trace) {
    result.end_to_end = EndToEnd(setup, untraced, &result.notes);
  } else {
    // A fresh system, so the traced pass starts from the state the untraced
    // pass started from.
    system = System();
    GENBASE_ASSIGN_OR_RETURN(system, BuildSystem(*spec, data));
    SpanRecorder recorder(true);
    const Pass traced =
        Runner(*spec, pass_config, data, truths, &system, &recorder).Run();
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    for (const auto& e : traced.errors) result.notes.push_back("FAILED " + e);
    std::optional<Pass> hot;
    if (hot_pass) {
      GENBASE_ASSIGN_OR_RETURN(system, BuildSystem(kHotServing, data));
      hot = Runner(kHotServing, pass_config, data, truths, &system, &recorder)
                .Run();
      result.attempted += hot->attempted;
      result.failed += hot->failed;
      for (const auto& e : hot->errors) result.notes.push_back("FAILED " + e);
    }
    system = System();
    Metrics probes;
    GENBASE_RETURN_NOT_OK(
        RunLayerProbes(data, spec->probe_reps, &recorder, &probes));
    const std::vector<SpanRecord> spans = recorder.Collect();
    result.per_layer =
        PerLayer(*spec, setup, untraced, traced, truth_s, spans);
    const Metrics hot_metrics = HotServing(hot ? &*hot : nullptr);
    result.per_layer.insert(result.per_layer.end(), hot_metrics.begin(),
                            hot_metrics.end());
    result.per_layer.insert(result.per_layer.end(), probes.begin(),
                            probes.end());
    const std::string span_path = config.out_dir + "/spans-" +
                                  config.workload + "-seed" +
                                  std::to_string(config.seed) + ".tsv";
    if (!WriteSpans(span_path, spans)) {
      return genbase::Status::IOError("cannot write " + span_path);
    }
    result.notes.push_back("spans: " + span_path);
  }
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
