#include "workload/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/driver.h"
#include "core/queries.h"
#include "core/reference.h"
#include "core/verify.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "plan/plan_stats.h"

namespace genbase::workload {

namespace {

using Clock = std::chrono::steady_clock;

/// Tail-keep caps: flagged requests (shed / stale tripwire / deadline miss /
/// verify failure) per client and after the cross-client merge, plus the
/// slowest-N successful requests. Small fixed bounds so a pathological run
/// (everything shed) cannot balloon the slow-query log.
constexpr size_t kMaxFlaggedPerClient = 8;
constexpr size_t kSlowestPerClient = 4;
constexpr size_t kMaxFlaggedTotal = 32;
constexpr size_t kSlowestTotal = 8;

/// Per-client accumulation; merged into the report after each phase so the
/// hot path takes no locks.
struct ClientState {
  ExecContext ctx;
  OpStats total;
  std::map<core::QueryId, OpStats> per_query;
  /// Tail-keep candidates, merged and re-capped by FlushTailKept.
  std::vector<obs::SlowQueryRecord> flagged;
  std::vector<obs::SlowQueryRecord> slowest;  ///< Desc by latency, capped.
};

void RecordOutcome(const WorkloadRunner::OpOutcome& outcome, bool mismatched,
                   core::QueryId query, ClientState* state) {
  // Classify once (verification already ran in the client loop, where it
  // could be timed as the verify stage); the loop below only bumps counters
  // into the run-total and per-query aggregates.
  const core::CellResult& cell = outcome.cell;
  const bool failed = !outcome.shed && !cell.infinite &&
                      (!cell.supported || !cell.status.ok());
  const bool succeeded = !outcome.shed && !cell.infinite && !failed;
  OpStats& q = state->per_query[query];
  for (OpStats* stats : {&state->total, &q}) {
    stats->ops += 1;
    if (outcome.shed) {
      // A shed op never executed: it contributes to the offered load and to
      // its shed counter, nothing else.
      stats->shed_timeout += outcome.shed_timeout ? 1 : 0;
      stats->shed_queue_full += outcome.shed_timeout ? 0 : 1;
      continue;
    }
    stats->dm_s += cell.dm_s;
    stats->analytics_s += cell.analytics_s;
    stats->glue_s += cell.glue_s;
    stats->modeled_s += cell.modeled_s;
    stats->infs += cell.infinite ? 1 : 0;
    stats->errors += failed ? 1 : 0;
    stats->verify_failures += mismatched ? 1 : 0;
    if (succeeded) {
      // Only successful operations enter the latency distributions: an
      // unsupported/errored op completes in ~0s and an INF op's time is
      // censored by the budget — recording either would drag p50 down or
      // up artificially. Failures are visible in their own counters.
      stats->latency.Record(outcome.queue_delay_s + cell.total_s);
      stats->queue_delay.Record(outcome.queue_delay_s);
      for (int s = 0; s < obs::kNumRequestStages; ++s) {
        stats->stage[s].Record(outcome.stages.s[s]);
        stats->stage_wall_s[s] += outcome.stages.s[s];
        stats->stage_cpu_s[s] += outcome.stages.cpu[s];
      }
      stats->e2e_latency.Record(outcome.queue_delay_s + cell.total_s +
                                outcome.stages[obs::RequestStage::kVerify]);
    }
  }
}

/// Tail-based keep, per-client half: remember every flagged request (shed /
/// stale tripwire / deadline miss / verify failure / retried / hedged) up to
/// a small cap, and
/// the client's slowest successful requests, so interesting tails survive
/// even when head sampling skipped them.
void KeepTailCandidates(const WorkloadRunner::OpOutcome& outcome,
                        bool mismatched, const ScheduledOp& op,
                        uint64_t trace_id, double start_s,
                        const std::string& workload, ClientState* state) {
  const core::CellResult& cell = outcome.cell;
  const bool deadline_missed = !outcome.shed && cell.infinite;
  const bool failed = !outcome.shed && !cell.infinite &&
                      (!cell.supported || !cell.status.ok());
  const bool succeeded = !outcome.shed && !cell.infinite && !failed;
  const bool flagged = outcome.shed || outcome.stale_tripwire ||
                       deadline_missed || mismatched || outcome.retries > 0 ||
                       outcome.hedged;
  if (!flagged && !succeeded) return;
  const double e2e_s = outcome.queue_delay_s + cell.total_s +
                       outcome.stages[obs::RequestStage::kVerify];
  const auto make_record = [&] {
    obs::SlowQueryRecord rec;
    rec.trace_id = trace_id;
    rec.workload = workload;
    rec.query = core::QueryName(op.query);
    rec.variant = op.variant;
    rec.class_id = static_cast<int>(op.query);
    rec.start_s = start_s;
    rec.latency_s = e2e_s;
    rec.stages = outcome.stages;
    rec.alloc_delta_bytes = outcome.alloc_delta_bytes;
    rec.shed = outcome.shed;
    rec.stale_tripwire = outcome.stale_tripwire;
    rec.deadline_missed = deadline_missed;
    rec.verify_failed = mismatched;
    rec.retries = outcome.retries;
    rec.hedged = outcome.hedged;
    return rec;
  };
  if (flagged) {
    if (state->flagged.size() < kMaxFlaggedPerClient) {
      state->flagged.push_back(make_record());
    }
    return;
  }
  std::vector<obs::SlowQueryRecord>& slowest = state->slowest;
  if (slowest.size() < kSlowestPerClient ||
      e2e_s > slowest.back().latency_s) {
    slowest.push_back(make_record());
    std::sort(slowest.begin(), slowest.end(),
              [](const obs::SlowQueryRecord& a,
                 const obs::SlowQueryRecord& b) {
                return a.latency_s > b.latency_s;
              });
    if (slowest.size() > kSlowestPerClient) slowest.pop_back();
  }
}

/// Tail-based keep, merge half: cap the union of per-client candidates,
/// write the slow-query log, and synthesize spans (from the exact
/// StageSeconds every request carries) for kept requests head sampling
/// skipped — so every kept request is visible in the exported trace.
void FlushTailKept(std::vector<ClientState>* clients) {
  std::vector<obs::SlowQueryRecord> kept;
  std::vector<obs::SlowQueryRecord> slow;
  for (ClientState& state : *clients) {
    for (obs::SlowQueryRecord& rec : state.flagged) {
      if (kept.size() < kMaxFlaggedTotal) kept.push_back(std::move(rec));
    }
    for (obs::SlowQueryRecord& rec : state.slowest) {
      slow.push_back(std::move(rec));
    }
    state.flagged.clear();
    state.slowest.clear();
  }
  std::sort(slow.begin(), slow.end(),
            [](const obs::SlowQueryRecord& a, const obs::SlowQueryRecord& b) {
              return a.latency_s > b.latency_s;
            });
  if (slow.size() > kSlowestTotal) slow.resize(kSlowestTotal);
  for (obs::SlowQueryRecord& rec : slow) {
    rec.slowest = true;
    kept.push_back(std::move(rec));
  }
  obs::Tracer& tracer = obs::Tracer::Global();
  const double rate = tracer.sample_rate();
  for (obs::SlowQueryRecord& rec : kept) {
    if (!obs::TraceSampled(rec.trace_id, rate)) {
      // Rebuild the request's spans from its stage breakdown (stages are
      // laid out sequentially — their real overlap is unknown, their
      // durations are exact). Span ids restart at 1: the trace was not
      // head-sampled, so no live spans share its id space.
      obs::Span root;
      root.trace_id = rec.trace_id;
      root.span_id = 1;
      root.name = "request";
      root.start_s = rec.start_s;
      root.dur_s = rec.latency_s;
      root.tid = obs::Tracer::ThreadOrdinal();
      root.synthetic = true;
      root.SetDetail(rec.query);
      tracer.Record(root);
      double t = rec.start_s;
      uint64_t next_span_id = 2;
      for (int s = 0; s < obs::kNumRequestStages; ++s) {
        if (rec.stages.s[s] <= 0) continue;
        obs::Span span;
        span.trace_id = rec.trace_id;
        span.span_id = next_span_id++;
        span.parent_id = 1;
        span.name = obs::RequestStageName(static_cast<obs::RequestStage>(s));
        span.start_s = t;
        span.dur_s = rec.stages.s[s];
        span.tid = root.tid;
        span.synthetic = true;
        tracer.Record(span);
        t += rec.stages.s[s];
      }
    }
    tracer.LogSlowQuery(std::move(rec));
  }
}

}  // namespace

WorkloadRunner::WorkloadRunner(WorkloadSpec spec) : spec_(std::move(spec)) {}

genbase::Status WorkloadRunner::EnsureTruths(
    const core::GenBaseData& data, const std::vector<ScheduledOp>& schedule) {
  if (!spec_.verify) return genbase::Status::OK();
  // Ground truth once per distinct (query, variant) in the measured phase
  // (warm-up results are discarded, so they need no truth), skipping pairs
  // the caller already provided via set_ground_truth*.
  for (size_t i = static_cast<size_t>(spec_.warmup_ops); i < schedule.size();
       ++i) {
    const TruthKey key{schedule[i].query, schedule[i].variant};
    if (truths_.count(key) != 0) continue;
    auto truth = core::RunReferenceQuery(
        key.first, data, VariantParams(spec_.params, key.second));
    if (!truth.ok()) return truth.status();
    truths_.emplace(key, std::move(truth).ValueOrDie());
  }
  return genbase::Status::OK();
}

genbase::Result<WorkloadReport> WorkloadRunner::Run(
    core::Engine* engine, const core::GenBaseData& data, bool already_loaded) {
  GENBASE_RETURN_NOT_OK(spec_.Validate());
  if (!already_loaded) {
    GENBASE_RETURN_NOT_OK(engine->LoadDataset(data));
  }
  const std::vector<ScheduledOp> schedule = BuildSchedule(spec_);
  GENBASE_RETURN_NOT_OK(EnsureTruths(data, schedule));

  return RunScheduled(
      engine->name(), /*shards=*/1, /*stack=*/nullptr, schedule,
      [engine, this](const ScheduledOp& op,
                     const core::DriverOptions& options,
                     std::optional<Clock::time_point>, ExecContext* ctx) {
        OpOutcome outcome;
        obs::ScopedSpan span("execute");
        const double exec_start_s =
            span.active() ? obs::Tracer::Global().NowSeconds() : 0.0;
        const double exec_cpu_begin = obs::Profiler::CpuBegin();
        {
          obs::ScopedExecutePerf exec_perf;
          outcome.cell = core::RunCellWithContext(engine, op.query,
                                                  spec_.size, options, ctx);
        }
        // Direct-to-engine: the whole cell is the execute stage.
        outcome.stages[obs::RequestStage::kExecute] = outcome.cell.total_s;
        outcome.stages.Cpu(obs::RequestStage::kExecute) =
            obs::Profiler::CpuDelta(exec_cpu_begin);
        if (span.active()) {
          // PhaseClock bridge: the cell's phase split as sequential child
          // spans (dm excludes glue, which PhaseClock nests inside it).
          double t = exec_start_s;
          const auto emit = [&t](const char* name, double dur_s) {
            if (dur_s > 0) {
              obs::EmitChildSpan(name, t, dur_s);
              t += dur_s;
            }
          };
          emit("data_management",
               std::max(0.0, outcome.cell.dm_s - outcome.cell.glue_s));
          emit("analytics", outcome.cell.analytics_s);
          emit("glue", outcome.cell.glue_s);
        }
        return outcome;
      });
}

genbase::Result<WorkloadReport> WorkloadRunner::Run(
    serving::ServingStack* stack, const core::GenBaseData& data) {
  GENBASE_RETURN_NOT_OK(spec_.Validate());
  const std::vector<ScheduledOp> schedule = BuildSchedule(spec_);
  GENBASE_RETURN_NOT_OK(EnsureTruths(data, schedule));

  return RunScheduled(
      stack->engine_name(), stack->shards(), stack, schedule,
      [stack, this](const ScheduledOp& op, const core::DriverOptions& options,
                    std::optional<Clock::time_point> arrival,
                    ExecContext* ctx) {
        const serving::ServeResult served =
            stack->Serve(op.query, spec_.size, options, ctx, arrival);
        OpOutcome outcome;
        outcome.cell = served.cell;
        outcome.shed = served.shed;
        outcome.shed_timeout =
            served.admission == serving::AdmissionOutcome::kShedTimeout;
        outcome.queue_delay_s = served.admission_wait_s;
        outcome.stages = served.stages;
        outcome.stale_tripwire = served.stale_tripwire;
        outcome.retries = served.retries;
        outcome.hedged = served.hedged;
        return outcome;
      });
}

genbase::Result<WorkloadReport> WorkloadRunner::RunScheduled(
    const std::string& engine_name, int shards, serving::ServingStack* stack,
    const std::vector<ScheduledOp>& schedule, const Executor& exec) {
  const size_t warmup_end = static_cast<size_t>(spec_.warmup_ops);

  // Per-variant driver options, precomputed once.
  std::vector<core::DriverOptions> variant_options(
      static_cast<size_t>(spec_.param_variants));
  for (int v = 0; v < spec_.param_variants; ++v) {
    variant_options[static_cast<size_t>(v)].timeout_seconds =
        spec_.timeout_seconds;
    variant_options[static_cast<size_t>(v)].params =
        VariantParams(spec_.params, v);
  }

  const bool open_loop = spec_.model != ClientModel::kClosedLoop;
  std::vector<ClientState> clients(spec_.clients);
  ThreadPool pool(spec_.clients);

  // One client loop over a [begin, end) slice of the schedule. Clients claim
  // ops through `cursor`; open-loop clients additionally wait for each op's
  // arrival offset (relative to `phase_start`) before issuing.
  auto run_phase = [&](size_t begin, size_t end, bool record) {
    std::atomic<size_t> cursor{begin};
    const auto phase_start = Clock::now();
    for (int c = 0; c < spec_.clients; ++c) {
      ClientState* state = &clients[c];
      pool.Submit([&, state] {
        bool first_op = true;
        for (;;) {
          const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= end) return;
          // Closed-loop think time separates a completion from the *next*
          // issue, so it is paid after claiming more work — never as a
          // trailing sleep that would pad the measured wall time.
          if (!first_op && spec_.model == ClientModel::kClosedLoop &&
              spec_.think_time_s > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(spec_.think_time_s));
          }
          first_op = false;
          const ScheduledOp& op = schedule[i];
          std::optional<Clock::time_point> arrival;
          double dispatch_lag_s = 0.0;
          if (open_loop) {
            arrival = phase_start +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(op.arrival_offset_s));
            if (*arrival > Clock::now()) {
              std::this_thread::sleep_until(*arrival);
            }
            // Coordinated-omission correction: the op was *scheduled* at
            // `arrival`; any lag before this thread could issue it is
            // queueing delay the op's client really experienced.
            dispatch_lag_s = std::max(
                0.0, std::chrono::duration<double>(Clock::now() - *arrival)
                         .count());
          }
          // Tracing context for this op: deterministic id (a pure function
          // of seed/workload/schedule index, so reruns sample the same
          // requests) installed thread-locally — spans opened anywhere
          // below (serving stack, engine) need no plumbing.
          const uint64_t trace_id =
              obs::RequestTraceId(spec_.seed, spec_.name, i);
          const bool sampled =
              record && obs::TraceSampled(
                            trace_id, obs::Tracer::Global().sample_rate());
          const double req_start_s = obs::Tracer::Global().NowSeconds();
          OpOutcome outcome;
          bool mismatched = false;
          {
            obs::ScopedTrace trace(trace_id, sampled);
            obs::ScopedSpan request_span("request");
            if (request_span.active()) {
              request_span.SetDetail(std::string(core::QueryName(op.query)) +
                                     "/v" + std::to_string(op.variant));
            }
            // Allocation attribution: reserved-total is monotone, so the
            // delta across the op counts reservation activity during its
            // window even when everything was released again. Needs the
            // tracker installed before the op — warm-up's first op through
            // each engine guarantees that for measured ops.
            MemoryTracker* alloc_tracker =
                obs::Profiler::Enabled() ? state->ctx.memory() : nullptr;
            const int64_t alloc_before =
                alloc_tracker != nullptr ? alloc_tracker->reserved_total()
                                         : 0;
            outcome =
                exec(op, variant_options[static_cast<size_t>(op.variant)],
                     arrival, &state->ctx);
            if (alloc_tracker != nullptr &&
                state->ctx.memory() == alloc_tracker) {
              outcome.alloc_delta_bytes =
                  alloc_tracker->reserved_total() - alloc_before;
            }
            outcome.queue_delay_s += dispatch_lag_s;
            // Dispatch lag is queueing the op's client really saw; fold it
            // into the queue stage so queue + flight == queue_delay holds.
            outcome.stages[obs::RequestStage::kQueue] += dispatch_lag_s;
            if (record) {
              // Verification runs here — inside the trace, on the client
              // thread — so it is timed as the request's verify stage and
              // shows up as a span instead of vanishing into bookkeeping.
              const core::CellResult& cell = outcome.cell;
              const bool verifiable = !outcome.shed && !cell.infinite &&
                                      cell.supported && cell.status.ok();
              const auto it = verifiable
                                  ? truths_.find({op.query, op.variant})
                                  : truths_.end();
              if (it != truths_.end()) {
                obs::ScopedSpan verify_span("verify");
                const double verify_cpu_begin = obs::Profiler::CpuBegin();
                const auto verify_start = Clock::now();
                mismatched =
                    !core::CompareQueryResults(it->second, cell.result).ok();
                outcome.stages[obs::RequestStage::kVerify] =
                    std::chrono::duration<double>(Clock::now() -
                                                  verify_start)
                        .count();
                outcome.stages.Cpu(obs::RequestStage::kVerify) =
                    obs::Profiler::CpuDelta(verify_cpu_begin);
                if (mismatched) verify_span.SetDetail("mismatch");
              }
            }
          }
          if (obs::Profiler::Enabled()) {
            // Thread-CPU and wall clocks have different granularities; a
            // sub-granule stage can read cpu > wall. Clamp per stage so the
            // cpu/wall ratio is a fraction by construction.
            for (int s = 0; s < obs::kNumRequestStages; ++s) {
              outcome.stages.cpu[s] =
                  std::min(outcome.stages.cpu[s], outcome.stages.s[s]);
            }
            // Periodic RSS samples (one small /proc read): enough points to
            // chart memory growth without touching every op.
            if ((i & 31) == 0) obs::SampleProcessRss();
          }
          if (record) {
            RecordOutcome(outcome, mismatched, op.query, state);
            KeepTailCandidates(outcome, mismatched, op, trace_id,
                               req_start_s, spec_.name, state);
          }
        }
      });
    }
    pool.Wait();
  };

  if (warmup_end > 0) run_phase(0, warmup_end, /*record=*/false);

  // Serving counters over the measured phase only: warm-up legitimately
  // warms the cache, but its hits/misses are not part of the measurement.
  serving::ServingCounters counters_at_measure_start;
  if (stack != nullptr) counters_at_measure_start = stack->counters();

  // Plan counters likewise: warm-up builds the access paths; the measured
  // phase should mostly show cache hits and executes.
  const plan::PlanStatsSnapshot plan_at_measure_start =
      plan::PlanStatsSnapshot::Capture();

  if (on_measure_start_) on_measure_start_();

  // Execute-stage hardware counters over the measured phase only (the
  // accumulator is process-global and monotone, so warm-up work subtracts
  // out). RSS snapshot on both edges for the gauges.
  const obs::ExecutePerfTotals perf_at_measure_start =
      obs::ExecutePerfSnapshot();
  if (obs::Profiler::Enabled()) obs::SampleProcessRss();

  WallTimer wall;
  run_phase(warmup_end, schedule.size(), /*record=*/true);
  const double wall_seconds = wall.Seconds();
  if (obs::Profiler::Enabled()) obs::SampleProcessRss();

  // Tail-keep + drain: log kept requests (synthesizing spans for the ones
  // head sampling skipped), then pull every thread ring into the collector
  // so spans survive the pool threads this run used.
  FlushTailKept(&clients);
  obs::Tracer::Global().Collect();

  WorkloadReport report;
  report.engine = engine_name;
  report.workload_name = spec_.name;
  report.model = spec_.model;
  report.clients = spec_.clients;
  report.shards = shards;
  report.param_variants = spec_.param_variants;
  report.seed = spec_.seed;
  report.kernel_backend = simd::BackendName(simd::ActiveBackend());
  report.wall_seconds = wall_seconds;
  report.profiled = obs::Profiler::Enabled();
  if (report.profiled) {
    report.execute_perf =
        obs::ExecutePerfSnapshot() - perf_at_measure_start;
  }
  if (open_loop) report.offered_qps = spec_.arrival_rate_qps;
  if (stack != nullptr) {
    report.has_serving = true;
    report.serving =
        serving::CountersDelta(stack->counters(), counters_at_measure_start);
  }
  report.plan = plan::PlanStatsSnapshot::Capture() - plan_at_measure_start;
  // Plan counters are process-global; only claim them when this run's
  // engine actually executed planned queries during the measured phase.
  report.has_plan = report.plan.executes > 0 || report.plan.compiles > 0;
  for (const ClientState& state : clients) {
    report.total.MergeFrom(state.total);
    for (const auto& [query, stats] : state.per_query) {
      report.per_query[query].MergeFrom(stats);
    }
  }
  return report;
}

}  // namespace genbase::workload
