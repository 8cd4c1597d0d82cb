#include "plan/plan_engine.h"

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_stats.h"

namespace genbase::plan {

using PathsResult = genbase::Result<std::shared_ptr<const engine::AccessPaths>>;

namespace {

/// Approximate resident footprint of one cached entry, charged to the
/// engine tracker for the entry's lifetime (id vectors, join index, dense
/// mappings, Q5 memberships).
int64_t AccessPathBytes(const engine::AccessPaths& p) {
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(p.join.left.size() + p.join.right.size()) * 8;
  bytes += static_cast<int64_t>(p.row_ids.size() + p.col_ids.size()) * 8;
  bytes += static_cast<int64_t>(p.y.size()) * 8;
  // DenseMapping: sorted ids plus a hash entry (~3 words) per id.
  bytes += static_cast<int64_t>(p.row_map.ids.size() + p.col_map.ids.size()) *
           32;
  for (const auto& m : p.memberships) {
    bytes += static_cast<int64_t>(m.size()) * 8;
  }
  return bytes;
}

/// A cache entry: the access paths plus the tracker charge for them, which
/// is released when the last in-flight reference drops.
struct Entry {
  engine::AccessPaths paths;
  ScopedReservation reservation;
};

}  // namespace

struct PlanEngine::State {
  explicit State(MemoryTracker* tracker) : tracker(tracker) {}

  MemoryTracker* tracker;
  engine::ColumnarTables tables;

  /// Single-flight cache: the first requester of a key builds the access
  /// paths; concurrent requesters wait on its future and share the result.
  /// A failed build erases its slot before publishing, so waiters retry
  /// under their own budgets instead of inheriting the error.
  std::mutex mu;
  std::map<engine::AccessPathKey, std::shared_future<PathsResult>> slots;

  PathsResult GetOrBuild(const engine::AccessPathKey& key, ExecContext* ctx);
  PathsResult Build(const engine::AccessPathKey& key, ExecContext* ctx);
};

PathsResult PlanEngine::State::Build(const engine::AccessPathKey& key,
                                     ExecContext* ctx) {
  auto entry = std::make_shared<Entry>();
  GENBASE_ASSIGN_OR_RETURN(entry->paths,
                           engine::BuildAccessPaths(tables, key, ctx));
  GENBASE_ASSIGN_OR_RETURN(
      entry->reservation,
      ScopedReservation::Acquire(tracker, AccessPathBytes(entry->paths)));
  return std::shared_ptr<const engine::AccessPaths>(entry, &entry->paths);
}

PathsResult PlanEngine::State::GetOrBuild(const engine::AccessPathKey& key,
                                          ExecContext* ctx) {
  for (;;) {
    std::optional<std::promise<PathsResult>> promise;
    std::shared_future<PathsResult> future;
    {
      std::lock_guard<std::mutex> lock(mu);
      auto [it, inserted] = slots.try_emplace(key);
      if (inserted) it->second = promise.emplace().get_future().share();
      future = it->second;
    }
    if (!promise.has_value()) {
      const PathsResult& shared = future.get();
      if (!shared.ok()) continue;
      PlanMetrics::Get().cache_hits->Inc();
      return shared;
    }
    obs::ScopedSpan span("plan.compile");
    span.SetDetail(core::QueryName(key.query));
    WallTimer timer;
    PathsResult result = Build(key, ctx);
    if (result.ok()) {
      PlanMetrics& m = PlanMetrics::Get();
      m.compiles->Inc();
      m.compile_ns->Inc(static_cast<int64_t>(timer.Seconds() * 1e9));
    } else {
      std::lock_guard<std::mutex> lock(mu);
      slots.erase(key);
    }
    promise->set_value(result);
    return result;
  }
}

PlanEngine::PlanEngine()
    : tracker_(MemoryTracker::kUnlimited, "PlanStore") {}

genbase::Status PlanEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  auto state = std::make_shared<State>(&tracker_);
  GENBASE_RETURN_NOT_OK(
      engine::LoadColumnarTables(data, &tracker_, &state->tables));
  std::lock_guard<std::mutex> lock(mu_);
  state_ = std::move(state);
  return genbase::Status::OK();
}

void PlanEngine::DoUnloadDataset() {
  // No tracker_.Reset(): in-flight queries may still pin the previous state
  // or one of its entries; their reservations release when the last
  // reference drops, keeping the accounting balanced.
  std::lock_guard<std::mutex> lock(mu_);
  state_.reset();
}

void PlanEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  ctx->set_pool(nullptr);
}

std::shared_ptr<PlanEngine::State> PlanEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

int64_t PlanEngine::cached_entries() const {
  const std::shared_ptr<State> state = Snapshot();
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state->mu);
  return static_cast<int64_t>(state->slots.size());
}

genbase::Result<core::QueryResult> PlanEngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  const std::shared_ptr<State> state = Snapshot();
  if (state == nullptr) {
    return genbase::Status::Internal("PlanEngine: dataset not loaded");
  }
  GENBASE_ASSIGN_OR_RETURN(
      std::shared_ptr<const engine::AccessPaths> paths,
      state->GetOrBuild(engine::AccessPathKey::Of(query, params), ctx));
  linalg::Matrix x;
  std::vector<double> scores;
  GENBASE_RETURN_NOT_OK(engine::MaterializeInputs(
      state->tables, query, *paths, /*q1_design=*/true, ctx, &x, &scores));
  GENBASE_ASSIGN_OR_RETURN(
      core::QueryResult result,
      engine::RunStandardAnalytics(query, *paths, std::move(x), scores,
                                   params, linalg::KernelQuality::kTuned,
                                   ctx));
  PlanMetrics::Get().executes->Inc();
  return result;
}

std::unique_ptr<core::Engine> CreatePlanStore() {
  return std::make_unique<PlanEngine>();
}

}  // namespace genbase::plan
