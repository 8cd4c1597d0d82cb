#ifndef GENBASE_PLAN_PLAN_ENGINE_H_
#define GENBASE_PLAN_PLAN_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "core/engine.h"
#include "engine/engine_util.h"

namespace genbase::plan {

/// \brief The planned column store: identical storage, data-management code
/// and kernels to ColumnStoreEngine's in-database path, but the relational
/// half of each query's data management (filter, hash join, dense mappings,
/// side inputs) runs once per engine::AccessPathKey and is cached. A run
/// then only materializes its dense buffers through the cached access paths
/// and calls the shared analytics. Results are bitwise identical to
/// PrepareInputsColumnar + RunStandardAnalytics (tested); the plan_*
/// metrics count prep builds and cache hits, and each cached entry is
/// charged to tracker() while it lives.
class PlanEngine : public core::Engine {
 public:
  PlanEngine();

  std::string name() const override { return "Planned column store"; }

  void PrepareContext(ExecContext* ctx) override;

  genbase::Result<core::QueryResult> RunQuery(core::QueryId query,
                                              const core::QueryParams& params,
                                              ExecContext* ctx) override;

  MemoryTracker* tracker() { return &tracker_; }

  /// Access-path entries cached for the loaded dataset (0 when unloaded).
  int64_t cached_entries() const;

 protected:
  genbase::Status DoLoadDataset(const core::GenBaseData& data) override;
  void DoUnloadDataset() override;

 private:
  struct State;

  std::shared_ptr<State> Snapshot() const;

  MemoryTracker tracker_;
  mutable std::mutex mu_;
  /// The loaded tables and the access paths built on them, swapped as one
  /// by DoLoadDataset: a reload starts an empty cache, and queries in
  /// flight keep the state they started on alive.
  std::shared_ptr<State> state_;
};

/// Factory for the serving/bench registries.
std::unique_ptr<core::Engine> CreatePlanStore();

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_ENGINE_H_
