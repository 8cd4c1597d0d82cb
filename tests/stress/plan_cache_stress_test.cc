// Prep-cache stress: the single-flight access-path build, runs sharing one
// cached entry and the state swap on reload all run concurrently in the
// serving tier, so they are hammered here the way serving would — a
// stampede of clients on one key, a mixed workload racing dataset reloads,
// and a pile-up of runs on one cached entry. Outcomes asserted are
// deterministic even though the interleavings are not.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/exec_context.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "core/queries.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"
#include "tests/stress/stress_util.h"

namespace genbase {
namespace {

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;

constexpr double kTinyScale = 0.008;

const GenBaseData& TinyData() {
  static const GenBaseData* data = [] {
    auto r = core::GenerateDataset(DatasetSize::kSmall, kTinyScale);
    GENBASE_CHECK(r.ok());
    return new GenBaseData(std::move(r).ValueOrDie());
  }();
  return *data;
}

QueryParams TinyParams() {
  QueryParams p;
  p.svd_rank = 6;
  p.bicluster_count = 2;
  p.sample_fraction = 0.1;
  return p;
}

/// A stampede of clients on one cold key must build exactly once: one
/// leader, everyone else coalesces onto the leader's access paths.
TEST(PlanCacheStressTest, StampedeCompilesOnce) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  const plan::PlanStatsSnapshot before = plan::PlanStatsSnapshot::Capture();

  constexpr int kThreads = 8;
  std::atomic<int> successes{0};
  stress::Hammer(kThreads, [&](int) {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    auto r = engine.RunQuery(QueryId::kCovariance, TinyParams(), &ctx);
    if (r.ok()) successes.fetch_add(1, std::memory_order_relaxed);
  });

  const plan::PlanStatsSnapshot delta =
      plan::PlanStatsSnapshot::Capture() - before;
  EXPECT_EQ(successes.load(std::memory_order_relaxed), kThreads);
  EXPECT_EQ(delta.compiles, 1) << "single-flight leaked extra compiles";
  EXPECT_EQ(delta.cache_hits, kThreads - 1);
  EXPECT_EQ(delta.executes, kThreads);
  EXPECT_EQ(engine.cached_entries(), 1);
}

/// Many threads running on one cached entry concurrently: each run
/// materializes private buffers from the shared read-only access paths, so
/// results stay correct and nothing rebuilds.
TEST(PlanCacheStressTest, ConcurrentRunsShareOneEntry) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext warm_ctx;
  engine.PrepareContext(&warm_ctx);
  auto expected =
      engine.RunQuery(QueryId::kRegression, TinyParams(), &warm_ctx);
  ASSERT_TRUE(expected.ok());
  const plan::PlanStatsSnapshot before = plan::PlanStatsSnapshot::Capture();

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 16;
  std::atomic<int> mismatches{0};
  stress::Hammer(kThreads, [&](int) {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    for (int round = 0; round < kRoundsPerThread; ++round) {
      auto r = engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx);
      if (!r.ok() ||
          r->regression.r_squared != expected->regression.r_squared ||
          r->regression.coef_l2 != expected->regression.coef_l2) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
  EXPECT_EQ((plan::PlanStatsSnapshot::Capture() - before).compiles, 0);
  EXPECT_EQ(engine.cached_entries(), 1);
}

/// Mixed query traffic racing dataset reloads: every request either serves
/// from access paths built on the tables it runs against or reports the
/// transient not-loaded window — never a crash, a stale mix, or a wrong
/// answer. After the churn settles, the cache holds exactly the current
/// dataset's entries.
TEST(PlanCacheStressTest, QueryTrafficRacesReloads) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());

  // Reference answers (the dataset is identical across reloads, so every
  // successful answer must match regardless of which epoch served it).
  std::vector<core::QueryResult> expected;
  {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    for (const QueryId q : core::kAllQueries) {
      auto r = engine.RunQuery(q, TinyParams(), &ctx);
      ASSERT_TRUE(r.ok()) << core::QueryName(q);
      expected.push_back(*r);
    }
  }

  constexpr int kClients = 6;
  constexpr int kRoundsPerClient = 24;
  constexpr int kReloads = 8;
  std::atomic<bool> done{false};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> unexpected_errors{0};
  std::atomic<int> served{0};

  stress::Hammer(kClients + 1, [&](int t) {
    if (t == kClients) {  // Reloader thread.
      for (int i = 0; i < kReloads; ++i) {
        GENBASE_CHECK(engine.LoadDataset(TinyData()).ok());
      }
      done.store(true, std::memory_order_release);
      return;
    }
    uint64_t rng = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
    const auto attempt = [&](QueryId q, bool must_serve) {
      ExecContext ctx;
      engine.PrepareContext(&ctx);
      auto r = engine.RunQuery(q, TinyParams(), &ctx);
      if (r.ok()) {
        served.fetch_add(1, std::memory_order_relaxed);
        const auto& exp = expected[static_cast<size_t>(q) - 1];
        const bool match =
            r->query == exp.query &&
            r->regression.r_squared == exp.regression.r_squared &&
            r->covariance.cov_checksum == exp.covariance.cov_checksum &&
            r->svd.singular_values == exp.svd.singular_values &&
            r->stats.z_abs_sum == exp.stats.z_abs_sum &&
            r->bicluster.biclusters.size() == exp.bicluster.biclusters.size();
        if (!match) wrong_answers.fetch_add(1, std::memory_order_relaxed);
      } else if (must_serve ||
                 r.status().code() != StatusCode::kInternal) {
        // The only acceptable failure is the transient unloaded window
        // inside a reload swap — and only while the reloader is active.
        unexpected_errors.fetch_add(1, std::memory_order_relaxed);
      }
    };
    const auto random_query = [&] {
      return core::kAllQueries[stress::NextRand(&rng) %
                               (sizeof(core::kAllQueries) /
                                sizeof(core::kAllQueries[0]))];
    };
    int round = 0;
    while (round < kRoundsPerClient || !done.load(std::memory_order_acquire)) {
      attempt(random_query(), /*must_serve=*/false);
      ++round;
      if (round > kRoundsPerClient * 50) break;  // Reloader starvation guard.
    }
    // Once the churn has ended the dataset stays loaded, so one more request
    // must serve — guarantees coverage even if every raced round happened to
    // land inside a reload window. The guard above can trip while the
    // reloader is still active (failed rounds are much cheaper than
    // reloads), so wait for it before the guaranteed attempt.
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    attempt(random_query(), /*must_serve=*/true);
  });

  EXPECT_EQ(wrong_answers.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(unexpected_errors.load(std::memory_order_relaxed), 0);
  EXPECT_GE(served.load(std::memory_order_relaxed), kClients);

  // Settle: one pass over all queries on the final dataset, then the cache
  // must hold exactly those five entries (older datasets' caches dropped).
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  for (const QueryId q : core::kAllQueries) {
    auto r = engine.RunQuery(q, TinyParams(), &ctx);
    ASSERT_TRUE(r.ok()) << core::QueryName(q) << ": "
                        << r.status().ToString();
  }
  EXPECT_EQ(engine.cached_entries(), 5);
}

}  // namespace
}  // namespace genbase
