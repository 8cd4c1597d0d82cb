#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "core/queries.h"
#include "engine/engine_util.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"

namespace genbase {
namespace {

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;
using core::QueryResult;

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

/// The perfbench variants (perfbench/src/loadgen.cc VariantParams): the
/// data-management fields (function cut, age cut) change with period 2, the
/// analytic fields (quantile, rank, delta, significance) per variant.
QueryParams VariantParams(int v) {
  QueryParams p;
  if (v == 0) return p;
  p.function_threshold -= 8 * (v % 2);
  p.max_age += 3 * (v % 2);
  p.covariance_quantile -= 0.01 * (v % 4);
  p.svd_rank -= v % 3;
  p.bicluster_delta_fraction += 0.01 * (v % 5);
  p.significance *= 1.0 + 1e-9 * v;
  return p;
}

/// A columnar copy of the tiny dataset for the legacy path; the planned
/// engine loads its own copy of the same data.
const engine::ColumnarTables& TinyTables() {
  static const auto* tables = [] {
    static MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTestTables");
    auto* t = new engine::ColumnarTables();
    GENBASE_CHECK(engine::LoadColumnarTables(TinyData(), &tracker, t).ok());
    return t;
  }();
  return *tables;
}

/// The per-run PrepareInputsColumnar + RunStandardAnalytics path.
genbase::Result<QueryResult> RunLegacy(QueryId q, const QueryParams& params) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTestLegacy");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  GENBASE_ASSIGN_OR_RETURN(
      engine::QueryInputs inputs,
      engine::PrepareInputsColumnar(TinyTables(), q, params, &ctx));
  return engine::RunStandardAnalytics(q, std::move(inputs), params,
                                      linalg::KernelQuality::kTuned, &ctx);
}

/// --- bitwise result comparison ----------------------------------------------
/// Equality at the bit level, not within tolerance: both paths run the same
/// data-management code and kernels, so every double must match bit for
/// bit.

bool BitEq(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) return false;
  }
  return true;
}

::testing::AssertionResult BitwiseEqual(const QueryResult& a,
                                        const QueryResult& b) {
  const auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs:\n  planned: " << a.ToString()
           << "\n  legacy:  " << b.ToString();
  };
  if (a.query != b.query) return fail("query id");
  const auto& ar = a.regression;
  const auto& br = b.regression;
  if (ar.rows != br.rows || ar.predictors != br.predictors ||
      !BitEq(ar.r_squared, br.r_squared) || !BitEq(ar.coef_l2, br.coef_l2) ||
      !BitEq(ar.coef_head, br.coef_head)) {
    return fail("regression summary");
  }
  const auto& ac = a.covariance;
  const auto& bc = b.covariance;
  if (ac.samples != bc.samples || ac.genes != bc.genes ||
      ac.pairs_above != bc.pairs_above ||
      !BitEq(ac.threshold, bc.threshold) ||
      !BitEq(ac.cov_checksum, bc.cov_checksum) ||
      !BitEq(ac.meta_checksum, bc.meta_checksum)) {
    return fail("covariance summary");
  }
  const auto& ab = a.bicluster;
  const auto& bb = b.bicluster;
  if (ab.matrix_rows != bb.matrix_rows || ab.matrix_cols != bb.matrix_cols ||
      !BitEq(ab.delta, bb.delta) ||
      ab.biclusters.size() != bb.biclusters.size()) {
    return fail("bicluster summary");
  }
  for (size_t i = 0; i < ab.biclusters.size(); ++i) {
    if (ab.biclusters[i].rows != bb.biclusters[i].rows ||
        ab.biclusters[i].cols != bb.biclusters[i].cols ||
        !BitEq(ab.biclusters[i].msr, bb.biclusters[i].msr)) {
      return fail("bicluster entry");
    }
  }
  const auto& as = a.svd;
  const auto& bs = b.svd;
  if (as.rows != bs.rows || as.cols != bs.cols || as.rank != bs.rank ||
      !BitEq(as.singular_values, bs.singular_values)) {
    return fail("svd summary");
  }
  const auto& at = a.stats;
  const auto& bt = b.stats;
  if (at.samples != bt.samples || at.genes_ranked != bt.genes_ranked ||
      at.terms_tested != bt.terms_tested ||
      at.significant_terms != bt.significant_terms ||
      !BitEq(at.z_abs_sum, bt.z_abs_sum)) {
    return fail("stats summary");
  }
  return ::testing::AssertionSuccess();
}

/// --- cached runs vs the per-run path ----------------------------------------

class PlannedQueryTest : public ::testing::TestWithParam<QueryId> {};

TEST_P(PlannedQueryTest, BitwiseIdenticalToLegacyPath) {
  const QueryId q = GetParam();
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);

  auto legacy = RunLegacy(q, TinyParams());
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  // The first run builds the access paths, the second reuses them.
  for (int run = 0; run < 2; ++run) {
    auto planned = engine.RunQuery(q, TinyParams(), &ctx);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_TRUE(BitwiseEqual(*planned, *legacy)) << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlannedQueryTest,
                         ::testing::ValuesIn(core::kAllQueries),
                         [](const auto& info) {
                           return std::string(core::QueryName(info.param));
                         });

/// Requests that differ only in analytic parameters share one prep: over the
/// eight perfbench variants each query builds once per distinct value of
/// its own data-management fields, and every answer still matches the
/// per-run path with the same parameters bit for bit.
TEST(PlanEngineTest, VariantsShareDataManagementPrep) {
  constexpr int kVariants = 8;
  const std::map<QueryId, int64_t> expected_builds = {
      {QueryId::kRegression, 2}, {QueryId::kCovariance, 1},
      {QueryId::kBiclustering, 2}, {QueryId::kSvd, 2},
      {QueryId::kStatistics, 1}};
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);

  int64_t total_builds = 0;
  for (const QueryId q : core::kAllQueries) {
    const plan::PlanStatsSnapshot before = plan::PlanStatsSnapshot::Capture();
    for (int v = 0; v < kVariants; ++v) {
      const QueryParams params = VariantParams(v);
      auto planned = engine.RunQuery(q, params, &ctx);
      ASSERT_TRUE(planned.ok()) << core::QueryName(q) << " variant " << v
                                << ": " << planned.status().ToString();
      auto legacy = RunLegacy(q, params);
      ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
      EXPECT_TRUE(BitwiseEqual(*planned, *legacy))
          << core::QueryName(q) << " variant " << v;
    }
    const plan::PlanStatsSnapshot delta =
        plan::PlanStatsSnapshot::Capture() - before;
    EXPECT_EQ(delta.compiles, expected_builds.at(q)) << core::QueryName(q);
    EXPECT_EQ(delta.cache_hits, kVariants - expected_builds.at(q))
        << core::QueryName(q);
    EXPECT_EQ(delta.executes, kVariants) << core::QueryName(q);
    total_builds += delta.compiles;
  }
  EXPECT_EQ(total_builds, 8);
  EXPECT_EQ(engine.cached_entries(), 8);
}

TEST(PlanEngineTest, CachesPerKeyAndStartsFreshOnReload) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);

  ASSERT_TRUE(engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
  ASSERT_TRUE(engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
  EXPECT_EQ(engine.cached_entries(), 1);

  // An analytic field alone shares the entry; a filter field does not.
  QueryParams other = TinyParams();
  other.svd_rank += 1;
  other.covariance_quantile -= 0.05;
  ASSERT_TRUE(engine.RunQuery(QueryId::kRegression, other, &ctx).ok());
  EXPECT_EQ(engine.cached_entries(), 1);
  other.function_threshold += 10;
  ASSERT_TRUE(engine.RunQuery(QueryId::kRegression, other, &ctx).ok());
  EXPECT_EQ(engine.cached_entries(), 2);

  // A reload starts an empty cache; results stay correct.
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  EXPECT_EQ(engine.cached_entries(), 0);
  auto r = engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(engine.cached_entries(), 1);

  engine.UnloadDataset();
  EXPECT_EQ(engine.cached_entries(), 0);
  EXPECT_FALSE(engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
}

TEST(PlanEngineTest, ChargesCachedEntriesToItsTracker) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  const int64_t tables_only = engine.tracker()->used();
  ASSERT_GT(tables_only, 0);

  // Per-run buffers release when a run ends; the cached entry stays held.
  ASSERT_TRUE(engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
  const int64_t with_entry = engine.tracker()->used();
  EXPECT_GT(with_entry, tables_only);
  ASSERT_TRUE(engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
  EXPECT_EQ(engine.tracker()->used(), with_entry);
  ASSERT_TRUE(engine.RunQuery(QueryId::kStatistics, TinyParams(), &ctx).ok());
  EXPECT_GT(engine.tracker()->used(), with_entry);

  // Dropping the state releases its entries with its tables.
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  EXPECT_EQ(engine.tracker()->used(), tables_only);
  engine.UnloadDataset();
  EXPECT_EQ(engine.tracker()->used(), 0);
}

TEST(PlanEngineTest, ServesAllQueriesThroughRunQuery) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  for (const QueryId q : core::kAllQueries) {
    auto r = engine.RunQuery(q, TinyParams(), &ctx);
    ASSERT_TRUE(r.ok()) << core::QueryName(q) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->query, q);
  }
  EXPECT_EQ(engine.cached_entries(), 5);
}

}  // namespace
}  // namespace genbase
