#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stats/normal.h"
#include "stats/quantile.h"
#include "stats/ranking.h"
#include "stats/wilcoxon.h"

namespace genbase::stats {
namespace {

// --- ranking ------------------------------------------------------------------

TEST(RankingTest, SimpleOrder) {
  const std::vector<double> v = {10, 30, 20};
  const auto r = AverageRanks(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 3.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(RankingTest, TiesGetMidRanks) {
  const std::vector<double> v = {5, 5, 1, 9};
  const auto r = AverageRanks(v);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(RankingTest, AllEqual) {
  const std::vector<double> v = {2, 2, 2};
  const auto r = AverageRanks(v);
  for (double x : r) EXPECT_DOUBLE_EQ(x, 2.0);
}

TEST(RankingTest, RankSumIsInvariant) {
  // Sum of ranks is always n(n+1)/2 regardless of ties.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v(50);
    for (auto& x : v) x = rng.UniformInt(0, 9);  // Many ties.
    const auto r = AverageRanks(v);
    double sum = 0;
    for (double x : r) sum += x;
    EXPECT_NEAR(sum, 50.0 * 51.0 / 2.0, 1e-9);
  }
}

TEST(RankingTest, TieGroupSizes) {
  const std::vector<double> v = {1, 2, 2, 3, 3, 3};
  const auto g = TieGroupSizes(v);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0], 2);
  EXPECT_EQ(g[1], 3);
}

TEST(RankingTest, SingleSortProducesRanksAndTiesTogether) {
  const std::vector<double> v = {7, 1, 7, 7, 3, 1};
  const RankedValues r = RankWithTies(v);
  // Sorted: 1 1 3 7 7 7 -> mid-ranks 1.5 1.5 3 5 5 5, groups {2, 3}.
  EXPECT_DOUBLE_EQ(r.ranks[1], 1.5);
  EXPECT_DOUBLE_EQ(r.ranks[5], 1.5);
  EXPECT_DOUBLE_EQ(r.ranks[4], 3.0);
  EXPECT_DOUBLE_EQ(r.ranks[0], 5.0);
  ASSERT_EQ(r.tie_group_sizes.size(), 2u);
  EXPECT_EQ(r.tie_group_sizes[0], 2);
  EXPECT_EQ(r.tie_group_sizes[1], 3);
}

TEST(RankingTest, TieHeavyRegression) {
  // Tie-heavy inputs are the Wilcoxon (Q4/Q5) hot case: integer-quantized
  // scores collapse into a few large tie runs. Check the fused single-sort
  // path against a brute-force oracle on many random tie-heavy vectors.
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t n = 1 + rng.UniformInt(0, 199);
    std::vector<double> v(static_cast<size_t>(n));
    for (auto& x : v) x = rng.UniformInt(0, 4);  // ~n/5 per tie run.
    const RankedValues got = RankWithTies(v);
    // Brute-force mid-rank: 1-based count of smaller values, plus half the
    // remaining tied values (including self -> +0.5 each, +1 for self).
    for (size_t i = 0; i < v.size(); ++i) {
      int64_t smaller = 0, equal = 0;
      for (size_t j = 0; j < v.size(); ++j) {
        if (v[j] < v[i]) ++smaller;
        if (v[j] == v[i]) ++equal;
      }
      const double want =
          static_cast<double>(smaller) + 0.5 * static_cast<double>(equal + 1);
      ASSERT_DOUBLE_EQ(got.ranks[i], want) << "trial=" << trial;
    }
    // Tie groups: multiset of value multiplicities > 1, ascending by value.
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int64_t> want_groups;
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
      if (j > i) want_groups.push_back(static_cast<int64_t>(j - i + 1));
      i = j + 1;
    }
    ASSERT_EQ(got.tie_group_sizes, want_groups) << "trial=" << trial;
    // Mid-rank invariant: ranks always sum to n(n+1)/2.
    double sum = 0;
    for (double x : got.ranks) sum += x;
    ASSERT_NEAR(sum, 0.5 * static_cast<double>(n) *
                         static_cast<double>(n + 1), 1e-9);
  }
}

// --- normal ---------------------------------------------------------------------

TEST(NormalTest, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(StdNormalCdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(StdNormalSf(1.644853627), 0.05, 1e-6);
}

TEST(NormalTest, TwoSidedPValue) {
  EXPECT_NEAR(TwoSidedNormalPValue(1.959963985), 0.05, 1e-6);
  EXPECT_NEAR(TwoSidedNormalPValue(-1.959963985), 0.05, 1e-6);
  EXPECT_NEAR(TwoSidedNormalPValue(0.0), 1.0, 1e-12);
}

// --- quantile ---------------------------------------------------------------------

TEST(QuantileTest, MedianOfOddSet) {
  auto q = Quantile({5, 1, 3}, 0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(*q, 3.0);
}

TEST(QuantileTest, ExtremesAreMinMax) {
  const std::vector<double> v = {4, 8, 15, 16, 23, 42};
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.0), 4.0);
  // q = 1.0 clamps to the last element.
  EXPECT_DOUBLE_EQ(*Quantile(v, 1.0), 42.0);
}

TEST(QuantileTest, NinetiethPercentileSeparatesTopDecile) {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  auto q = Quantile(v, 0.9);
  ASSERT_TRUE(q.ok());
  int64_t above = 0;
  for (double x : v) above += x > *q;
  EXPECT_NEAR(static_cast<double>(above), 100.0, 2.0);
}

TEST(QuantileTest, RejectsBadInput) {
  EXPECT_FALSE(Quantile({}, 0.5).ok());
  EXPECT_FALSE(Quantile({1.0}, 1.5).ok());
  EXPECT_FALSE(Quantile({1.0}, -0.1).ok());
}

TEST(QuantileTest, ConsumingFormSelectsInPlaceAndMatchesTheCopy) {
  Rng rng(77);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.Gaussian();
  const std::vector<double> original = v;
  auto copied = Quantile(v, 0.9);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(v, original);  // The const& form leaves its input alone.
  auto consumed = Quantile(std::move(v), 0.9);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(std::memcmp(&*copied, &*consumed, sizeof(double)), 0);
  // Selected in the caller's buffer: the pivot sits at its rank.
  const size_t idx = static_cast<size_t>(0.9 * 20000);
  EXPECT_EQ(v.size(), original.size());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(v[idx], *consumed);          // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(Quantile(std::vector<double>{}, 0.5).ok());
}

// --- Wilcoxon -----------------------------------------------------------------------

TEST(WilcoxonTest, RejectsDegenerateGroups) {
  EXPECT_FALSE(WilcoxonRankSum({1, 2}, {true, true}).ok());
  EXPECT_FALSE(WilcoxonRankSum({1, 2}, {false, false}).ok());
  EXPECT_FALSE(WilcoxonRankSum({1, 2}, {true}).ok());
}

TEST(WilcoxonTest, BalancedGroupsGiveZeroZ) {
  // Group ranks symmetric around the middle -> z == 0.
  const std::vector<double> v = {1, 2, 3, 4};
  const std::vector<bool> mask = {true, false, false, true};
  auto r = WilcoxonRankSum(v, mask);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->z, 0.0, 1e-12);
  EXPECT_NEAR(r->p_two_sided, 1.0, 1e-12);
}

TEST(WilcoxonTest, ExtremeSeparationIsSignificant) {
  std::vector<double> v(40);
  std::vector<bool> mask(40);
  for (int i = 0; i < 40; ++i) {
    v[i] = i;
    mask[i] = i >= 30;  // Top 10 values in-group.
  }
  auto r = WilcoxonRankSum(v, mask);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->p_two_sided, 1e-4);
  EXPECT_GT(r->z, 3.0);
}

TEST(WilcoxonTest, SymmetricUnderGroupSwap) {
  Rng rng(123);
  std::vector<double> v(30);
  std::vector<bool> mask(30), inv(30);
  for (int i = 0; i < 30; ++i) {
    v[i] = rng.Gaussian();
    mask[i] = rng.Bernoulli(0.4);
    inv[i] = !mask[i];
  }
  int in = std::count(mask.begin(), mask.end(), true);
  if (in == 0 || in == 30) GTEST_SKIP();
  auto a = WilcoxonRankSum(v, mask);
  auto b = WilcoxonRankSum(v, inv);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->z, -b->z, 1e-9);
  EXPECT_NEAR(a->p_two_sided, b->p_two_sided, 1e-9);
}

TEST(WilcoxonTest, AllValuesEqualGivesPOne) {
  const std::vector<double> v = {3, 3, 3, 3};
  const std::vector<bool> mask = {true, true, false, false};
  auto r = WilcoxonRankSum(v, mask);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->p_two_sided, 1.0);
}

/// Property test: the normal approximation with continuity correction should
/// track the exact enumeration p-value on small inputs.
struct ExactCase {
  uint64_t seed;
  int n;
  int k;
};

class WilcoxonExactTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(WilcoxonExactTest, NormalApproxTracksExact) {
  const auto p = GetParam();
  Rng rng(p.seed);
  std::vector<double> v(p.n);
  std::vector<bool> mask(p.n, false);
  for (auto& x : v) x = rng.Gaussian();
  for (int i = 0; i < p.k; ++i) mask[i] = true;
  // Shuffle the mask deterministically (vector<bool> needs a manual swap).
  for (int i = p.n - 1; i > 0; --i) {
    const int64_t j = rng.UniformInt(0, i);
    const bool tmp = mask[static_cast<size_t>(i)];
    mask[static_cast<size_t>(i)] = mask[static_cast<size_t>(j)];
    mask[static_cast<size_t>(j)] = tmp;
  }
  if (std::count(mask.begin(), mask.end(), true) == 0) GTEST_SKIP();
  auto approx = WilcoxonRankSum(v, mask);
  auto exact = ExactRankSumPValue(v, mask);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  // The approximation is coarse at these sizes; assert agreement within a
  // generous band plus matching significance direction at alpha = 0.25.
  EXPECT_NEAR(approx->p_two_sided, *exact, 0.12)
      << "n=" << p.n << " k=" << p.k;
}

INSTANTIATE_TEST_SUITE_P(
    SmallInputs, WilcoxonExactTest,
    ::testing::Values(ExactCase{1, 10, 3}, ExactCase{2, 12, 6},
                      ExactCase{3, 14, 4}, ExactCase{4, 15, 7},
                      ExactCase{5, 16, 8}, ExactCase{6, 12, 2},
                      ExactCase{7, 18, 9}, ExactCase{8, 18, 5}));

TEST(WilcoxonExactTest, ExactRejectsLargeInput) {
  std::vector<double> v(25, 0.0);
  std::vector<bool> m(25, false);
  m[0] = true;
  EXPECT_FALSE(ExactRankSumPValue(v, m).ok());
}

TEST(WilcoxonTest, UStatisticIdentity) {
  // U1 + U2 == n1 * n2.
  Rng rng(321);
  std::vector<double> v(20);
  std::vector<bool> mask(20), inv(20);
  for (int i = 0; i < 20; ++i) {
    v[i] = rng.Gaussian();
    mask[i] = i < 8;
    inv[i] = !mask[i];
  }
  auto a = WilcoxonRankSum(v, mask);
  auto b = WilcoxonRankSum(v, inv);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->u_statistic + b->u_statistic, 8.0 * 12.0, 1e-9);
}

}  // namespace
}  // namespace genbase::stats
