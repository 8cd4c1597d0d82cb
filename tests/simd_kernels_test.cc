// Property tests for the dispatched kernel layer: every optimized kernel is
// compared against a naive reference across ragged shapes (n % 8 != 0,
// single row/col, empty, aliased operands), under BOTH backends — the same
// suite passes whether or not the host has AVX2, and whether or not the
// build used GENBASE_NATIVE_ARCH — and the deterministic reduction paths
// are checked for bitwise-stable results across thread counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bicluster/cheng_church.h"
#include "bicluster/synthetic.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"

namespace genbase::linalg {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

std::vector<double> RandomVector(int64_t n, uint64_t seed) {
  std::vector<double> v(static_cast<size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.Gaussian();
  return v;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// Unblocked, unvectorized oracles.
double DotRef(const double* x, const double* y, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

Matrix GemmRef(const MatrixView& a, const MatrixView& b) {
  Matrix c(a.rows, b.cols);
  for (int64_t i = 0; i < a.rows; ++i) {
    for (int64_t j = 0; j < b.cols; ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < a.cols; ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

Matrix SyrkRef(const MatrixView& a) {
  Matrix c(a.cols, a.cols);
  for (int64_t i = 0; i < a.cols; ++i) {
    for (int64_t j = 0; j < a.cols; ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < a.rows; ++k) s += a(k, i) * a(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

/// Fixture parameterized over the kernel backend; restores the previous
/// backend so suites compose.
class BackendTest : public ::testing::TestWithParam<simd::Backend> {
 protected:
  void SetUp() override { previous_ = simd::SetBackend(GetParam()); }
  void TearDown() override { simd::SetBackend(previous_); }

 private:
  simd::Backend previous_ = simd::Backend::kSimd;
};

/// Ragged lengths: multiples-of-8 boundaries on both sides, plus empty and
/// single-element.
const int64_t kLengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100};

TEST_P(BackendTest, DotMatchesReferenceAcrossRaggedLengths) {
  for (int64_t n : kLengths) {
    const std::vector<double> x = RandomVector(n, 100 + n);
    const std::vector<double> y = RandomVector(n, 200 + n);
    const double got = Dot(x.data(), y.data(), n);
    const double want = DotRef(x.data(), y.data(), n);
    EXPECT_NEAR(got, want, 1e-10 * std::max(1.0, std::fabs(want)))
        << "n=" << n;
  }
}

TEST_P(BackendTest, AxpyMatchesReferenceAcrossRaggedLengths) {
  for (int64_t n : kLengths) {
    const std::vector<double> x = RandomVector(n, 300 + n);
    std::vector<double> y = RandomVector(n, 400 + n);
    std::vector<double> want = y;
    Axpy(0.7, x.data(), y.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] += 0.7 * x[i];
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], want[i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BackendTest, AxpyAliasedYEqualsX) {
  for (int64_t n : kLengths) {
    std::vector<double> y = RandomVector(n, 500 + n);
    std::vector<double> want = y;
    // y += alpha * y must behave elementwise even with exact aliasing.
    Axpy(0.25, y.data(), y.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] *= 1.25;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], want[i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

struct Shape {
  int64_t m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},   {1, 9, 1},   {3, 5, 2},  {4, 8, 8},
                         {5, 7, 9},   {8, 16, 8},  {9, 17, 7}, {17, 33, 9},
                         {31, 40, 33}, {64, 64, 64}, {65, 63, 70},
                         {128, 100, 129}, {1, 100, 129}, {129, 100, 1}};

TEST_P(BackendTest, GemvMatchesReferenceAcrossRaggedShapes) {
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 600 + s.m + s.k);
    const std::vector<double> x = RandomVector(s.k, 700 + s.k);
    std::vector<double> y(static_cast<size_t>(s.m));
    Gemv(MatrixView(a), x.data(), y.data());
    for (int64_t i = 0; i < s.m; ++i) {
      const double want = DotRef(a.Row(i), x.data(), s.k);
      EXPECT_NEAR(y[i], want, 1e-9 * std::max(1.0, std::fabs(want)));
    }
  }
}

TEST_P(BackendTest, GemvTransposeMatchesReferenceAcrossRaggedShapes) {
  ThreadPool pool(3);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 800 + s.m + s.k);
    const std::vector<double> x = RandomVector(s.m, 900 + s.m);
    std::vector<double> y(static_cast<size_t>(s.k));
    GemvTranspose(MatrixView(a), x.data(), y.data(), &pool);
    for (int64_t j = 0; j < s.k; ++j) {
      double want = 0.0;
      for (int64_t i = 0; i < s.m; ++i) want += a(i, j) * x[i];
      EXPECT_NEAR(y[j], want, 1e-9 * std::max(1.0, std::fabs(want)));
    }
  }
}

TEST_P(BackendTest, GemmMatchesReferenceAcrossRaggedShapes) {
  ThreadPool pool(3);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 1000 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 1100 + s.n);
    Matrix c(s.m, s.n);
    ASSERT_TRUE(Gemm(MatrixView(a), MatrixView(b), &c, &pool).ok());
    const Matrix want = GemmRef(MatrixView(a), MatrixView(b));
    EXPECT_LT(MaxAbsDiff(c, want), 1e-9)
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST_P(BackendTest, GemmTransposeAMatchesReferenceAcrossRaggedShapes) {
  ThreadPool pool(3);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, 1200 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 1300 + s.n);
    Matrix c(s.m, s.n);
    ASSERT_TRUE(
        GemmTransposeA(MatrixView(a), MatrixView(b), &c, &pool).ok());
    Matrix at(s.m, s.k);
    for (int64_t i = 0; i < s.k; ++i) {
      for (int64_t j = 0; j < s.m; ++j) at(j, i) = a(i, j);
    }
    const Matrix want = GemmRef(MatrixView(at), MatrixView(b));
    EXPECT_LT(MaxAbsDiff(c, want), 1e-9);
  }
}

TEST_P(BackendTest, SyrkMatchesReferenceAcrossRaggedShapes) {
  ThreadPool pool(3);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.n, 1400 + s.m + s.n);
    Matrix c(s.n, s.n);
    ASSERT_TRUE(Syrk(MatrixView(a), &c, &pool).ok());
    const Matrix want = SyrkRef(MatrixView(a));
    EXPECT_LT(MaxAbsDiff(c, want), 1e-9);
  }
}

TEST_P(BackendTest, SyrkCenteredMatchesMaterializedCentering) {
  ThreadPool pool(3);
  for (const Shape& s : kShapes) {
    if (s.m < 1) continue;
    const Matrix a = RandomMatrix(s.m, s.n, 1500 + s.m + s.n);
    const std::vector<double> means = ColumnMeans(MatrixView(a));
    Matrix centered(s.m, s.n);
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) centered(i, j) = a(i, j) - means[j];
    }
    Matrix fused(s.n, s.n);
    ASSERT_TRUE(
        SyrkCentered(MatrixView(a), means.data(), &fused, &pool).ok());
    const Matrix want = SyrkRef(MatrixView(centered));
    EXPECT_LT(MaxAbsDiff(fused, want), 1e-9);
  }
}

TEST_P(BackendTest, CovarianceTunedMatchesBruteForce) {
  const Matrix x = RandomMatrix(37, 13, 1600);
  auto cov = CovarianceMatrix(MatrixView(x), KernelQuality::kTuned);
  ASSERT_TRUE(cov.ok());
  const std::vector<double> means = ColumnMeans(MatrixView(x));
  for (int64_t i = 0; i < 13; ++i) {
    for (int64_t j = 0; j < 13; ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < 37; ++k) {
        s += (x(k, i) - means[i]) * (x(k, j) - means[j]);
      }
      EXPECT_NEAR((*cov)(i, j), s / 36.0, 1e-10);
    }
  }
}

/// The deterministic-reduction guarantee: same bits for any pool width.
TEST_P(BackendTest, GemmBitwiseStableAcrossThreadCounts) {
  const Matrix a = RandomMatrix(200, 150, 1700);
  const Matrix b = RandomMatrix(150, 170, 1800);
  Matrix serial(200, 170);
  ASSERT_TRUE(Gemm(MatrixView(a), MatrixView(b), &serial, nullptr).ok());
  for (int threads : {2, 5}) {
    ThreadPool pool(threads);
    Matrix parallel(200, 170);
    ASSERT_TRUE(Gemm(MatrixView(a), MatrixView(b), &parallel, &pool).ok());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          static_cast<size_t>(serial.size()) *
                              sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

TEST_P(BackendTest, SyrkBitwiseStableAcrossThreadCounts) {
  const Matrix a = RandomMatrix(300, 140, 1900);
  Matrix serial(140, 140);
  ASSERT_TRUE(Syrk(MatrixView(a), &serial, nullptr).ok());
  for (int threads : {2, 5}) {
    ThreadPool pool(threads);
    Matrix parallel(140, 140);
    ASSERT_TRUE(Syrk(MatrixView(a), &parallel, &pool).ok());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          static_cast<size_t>(serial.size()) *
                              sizeof(double)),
              0);
  }
}

TEST_P(BackendTest, GemvFamilyBitwiseStableAcrossThreadCounts) {
  const Matrix a = RandomMatrix(700, 90, 2000);
  const std::vector<double> x = RandomVector(90, 2100);
  const std::vector<double> xt = RandomVector(700, 2200);
  std::vector<double> y0(700), yt0(90);
  Gemv(MatrixView(a), x.data(), y0.data(), nullptr);
  GemvTranspose(MatrixView(a), xt.data(), yt0.data(), nullptr);
  for (int threads : {2, 5}) {
    ThreadPool pool(threads);
    std::vector<double> y(700), yt(90);
    Gemv(MatrixView(a), x.data(), y.data(), &pool);
    GemvTranspose(MatrixView(a), xt.data(), yt.data(), &pool);
    EXPECT_EQ(std::memcmp(y0.data(), y.data(), y.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(yt0.data(), yt.data(), yt.size() * sizeof(double)),
              0);
  }
}

TEST_P(BackendTest, GramApplyBitwiseEqualsTwoPass) {
  // Row counts straddle the 256-row shard and the 512-row parallel-merge
  // thresholds; the two-pass oracle runs without a pool, so a wrong shard
  // order or merge on any pool width shows up as a bit difference.
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool4};
  for (int64_t rows : {1, 255, 256, 257, 511, 512, 1600}) {
    for (int64_t cols : {1, 7, 190, 575}) {
      const Matrix a = RandomMatrix(rows, cols, 2300 + rows * 7 + cols);
      const std::vector<double> x = RandomVector(cols, 2400 + cols);
      std::vector<double> tmp(static_cast<size_t>(rows));
      std::vector<double> want(static_cast<size_t>(cols));
      Gemv(MatrixView(a), x.data(), tmp.data(), nullptr);
      GemvTranspose(MatrixView(a), tmp.data(), want.data(), nullptr);
      for (ThreadPool* pool : pools) {
        std::vector<double> got(static_cast<size_t>(cols), -1.0);
        GramApply(MatrixView(a), x.data(), got.data(), pool);
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(double)),
                  0)
            << rows << "x" << cols << " pool="
            << (pool == nullptr ? 0 : pool->num_threads());
      }
    }
  }
}

/// --- blocked Householder QR vs the unblocked loop ---------------------------

/// The unblocked Householder loop that the blocked factorization replaced:
/// one reflector per column, applied to every later column as a rank-1
/// update. Works on the same transposed layout as HouseholderQr (row j of
/// qrt is A's column j) and is the oracle for the blocked path.
struct UnblockedQr {
  Matrix qrt;
  std::vector<double> tau;
};

UnblockedQr UnblockedQrRef(const Matrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  UnblockedQr f{Matrix(n, m), std::vector<double>(static_cast<size_t>(n))};
  Matrix& qrt = f.qrt;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) qrt(j, i) = a(i, j);
  }
  for (int64_t k = 0; k < n; ++k) {
    double* colk = qrt.Row(k);
    double norm_x = 0.0;
    for (int64_t i = k; i < m; ++i) norm_x += colk[i] * colk[i];
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) {
      f.tau[k] = 0.0;
      continue;
    }
    const double alpha = colk[k] >= 0 ? -norm_x : norm_x;
    const double v0 = colk[k] - alpha;
    const double inv_v0 = 1.0 / v0;
    for (int64_t i = k + 1; i < m; ++i) colk[i] *= inv_v0;
    f.tau[k] = -v0 / alpha;
    colk[k] = alpha;
    for (int64_t j = k + 1; j < n; ++j) {
      double* colj = qrt.Row(j);
      double s = colj[k];
      for (int64_t i = k + 1; i < m; ++i) s += colk[i] * colj[i];
      s *= f.tau[k];
      colj[k] -= s;
      for (int64_t i = k + 1; i < m; ++i) colj[i] -= s * colk[i];
    }
  }
  return f;
}

/// min ||A x - b|| from the oracle's factors: Q^T b, then R x = (Q^T b)[0..n).
std::vector<double> UnblockedSolve(const UnblockedQr& f,
                                   std::vector<double> b) {
  const int64_t n = f.qrt.rows();
  const int64_t m = f.qrt.cols();
  for (int64_t k = 0; k < n; ++k) {
    if (f.tau[k] == 0.0) continue;
    const double* colk = f.qrt.Row(k);
    double s = b[k];
    for (int64_t i = k + 1; i < m; ++i) s += colk[i] * b[i];
    s *= f.tau[k];
    b[k] -= s;
    for (int64_t i = k + 1; i < m; ++i) b[i] -= s * colk[i];
  }
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t i = n - 1; i >= 0; --i) {
    double s = b[i];
    for (int64_t j = i + 1; j < n; ++j) s -= f.qrt(j, i) * x[j];
    x[i] = s / f.qrt(i, i);
  }
  return x;
}

/// max |got - want| / max |want|.
double RelDiff(const std::vector<double>& got,
               const std::vector<double>& want) {
  double diff = 0.0, scale = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::fabs(got[i] - want[i]));
    scale = std::max(scale, std::fabs(want[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

/// The upper triangle of a packed transposed factorization, row-major.
std::vector<double> UpperR(const Matrix& qrt) {
  std::vector<double> r;
  for (int64_t j = 0; j < qrt.rows(); ++j) {
    for (int64_t i = 0; i <= j; ++i) r.push_back(qrt(j, i));
  }
  return r;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

struct QrCase {
  int64_t m, n;
};

/// Column counts around the 32-column panel (one column, one panel less
/// one, exactly one, one plus a column, two, two plus a column, several plus
/// a partial), each square (the last reflector is 1 x 1) and tall.
std::vector<QrCase> PanelBoundaryCases() {
  std::vector<QrCase> cases;
  for (int64_t n : {1, 31, 32, 33, 64, 65, 191}) {
    cases.push_back({n, n});
    cases.push_back({2 * n + 7, n});
  }
  return cases;
}

// Not a BackendTest: the oracle does not depend on the backend, so it runs
// once per shape and both backends are checked against it.
TEST(BlockedQrTest, MatchesUnblockedOracleOnBothBackends) {
  std::vector<QrCase> cases = PanelBoundaryCases();
  cases.push_back({1600, 576});  // The medium Q1 design: 575 genes + 1.
  for (const QrCase& c : cases) {
    const Matrix a = RandomMatrix(c.m, c.n, 2500 + c.m * 3 + c.n);
    const std::vector<double> b = RandomVector(c.m, 2600 + c.m);
    const UnblockedQr want = UnblockedQrRef(a);
    const std::vector<double> want_x = UnblockedSolve(want, b);
    for (const simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kSimd}) {
      const simd::Backend previous = simd::SetBackend(backend);
      const std::string where = std::to_string(c.m) + "x" +
                                std::to_string(c.n) + " " +
                                simd::BackendName(backend);
      auto got = HouseholderQr::Factor(MatrixView(a));
      auto fit = LeastSquaresQr(MatrixView(a), b);
      simd::SetBackend(previous);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(fit.ok());
      EXPECT_LT(RelDiff(UpperR(got->packed()), UpperR(want.qrt)), 1e-12)
          << where << " R";
      EXPECT_LT(RelDiff(got->tau(), want.tau), 1e-12) << where << " tau";
      EXPECT_LT(RelDiff(fit->coefficients, want_x), 1e-12)
          << where << " least-squares solution";
    }
  }
}

TEST_P(BackendTest, BlockedQrBitwiseStableAcrossPoolsAndOverloads) {
  // The no-pool view factorization is the reference; every pool width and
  // both Factor overloads (consuming and view) must reproduce its bits, and
  // the consuming LeastSquaresQr on the widest pool must reproduce the view
  // overload's unpooled fit.
  // 600 x 300 gives the trailing update up to three 128-row Gemm blocks to
  // share out.
  ThreadPool pool1(1), pool2(2), pool4(4);
  std::vector<QrCase> cases = PanelBoundaryCases();
  cases.push_back({600, 300});
  for (const QrCase& c : cases) {
    const Matrix a = RandomMatrix(c.m, c.n, 2700 + c.m * 3 + c.n);
    auto want = HouseholderQr::Factor(MatrixView(a));
    ASSERT_TRUE(want.ok());
    for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
      ExecContext ctx;
      ctx.set_pool(pool);
      const std::string where = std::to_string(c.m) + "x" +
                                std::to_string(c.n) + " pool=" +
                                std::to_string(pool->num_threads());
      auto view = HouseholderQr::Factor(MatrixView(a), &ctx);
      auto consumed = HouseholderQr::Factor(Matrix(a), &ctx);
      ASSERT_TRUE(view.ok());
      ASSERT_TRUE(consumed.ok());
      EXPECT_TRUE(SameBits(view->packed(), want->packed())) << where;
      EXPECT_TRUE(SameBits(view->tau(), want->tau())) << where;
      EXPECT_TRUE(SameBits(consumed->packed(), want->packed())) << where;
      EXPECT_TRUE(SameBits(consumed->tau(), want->tau())) << where;
    }
    const std::vector<double> b = RandomVector(c.m, 2800 + c.m);
    auto want_fit = LeastSquaresQr(MatrixView(a), b);
    ExecContext ctx;
    ctx.set_pool(&pool4);
    auto fit = LeastSquaresQr(Matrix(a), b, &ctx);
    ASSERT_TRUE(want_fit.ok());
    ASSERT_TRUE(fit.ok());
    EXPECT_TRUE(SameBits(fit->coefficients, want_fit->coefficients))
        << c.m << "x" << c.n;
    EXPECT_EQ(fit->residual_norm, want_fit->residual_norm) << c.m << "x"
                                                           << c.n;
    EXPECT_EQ(fit->r_squared, want_fit->r_squared) << c.m << "x" << c.n;
  }
}

/// --- incremental Cheng–Church vs the from-scratch oracle --------------------

using bicluster::PlantedBiclusterMatrix;

TEST_P(BackendTest, ChengChurchCrossCheckPassesOnRandomData) {
  const linalg::Matrix m = PlantedBiclusterMatrix(150, 110, 42);
  bicluster::ChengChurchOptions opt;
  opt.delta = 0.05;
  opt.max_biclusters = 2;
  opt.min_rows = 4;
  opt.min_cols = 4;
  opt.impl = bicluster::ChengChurchImpl::kIncremental;
  opt.cross_check = true;  // Every iteration re-verified from scratch.
  auto found = bicluster::ChengChurch(linalg::MatrixView(m), opt);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found->size(), 2u);
  for (const auto& bc : *found) {
    EXPECT_LE(bc.mean_squared_residue, opt.delta + 1e-9);
  }
}

TEST_P(BackendTest, ChengChurchImplsAgreeOnPlantedBicluster) {
  const linalg::Matrix m = PlantedBiclusterMatrix(90, 60, 7);
  bicluster::ChengChurchOptions opt;
  opt.delta = 0.05;
  opt.max_biclusters = 1;
  opt.min_rows = 4;
  opt.min_cols = 4;
  opt.impl = bicluster::ChengChurchImpl::kIncremental;
  auto inc = bicluster::ChengChurch(linalg::MatrixView(m), opt);
  opt.impl = bicluster::ChengChurchImpl::kReference;
  auto ref = bicluster::ChengChurch(linalg::MatrixView(m), opt);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(ref.ok());
  // On well-separated data the two engines must find the same structure
  // (ties could legitimately differ; the planted block has none).
  ASSERT_EQ((*inc)[0].rows, (*ref)[0].rows);
  ASSERT_EQ((*inc)[0].cols, (*ref)[0].cols);
  EXPECT_NEAR((*inc)[0].mean_squared_residue,
              (*ref)[0].mean_squared_residue, 1e-9);
}

TEST_P(BackendTest, ChengChurchIncrementalCutsResidueFlops) {
  const linalg::Matrix m = PlantedBiclusterMatrix(220, 160, 11);
  bicluster::ChengChurchOptions opt;
  opt.delta = 0.05;
  opt.max_biclusters = 1;
  opt.min_rows = 4;
  opt.min_cols = 4;
  bicluster::ChengChurchCounters inc_counters, ref_counters;
  opt.impl = bicluster::ChengChurchImpl::kIncremental;
  opt.counters = &inc_counters;
  ASSERT_TRUE(bicluster::ChengChurch(linalg::MatrixView(m), opt).ok());
  opt.impl = bicluster::ChengChurchImpl::kReference;
  opt.counters = &ref_counters;
  ASSERT_TRUE(bicluster::ChengChurch(linalg::MatrixView(m), opt).ok());
  ASSERT_GT(inc_counters.residue_flops, 0);
  ASSERT_GT(ref_counters.residue_flops, 0);
  const double ratio = static_cast<double>(ref_counters.residue_flops) /
                       static_cast<double>(inc_counters.residue_flops);
  // The >= 5x acceptance gate runs at kernelbench's fig-scale shapes; at
  // this small unit-test shape the deletion trajectory still has to show a
  // clear win.
  EXPECT_GE(ratio, 3.0) << "incremental flops " << inc_counters.residue_flops
                        << " vs reference " << ref_counters.residue_flops;
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values(simd::Backend::kScalar,
                                           simd::Backend::kSimd),
                         [](const auto& info) {
                           return simd::BackendName(info.param);
                         });

TEST(SimdDispatchTest, BackendRoundTrips) {
  const simd::Backend prev = simd::SetBackend(simd::Backend::kScalar);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::BackendName(simd::ActiveBackend()), "scalar");
  simd::SetBackend(simd::Backend::kSimd);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kSimd);
  simd::SetBackend(prev);
}

TEST(SimdDispatchTest, Avx2AvailabilityIsConsistent) {
  // On machines without AVX2 the table must be absent; with it, present.
  if (simd::CpuSupportsAvx2()) {
    ASSERT_NE(Avx2Kernels(), nullptr);
    EXPECT_STREQ(Avx2Kernels()->name, "avx2");
  } else {
    EXPECT_EQ(Avx2Kernels(), nullptr);
  }
}

}  // namespace
}  // namespace genbase::linalg
