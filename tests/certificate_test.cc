// Result certificates: checks of a query's answer that do not trust the code
// that produced it. The inputs are built here straight from the generated
// tables, and every check runs in long double plain loops with no linalg
// call, so a bug in a production kernel cannot cancel out of its own check.
// (core::reference shares the analytics kernels with the engines, so
// comparing against it cannot catch a kernel bug.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/simd.h"
#include "core/generator.h"
#include "core/queries.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"

namespace genbase::core {
namespace {

/// The benchmark's scale: kSmall is the 400 x 400 serving instance, kMedium
/// the 1200 genes x 1600 patients suite instance.
constexpr double kScale = 0.08;

/// Query 1's inputs: the design [1 | X] over all patients (rows, by id) and
/// the genes with function < the threshold (columns, by id), and the drug
/// response y per patient. X without its intercept column is Query 4's input.
struct Q1Inputs {
  linalg::Matrix design;
  std::vector<double> y;
};

Q1Inputs BuildQ1Inputs(const GenBaseData& data) {
  const int64_t threshold = QueryParams().function_threshold;
  const auto& gene_id = data.genes.IntColumn(GeneCols::kGeneId);
  const auto& function = data.genes.IntColumn(GeneCols::kFunction);
  std::vector<int64_t> genes;
  for (size_t i = 0; i < gene_id.size(); ++i) {
    if (function[i] < threshold) genes.push_back(gene_id[i]);
  }
  std::sort(genes.begin(), genes.end());
  std::unordered_map<int64_t, int64_t> gene_col;
  for (size_t c = 0; c < genes.size(); ++c) {
    gene_col[genes[c]] = static_cast<int64_t>(c) + 1;
  }

  const auto& patient_id = data.patients.IntColumn(PatientCols::kPatientId);
  const auto& response =
      data.patients.DoubleColumn(PatientCols::kDrugResponse);
  std::vector<int64_t> patients(patient_id.begin(), patient_id.end());
  std::sort(patients.begin(), patients.end());
  std::unordered_map<int64_t, int64_t> patient_row;
  for (size_t r = 0; r < patients.size(); ++r) {
    patient_row[patients[r]] = static_cast<int64_t>(r);
  }

  Q1Inputs in;
  in.design = linalg::Matrix(static_cast<int64_t>(patients.size()),
                             static_cast<int64_t>(genes.size()) + 1);
  in.y.resize(patients.size());
  for (size_t i = 0; i < patient_id.size(); ++i) {
    in.y[static_cast<size_t>(patient_row.at(patient_id[i]))] = response[i];
  }
  for (int64_t r = 0; r < in.design.rows(); ++r) in.design(r, 0) = 1.0;
  const auto& ma_gene = data.microarray.IntColumn(MicroarrayCols::kGeneId);
  const auto& ma_patient =
      data.microarray.IntColumn(MicroarrayCols::kPatientId);
  const auto& ma_expr = data.microarray.DoubleColumn(MicroarrayCols::kExpr);
  for (size_t i = 0; i < ma_gene.size(); ++i) {
    const auto col = gene_col.find(ma_gene[i]);
    if (col == gene_col.end()) continue;
    in.design(patient_row.at(ma_patient[i]), col->second) = ma_expr[i];
  }
  return in;
}

/// The datasets are generated once for the whole suite.
class CertificateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const DatasetSize size : {DatasetSize::kSmall, DatasetSize::kMedium}) {
      auto data = GenerateDataset(size, kScale);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      inputs_.push_back(BuildQ1Inputs(*data));
    }
  }
  static void TearDownTestSuite() { inputs_.clear(); }

  static const Q1Inputs& Small() { return inputs_[0]; }
  static const Q1Inputs& Medium() { return inputs_[1]; }

  /// Query 4's input: the design without its intercept column.
  static linalg::MatrixView GeneMatrix(const Q1Inputs& in) {
    return linalg::MatrixView(in.design.data() + 1, in.design.rows(),
                              in.design.cols() - 1, in.design.cols());
  }

 private:
  static std::vector<Q1Inputs> inputs_;
};

std::vector<Q1Inputs> CertificateTest::inputs_;

/// The normal-equations certificate of a least-squares solution beta of
/// min ||X beta - y||: the residual r = y - X beta is orthogonal to X's
/// columns up to rounding.
struct NormalEquationsCertificate {
  long double residual = 0;  ///< ||X^T (y - X beta)||_inf.
  long double bound = 0;     ///< n eps ||X||_F (||X||_F ||beta||_2 + ||y||_2).
};

/// Householder QR is backward stable: beta solves a nearby problem with
/// X + dX, y + dy, |dX| <= delta |X|, |dy| <= delta |y|, exactly. Then
/// X^T r = -dX^T r' + X^T (dX beta - dy) to first order, with ||r'|| <= ||y||,
/// so ||X^T r|| <= delta ||X|| (||X|| ||beta|| + 2 ||y||). The bound takes
/// delta = n eps / 2: rounding errors in the n Householder steps grow
/// about linearly in n in practice (the worst-case constant ~ m n is never
/// approached), and ||X||_F over-estimates ||X||_2. A wrong reflector or a
/// skipped update leaves a residual of the order of ||X||^2 ||beta||, many
/// orders of magnitude over it.
NormalEquationsCertificate CertifyNormalEquations(
    const linalg::Matrix& x, const std::vector<double>& y,
    const std::vector<double>& beta) {
  const int64_t m = x.rows();
  const int64_t n = x.cols();
  std::vector<long double> r(static_cast<size_t>(m));
  long double x_fro2 = 0, y2 = 0, beta2 = 0;
  for (int64_t i = 0; i < m; ++i) {
    long double s = y[static_cast<size_t>(i)];
    for (int64_t j = 0; j < n; ++j) {
      const long double xij = x(i, j);
      s -= xij * beta[static_cast<size_t>(j)];
      x_fro2 += xij * xij;
    }
    r[static_cast<size_t>(i)] = s;
    y2 += static_cast<long double>(y[static_cast<size_t>(i)]) *
          y[static_cast<size_t>(i)];
  }
  for (double b : beta) beta2 += static_cast<long double>(b) * b;
  NormalEquationsCertificate cert;
  for (int64_t j = 0; j < n; ++j) {
    long double g = 0;
    for (int64_t i = 0; i < m; ++i) g += x(i, j) * r[static_cast<size_t>(i)];
    cert.residual = std::max(cert.residual, std::fabs(g));
  }
  const long double x_fro = std::sqrt(x_fro2);
  cert.bound = static_cast<long double>(n) * DBL_EPSILON * x_fro *
               (x_fro * std::sqrt(beta2) + std::sqrt(y2));
  return cert;
}

/// Restores the kernel backend after a test that switches it.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend b) : previous_(simd::SetBackend(b)) {}
  ~ScopedBackend() { simd::SetBackend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  simd::Backend previous_;
};

TEST_F(CertificateTest, Q1SolutionSatisfiesNormalEquations) {
  for (const Q1Inputs* in : {&Small(), &Medium()}) {
    for (const simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kSimd}) {
      ScopedBackend scoped(backend);
      const std::string where =
          std::to_string(in->design.rows()) + "x" +
          std::to_string(in->design.cols()) + " " +
          simd::BackendName(backend);
      auto fit = linalg::LeastSquaresQr(linalg::MatrixView(in->design), in->y);
      ASSERT_TRUE(fit.ok()) << where << ": " << fit.status().ToString();
      const NormalEquationsCertificate cert =
          CertifyNormalEquations(in->design, in->y, fit->coefficients);
      EXPECT_LE(cert.residual, cert.bound)
          << where << ": ||X^T r||_inf = "
          << static_cast<double>(cert.residual)
          << " over the bound " << static_cast<double>(cert.bound);
    }
  }
}

TEST_F(CertificateTest, Q1DesignsHaveTheBenchmarkShapes) {
  // The certificate covers the shapes the benchmark runs: 400 patients x
  // (190 genes + intercept) and 1600 x (575 + intercept).
  EXPECT_EQ(Small().design.rows(), 400);
  EXPECT_EQ(Small().design.cols(), 191);
  EXPECT_EQ(Medium().design.rows(), 1600);
  EXPECT_EQ(Medium().design.cols(), 576);
}

/// Query 4's spectrum, independently: G = X^T X formed in long double,
/// reduced to tridiagonal by a test-local long-double Householder loop on
/// the full matrix (top-down, both triangles updated), and queried by Sturm
/// counts.
struct GramSpectrum {
  std::vector<long double> diag;
  std::vector<long double> off;  ///< off[i] couples diag[i] and diag[i+1].
  long double trace = 0;

  /// Eigenvalues of G above x: n minus the negative pivots of the LDL^T
  /// of T - x I, which is stable for a tridiagonal T (a zero pivot is
  /// nudged, as in LAPACK's dstebz).
  int64_t CountAbove(long double x) const {
    const int64_t n = static_cast<int64_t>(diag.size());
    int64_t below = 0;
    long double q = 1;
    for (int64_t i = 0; i < n; ++i) {
      const long double c = i == 0 ? 0 : off[i - 1] * off[i - 1];
      q = diag[i] - x - (i == 0 ? 0 : c / q);
      if (q == 0) q = -LDBL_MIN;
      if (q < 0) ++below;
    }
    return n - below;
  }
};

GramSpectrum BuildGramSpectrum(const linalg::MatrixView& x) {
  const int64_t m = x.rows;
  const int64_t n = x.cols;
  std::vector<long double> g(static_cast<size_t>(n * n), 0);
  auto at = [&g, n](int64_t i, int64_t j) -> long double& {
    return g[static_cast<size_t>(i * n + j)];
  };
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t i = 0; i < n; ++i) {
      const long double xi = x(r, i);
      if (xi == 0) continue;
      for (int64_t j = 0; j <= i; ++j) at(i, j) += xi * x(r, j);
    }
  }
  GramSpectrum s;
  for (int64_t i = 0; i < n; ++i) {
    s.trace += at(i, i);
    for (int64_t j = 0; j < i; ++j) at(j, i) = at(i, j);
  }
  // Column k's reflector zeroes G(k+2:n, k); H G H on the trailing block
  // k+1.. as p = tau G u, w = p - (tau/2)(p . u) u, G -= u w^T + w u^T.
  std::vector<long double> u(static_cast<size_t>(n)), w(static_cast<size_t>(n));
  for (int64_t k = 0; k + 2 < n; ++k) {
    long double tail2 = 0;
    for (int64_t i = k + 2; i < n; ++i) tail2 += at(i, k) * at(i, k);
    if (tail2 == 0) continue;
    const long double alpha = at(k + 1, k);
    const long double norm = std::sqrt(alpha * alpha + tail2);
    const long double beta = alpha >= 0 ? -norm : norm;
    u[static_cast<size_t>(k + 1)] = alpha - beta;
    for (int64_t i = k + 2; i < n; ++i) u[static_cast<size_t>(i)] = at(i, k);
    long double utu = 0;
    for (int64_t i = k + 1; i < n; ++i) {
      utu += u[static_cast<size_t>(i)] * u[static_cast<size_t>(i)];
    }
    const long double tau = 2 / utu;
    long double pu = 0;
    for (int64_t i = k + 1; i < n; ++i) {
      long double p = 0;
      for (int64_t j = k + 1; j < n; ++j) p += at(i, j) * u[static_cast<size_t>(j)];
      w[static_cast<size_t>(i)] = tau * p;
      pu += w[static_cast<size_t>(i)] * u[static_cast<size_t>(i)];
    }
    for (int64_t i = k + 1; i < n; ++i) {
      w[static_cast<size_t>(i)] -= tau / 2 * pu * u[static_cast<size_t>(i)];
    }
    for (int64_t i = k + 1; i < n; ++i) {
      for (int64_t j = k + 1; j < n; ++j) {
        at(i, j) -= u[static_cast<size_t>(i)] * w[static_cast<size_t>(j)] +
                    w[static_cast<size_t>(i)] * u[static_cast<size_t>(j)];
      }
    }
    at(k + 1, k) = at(k, k + 1) = beta;
    for (int64_t i = k + 2; i < n; ++i) at(i, k) = at(k, i) = 0;
  }
  s.diag.resize(static_cast<size_t>(n));
  s.off.assign(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    s.diag[static_cast<size_t>(i)] = at(i, i);
    if (i + 1 < n) s.off[static_cast<size_t>(i)] = at(i + 1, i);
  }
  return s;
}

/// Certifies the i-th returned singular value (1-based) by inertia: with
/// lambda_i = sigma_i^2 and eta = delta / lambda_i, at most i - 1 of G's
/// eigenvalues lie above lambda_i (1 + eta) and at least i above
/// lambda_i (1 - eta), so the true i-th eigenvalue is within delta of
/// lambda_i. delta = (m + n) eps tr(G) covers a backward-stable solve: Syrk
/// forms G with entrywise error m eps |X|^T |X|, whose norm is at most
/// m eps tr(G), and the Householder reduction and QL add O(n eps ||G||).
/// A wrong reflector or a skipped update moves eigenvalues by O(||G||).
void ExpectCertified(const GramSpectrum& spectrum, int64_t m,
                     const std::vector<double>& sigma,
                     const std::vector<int>& which, const std::string& where) {
  const int64_t n = static_cast<int64_t>(spectrum.diag.size());
  const long double delta =
      static_cast<long double>(m + n) * DBL_EPSILON * spectrum.trace;
  for (const int i : which) {
    ASSERT_LE(static_cast<size_t>(i), sigma.size()) << where;
    const long double lambda =
        static_cast<long double>(sigma[static_cast<size_t>(i - 1)]) *
        sigma[static_cast<size_t>(i - 1)];
    EXPECT_LE(spectrum.CountAbove(lambda + delta), i - 1)
        << where << ": lambda_" << i << " = " << static_cast<double>(lambda)
        << " is too small (delta " << static_cast<double>(delta) << ")";
    EXPECT_GE(spectrum.CountAbove(lambda - delta), i)
        << where << ": lambda_" << i << " = " << static_cast<double>(lambda)
        << " is too large (delta " << static_cast<double>(delta) << ")";
  }
}

TEST_F(CertificateTest, Q4SingularValuesPassTheInertiaCertificate) {
  // All 50 values on small; i = 1, 25, 50 on medium keeps the run short.
  std::vector<int> all(50);
  for (int i = 0; i < 50; ++i) all[static_cast<size_t>(i)] = i + 1;
  const std::vector<int> spot = {1, 25, 50};
  for (const Q1Inputs* in : {&Small(), &Medium()}) {
    const linalg::MatrixView x = GeneMatrix(*in);
    const GramSpectrum spectrum = BuildGramSpectrum(x);
    for (const simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kSimd}) {
      ScopedBackend scoped(backend);
      const std::string where = std::to_string(x.rows) + "x" +
                                std::to_string(x.cols) + " " +
                                simd::BackendName(backend);
      auto svd = SvdAnalytics(x, 50, linalg::KernelQuality::kTuned, nullptr);
      ASSERT_TRUE(svd.ok()) << where << ": " << svd.status().ToString();
      ExpectCertified(spectrum, x.rows, svd->singular_values,
                      in == &Small() ? all : spot, where);
    }
  }
}

TEST_F(CertificateTest, Q4ReportsMethodAndConvergence) {
  // Tuned kernels answer small and medium by the dense Gram eigensolve:
  // no iterations, converged by construction. Naive kernels (the
  // per-iteration cost models) keep Lanczos, which on medium stops at the
  // 2k + 120 = 220-step cap unconverged (sigma_50 and sigma_51 are 0.3%
  // apart), and the summary has to say so.
  for (const Q1Inputs* in : {&Small(), &Medium()}) {
    auto tuned = SvdAnalytics(GeneMatrix(*in), 50,
                              linalg::KernelQuality::kTuned, nullptr);
    ASSERT_TRUE(tuned.ok());
    EXPECT_EQ(tuned->method, linalg::SvdMethod::kDense);
    EXPECT_EQ(tuned->iterations, 0);
    EXPECT_TRUE(tuned->converged);
    QueryResult result;
    result.query = QueryId::kSvd;
    result.svd = *tuned;
    EXPECT_NE(result.ToString().find("method=dense iterations=0 converged=1"),
              std::string::npos)
        << result.ToString();
  }

  auto naive = SvdAnalytics(GeneMatrix(Medium()), 50,
                            linalg::KernelQuality::kNaive, nullptr);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->method, linalg::SvdMethod::kLanczos);
  EXPECT_FALSE(naive->converged);
  EXPECT_EQ(naive->iterations, 220);
  QueryResult result;
  result.query = QueryId::kSvd;
  result.svd = *naive;
  EXPECT_NE(
      result.ToString().find("method=lanczos iterations=220 converged=0"),
      std::string::npos)
      << result.ToString();
}

}  // namespace
}  // namespace genbase::core
