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

TEST_F(CertificateTest, Q4ReportsWhetherLanczosConverged) {
  // Rank 50 at tolerance 1e-9: the small input converges before the
  // 2k + 120 = 220-iteration cap; the medium input stops at the cap
  // unconverged, and the summary has to say so.
  auto small = SvdAnalytics(GeneMatrix(Small()), 50,
                            linalg::KernelQuality::kTuned, nullptr);
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->converged);
  EXPECT_LT(small->iterations, 220);

  auto medium = SvdAnalytics(GeneMatrix(Medium()), 50,
                             linalg::KernelQuality::kTuned, nullptr);
  ASSERT_TRUE(medium.ok());
  EXPECT_FALSE(medium->converged);
  EXPECT_EQ(medium->iterations, 220);
  QueryResult result;
  result.query = QueryId::kSvd;
  result.svd = *medium;
  EXPECT_NE(result.ToString().find("converged=0"), std::string::npos)
      << result.ToString();
}

}  // namespace
}  // namespace genbase::core
