#ifndef GENBASE_LINALG_SVD_H_
#define GENBASE_LINALG_SVD_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/covariance.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Truncated singular value decomposition A ~= U diag(sigma) V^T.
struct SvdResult {
  std::vector<double> singular_values;  ///< Descending.
  Matrix u;                             ///< m x k left singular vectors.
  Matrix v;                             ///< n x k right singular vectors.
  int lanczos_iterations = 0;
};

struct SvdOptions {
  int rank = 50;               ///< Paper Query 4: top 50.
  double tolerance = 1e-9;
  uint64_t seed = 42;
  KernelQuality quality = KernelQuality::kTuned;
};

/// \brief Computes the top-k singular triplets of A via Lanczos on the
/// Gram operator v -> A^T (A v) (never formed explicitly). sigma_i =
/// sqrt(lambda_i); u_i = A v_i / sigma_i. Matches the paper's use of the
/// Lanczos power method for Query 4.
genbase::Result<SvdResult> TruncatedSvd(const MatrixView& a,
                                        const SvdOptions& options,
                                        ExecContext* ctx = nullptr);

/// \brief How TruncatedSingularValues found the values.
enum class SvdMethod : uint8_t {
  /// Lanczos on the Gram operator: TruncatedSvd's iteration without Ritz
  /// vectors (bitwise-equal values and iteration count).
  kLanczos,
  /// G = A^T A formed by Syrk, reduced to tridiagonal by Householder
  /// (HouseholderTridiagonalize) and solved by QL for all its eigenvalues:
  /// exact up to rounding, no iteration.
  kDense,
};

/// "lanczos" or "dense".
const char* SvdMethodName(SvdMethod method);

/// \brief The deterministic cost rule behind TruncatedSingularValues: the
/// dense Gram eigensolve for tuned kernels on tall inputs whose dense flops
/// are under kLanczosFlopWeight times Lanczos' (see svd.cc), else Lanczos.
/// Naive quality always takes Lanczos: the engines that model per-iteration
/// systems (Mahout jobs, plpython cells) charge by its iteration count.
SvdMethod ChooseSvdMethod(int64_t rows, int64_t cols, int rank,
                          KernelQuality quality);

/// \brief Top-k singular values only, without U or V. What Query 4 reports.
struct SingularValuesResult {
  std::vector<double> singular_values;  ///< Descending.
  SvdMethod method = SvdMethod::kLanczos;
  int lanczos_iterations = 0;  ///< 0 on the dense path.
  /// Lanczos: every requested Ritz value met the tolerance before the
  /// iteration cap (LanczosResult::converged); when false the values are
  /// estimates from the last iteration run. Dense: always true.
  bool converged = false;
};

/// Singular values by the method ChooseSvdMethod picks for a's shape,
/// options.rank and options.quality. The one entry Query 4 calls.
genbase::Result<SingularValuesResult> TruncatedSingularValues(
    const MatrixView& a, const SvdOptions& options,
    ExecContext* ctx = nullptr);

/// The two methods behind TruncatedSingularValues, for benches and tests
/// that time or check one regardless of the rule. The dense path always
/// runs the tuned Syrk and reads only options.rank. G (n x n) and the
/// reduction's workspace are charged to ctx->memory().
genbase::Result<SingularValuesResult> LanczosSingularValues(
    const MatrixView& a, const SvdOptions& options,
    ExecContext* ctx = nullptr);
genbase::Result<SingularValuesResult> DenseSingularValues(
    const MatrixView& a, const SvdOptions& options,
    ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_SVD_H_
