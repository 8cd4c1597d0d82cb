#ifndef GENBASE_LINALG_SVD_H_
#define GENBASE_LINALG_SVD_H_

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
  bool reorthogonalize = true;
};

/// \brief Computes the top-k singular triplets of A via Lanczos on the
/// Gram operator v -> A^T (A v) (never formed explicitly). sigma_i =
/// sqrt(lambda_i); u_i = A v_i / sigma_i. Matches the paper's use of the
/// Lanczos power method for Query 4.
genbase::Result<SvdResult> TruncatedSvd(const MatrixView& a,
                                        const SvdOptions& options,
                                        ExecContext* ctx = nullptr);

/// \brief Singular values only, from the same Lanczos iteration as
/// TruncatedSvd (bitwise-equal values and iteration count) but without
/// forming Ritz vectors or U. What Query 4 reports.
struct SingularValuesResult {
  std::vector<double> singular_values;  ///< Descending.
  int lanczos_iterations = 0;
  /// Every requested Ritz value met the tolerance before the iteration cap
  /// (LanczosResult::converged). When false the values are estimates from
  /// the last iteration run.
  bool converged = false;
};

genbase::Result<SingularValuesResult> TruncatedSingularValues(
    const MatrixView& a, const SvdOptions& options,
    ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_SVD_H_
