#ifndef GENBASE_LINALG_LANCZOS_H_
#define GENBASE_LINALG_LANCZOS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Matrix-free symmetric linear operator: y = A x.
struct LinearOperator {
  int64_t n = 0;
  std::function<genbase::Status(const double* x, double* y)> apply;
};

/// The automatic iteration cap for k eigenpairs of an n-dimensional
/// operator: min(n, 2k + 120), with k clamped to n.
int LanczosIterationCap(int64_t n, int num_eigenpairs);

struct LanczosOptions {
  int num_eigenpairs = 50;     ///< k: the paper's Query 4 asks for 50.
  int max_iterations = 0;      ///< 0 = auto (LanczosIterationCap).
  double tolerance = 1e-10;    ///< Residual tolerance relative to |theta|.
  uint64_t seed = 42;          ///< Starting-vector seed (deterministic).
  bool compute_vectors = true;
};

struct LanczosResult {
  std::vector<double> eigenvalues;  ///< Descending, length <= k.
  Matrix eigenvectors;              ///< n x k Ritz vectors (if requested).
  int iterations = 0;
  bool converged = false;
};

/// \brief Lanczos iteration with full reorthogonalization for the largest
/// eigenpairs of a symmetric positive semidefinite operator.
///
/// This is the algorithm GenBase names for Query 4: "the Lanczos algorithm,
/// which is a power method that can iteratively find the largest eigenvalues
/// of symmetric positive semidefinite matrices." Full reorthogonalization
/// (two-pass modified Gram-Schmidt against the stored basis) keeps the basis
/// orthogonal at the cost of O(iter * n) extra work per step; the ablation
/// bench (BM_LanczosNoReorth) compares against no reorthogonalization. The
/// per-step convergence test solves the projected tridiagonal problem for
/// its eigenvalues and the bottom row of its eigenvectors only (O(iter^2));
/// the full eigenvector matrix is formed once, after the loop, and only when
/// compute_vectors is set.
genbase::Result<LanczosResult> LanczosLargestEigenpairs(
    const LinearOperator& op, const LanczosOptions& options,
    ExecContext* ctx = nullptr);

/// \brief Variant without reorthogonalization (classic three-term recurrence
/// only). Converges on easy spectra, loses orthogonality on clustered ones;
/// exists for the ablation study.
genbase::Result<LanczosResult> LanczosNoReorth(const LinearOperator& op,
                                               const LanczosOptions& options,
                                               ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_LANCZOS_H_
