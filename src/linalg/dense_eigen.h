#ifndef GENBASE_LINALG_DENSE_EIGEN_H_
#define GENBASE_LINALG_DENSE_EIGEN_H_

#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Householder reduction of a symmetric matrix to tridiagonal form,
/// T = Q^T A Q, values only (Q is never formed).
///
/// Reads and writes the lower triangle of the n x n matrix `a` only (the
/// strict upper triangle is neither read nor written) and destroys it. On
/// success `diag` holds T's n diagonal entries and `off` its n - 1
/// sub-diagonal entries plus a trailing zero, the layout
/// SymmetricTridiagonalEigen takes. 4/3 n^3 flops, every one of them in a
/// contiguous row sweep. Calls ctx->CheckBudgets() every 16 columns.
genbase::Status HouseholderTridiagonalize(Matrix* a, std::vector<double>* diag,
                                          std::vector<double>* off,
                                          ExecContext* ctx = nullptr);

/// \brief All eigenvalues of the symmetric matrix `a` (lower triangle read),
/// ascending: HouseholderTridiagonalize, then SymmetricTridiagonalEigen
/// without eigenvectors. The dense path of Query 4's singular values.
genbase::Result<std::vector<double>> SymmetricEigenvalues(
    Matrix a, ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_DENSE_EIGEN_H_
