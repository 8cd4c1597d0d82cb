#ifndef GENBASE_LINALG_TRIDIAG_H_
#define GENBASE_LINALG_TRIDIAG_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Eigen decomposition of a symmetric tridiagonal matrix via the
/// implicit QL algorithm with Wilkinson shifts (EISPACK tql2 lineage).
///
/// On entry, diag has length n and off has length n (off[n-1] unused). On
/// success, diag holds the eigenvalues in ascending order. If z is non-null
/// it must have n columns and any number r of rows; every QL rotation is
/// applied to the columns of each of its rows, which are then permuted with
/// the eigenvalues. Starting from the n x n identity, z ends up holding the
/// eigenvectors in its columns. Starting from the 1 x n unit row e_{n-1}^T,
/// it ends up holding only their last components (the bottom row of the
/// eigenvector matrix), in O(n^2) rather than O(n^3). The rotations never
/// depend on z, so diag comes out bitwise the same for any r, and each row
/// of z comes out bitwise as the same row would in a larger z. Used to solve
/// the projected problem inside the Lanczos SVD of GenBase Query 4.
genbase::Status SymmetricTridiagonalEigen(std::vector<double>* diag,
                                          std::vector<double>* off,
                                          Matrix* z = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_TRIDIAG_H_
