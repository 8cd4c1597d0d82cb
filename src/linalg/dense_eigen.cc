#include "linalg/dense_eigen.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"
#include "linalg/tridiag.h"

namespace genbase::linalg {

// Implementation note: the reduction is LAPACK's unblocked dsytd2 with
// uplo = 'U', run on the row-major lower triangle. A row-major lower
// triangle is the column-major upper triangle of the same symmetric matrix,
// so dsytd2's columns above the diagonal are this layout's rows left of it:
// contiguous. Step j (from the bottom row up) builds the reflector
// H = I - tau v v^T that maps row j's first j entries onto a multiple of
// e_{j-1}, then applies H B H to the leading j x j block B as
//   p = tau B v,  w = p - (tau/2)(p . v) v,  B <- B - v w^T - w v^T
// (symv, then syr2). Both sweep B's lower rows: row i gives p_i a dot
// product and p[0:i) an axpy, and takes two axpys in the update. Rows below
// the block are never touched again, so d[j] is final when step j reads it.

genbase::Status HouseholderTridiagonalize(Matrix* a, std::vector<double>* diag,
                                          std::vector<double>* off,
                                          ExecContext* ctx) {
  const int64_t n = a->rows();
  if (a->cols() != n) {
    return Status::InvalidArgument("tridiagonalization needs a square matrix");
  }
  std::vector<double>& d = *diag;
  std::vector<double>& e = *off;
  d.assign(static_cast<size_t>(n), 0.0);
  e.assign(static_cast<size_t>(n), 0.0);
  if (n == 0) return Status::OK();
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      ScopedReservation ws_reservation,
      ScopedReservation::Acquire(
          tracker, 2 * n * static_cast<int64_t>(sizeof(double))));
  std::vector<double> v(static_cast<size_t>(n));
  std::vector<double> p(static_cast<size_t>(n));
  for (int64_t j = n - 1; j >= 1; --j) {
    if (ctx != nullptr && ((n - 1 - j) & 15) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const double* x = a->Row(j);
    d[j] = x[j];
    // Reflector (dlarfg): keeps x[j-1]'s slot, zeroes x[0:j-1).
    const double alpha = x[j - 1];
    const double xnorm = std::sqrt(Dot(x, x, j - 1));
    if (xnorm == 0.0) {
      e[j - 1] = alpha;  // Already tridiagonal in this row: H = I.
      continue;
    }
    const double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
    const double tau = (beta - alpha) / beta;
    const double inv = 1.0 / (alpha - beta);
    for (int64_t i = 0; i < j - 1; ++i) v[i] = x[i] * inv;
    v[j - 1] = 1.0;
    e[j - 1] = beta;

    // p = tau B v from B's lower rows.
    std::fill(p.begin(), p.begin() + j, 0.0);
    for (int64_t i = 0; i < j; ++i) {
      const double* row = a->Row(i);
      p[i] += Dot(row, v.data(), i) + row[i] * v[i];
      Axpy(v[i], row, p.data(), i);
    }
    Scal(tau, p.data(), j);
    // w = p - (tau/2)(p . v) v, kept in p.
    Axpy(-0.5 * tau * Dot(p.data(), v.data(), j), v.data(), p.data(), j);
    // B <- B - v w^T - w v^T on the lower rows.
    for (int64_t i = 0; i < j; ++i) {
      double* row = a->Row(i);
      Axpy(-v[i], p.data(), row, i + 1);
      Axpy(-p[i], v.data(), row, i + 1);
    }
  }
  d[0] = (*a)(0, 0);
  return Status::OK();
}

genbase::Result<std::vector<double>> SymmetricEigenvalues(Matrix a,
                                                          ExecContext* ctx) {
  std::vector<double> d, e;
  GENBASE_RETURN_NOT_OK(HouseholderTridiagonalize(&a, &d, &e, ctx));
  a = Matrix();  // Release the reduced matrix before QL.
  GENBASE_RETURN_NOT_OK(SymmetricTridiagonalEigen(&d, &e, nullptr));
  return d;
}

}  // namespace genbase::linalg
