#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/tridiag.h"

namespace genbase::linalg {

namespace {

genbase::Result<LanczosResult> LanczosImpl(const LinearOperator& op,
                                           const LanczosOptions& options,
                                           bool reorthogonalize,
                                           ExecContext* ctx) {
  const int64_t n = op.n;
  if (n <= 0) return Status::InvalidArgument("operator dimension must be > 0");
  const int k = std::min<int>(options.num_eigenpairs, static_cast<int>(n));
  const int max_iter =
      options.max_iterations > 0
          ? std::min<int>(options.max_iterations, static_cast<int>(n))
          : LanczosIterationCap(n, k);

  // Lanczos basis, one row per iteration (row-major keeps reorth contiguous).
  Matrix basis(max_iter, n);
  std::vector<double> alpha, beta;
  alpha.reserve(max_iter);
  beta.reserve(max_iter);

  Rng rng(options.seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.Gaussian();
  {
    const double nv = Nrm2(v.data(), n);
    Scal(1.0 / nv, v.data(), n);
  }
  std::copy(v.begin(), v.end(), basis.Row(0));

  std::vector<double> w(static_cast<size_t>(n), 0.0);
  int j = 0;
  bool converged = false;

  for (j = 0; j < max_iter; ++j) {
    if (ctx != nullptr) {
      Status st = ctx->CheckBudgets();
      if (!st.ok()) return st;
    }
    const double* vj = basis.Row(j);
    GENBASE_RETURN_NOT_OK(op.apply(vj, w.data()));
    const double a_j = Dot(vj, w.data(), n);
    alpha.push_back(a_j);
    // w -= alpha_j v_j + beta_{j-1} v_{j-1}.
    Axpy(-a_j, vj, w.data(), n);
    if (j > 0) Axpy(-beta[j - 1], basis.Row(j - 1), w.data(), n);
    if (reorthogonalize) {
      // Two-pass modified Gram-Schmidt against the whole stored basis.
      for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i <= j; ++i) {
          const double c = Dot(basis.Row(i), w.data(), n);
          if (c != 0.0) Axpy(-c, basis.Row(i), w.data(), n);
        }
      }
    }
    const double b_j = Nrm2(w.data(), n);

    // Convergence test on the projected (tridiagonal) problem. The residual
    // bound of Ritz pair i is |beta_j * s_{m,i}|, so only the bottom row of
    // T_m's eigenvector matrix is needed: rotate the unit row e_m^T instead
    // of the m x m identity (O(m^2) per step instead of O(m^3)).
    const int m = j + 1;
    if (m >= k || b_j <= 1e-300) {
      std::vector<double> d(alpha.begin(), alpha.end());
      std::vector<double> e(beta.begin(), beta.end());
      e.resize(static_cast<size_t>(m), 0.0);
      Matrix bottom(1, m);
      bottom(0, m - 1) = 1.0;
      GENBASE_RETURN_NOT_OK(SymmetricTridiagonalEigen(&d, &e, &bottom));
      bool all_ok = m >= k;
      for (int i = 0; i < k && all_ok; ++i) {
        const int col = m - 1 - i;  // Largest eigenvalues at the end.
        const double resid = std::fabs(b_j * bottom(0, col));
        const double scale = std::max(1e-30, std::fabs(d[col]));
        if (resid > options.tolerance * scale) all_ok = false;
      }
      // b_j == 0: invariant subspace, T_m is exact and nothing is left.
      if (all_ok || b_j <= 1e-300 || m == max_iter) {
        converged = all_ok;
        ++j;
        break;
      }
    }

    beta.push_back(b_j);
    if (j + 1 < max_iter) {
      double* vnext = basis.Row(j + 1);
      for (int64_t i = 0; i < n; ++i) vnext[i] = w[i] / b_j;
    }
  }

  // The one full eigendecomposition of T_m; eigenvectors only if the Ritz
  // vectors are wanted.
  const int m = std::min<int>(j, static_cast<int>(alpha.size()));
  std::vector<double> theta(alpha.begin(), alpha.begin() + m);  // Ascending.
  std::vector<double> e(beta.begin(), beta.begin() + std::max(0, m - 1));
  e.resize(static_cast<size_t>(m), 0.0);
  Matrix s;  // Eigenvectors of T_m.
  if (options.compute_vectors) {
    s = Matrix(m, m);
    for (int i = 0; i < m; ++i) s(i, i) = 1.0;
  }
  GENBASE_RETURN_NOT_OK(SymmetricTridiagonalEigen(
      &theta, &e, options.compute_vectors ? &s : nullptr));

  LanczosResult result;
  result.iterations = m;
  result.converged = converged;
  const int found = std::min<int>(k, static_cast<int>(theta.size()));
  result.eigenvalues.resize(found);
  for (int i = 0; i < found; ++i) {
    result.eigenvalues[i] = theta[theta.size() - 1 - i];  // Descending.
  }
  if (options.compute_vectors) {
    result.eigenvectors = Matrix(n, found);
    // Ritz vector i = sum_r basis[r] * s(r, col_i).
    for (int i = 0; i < found; ++i) {
      const int col = static_cast<int>(theta.size()) - 1 - i;
      for (int r = 0; r < m; ++r) {
        const double c = s(r, col);
        if (c == 0.0) continue;
        const double* br = basis.Row(r);
        for (int64_t t = 0; t < n; ++t) result.eigenvectors(t, i) += c * br[t];
      }
      // Normalize (defensive; should already be unit norm).
      double nrm = 0;
      for (int64_t t = 0; t < n; ++t) {
        nrm += result.eigenvectors(t, i) * result.eigenvectors(t, i);
      }
      nrm = std::sqrt(nrm);
      if (nrm > 0) {
        for (int64_t t = 0; t < n; ++t) result.eigenvectors(t, i) /= nrm;
      }
    }
  }
  return result;
}

}  // namespace

int LanczosIterationCap(int64_t n, int num_eigenpairs) {
  const int64_t k = std::min<int64_t>(num_eigenpairs, n);
  return static_cast<int>(std::min<int64_t>(n, 2 * k + 120));
}

genbase::Result<LanczosResult> LanczosLargestEigenpairs(
    const LinearOperator& op, const LanczosOptions& options,
    ExecContext* ctx) {
  return LanczosImpl(op, options, /*reorthogonalize=*/true, ctx);
}

genbase::Result<LanczosResult> LanczosNoReorth(const LinearOperator& op,
                                               const LanczosOptions& options,
                                               ExecContext* ctx) {
  return LanczosImpl(op, options, /*reorthogonalize=*/false, ctx);
}

}  // namespace genbase::linalg
