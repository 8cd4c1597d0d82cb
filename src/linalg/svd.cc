#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"

namespace genbase::linalg {

namespace {

/// Lanczos on the Gram operator v -> A^T (A v), never formed explicitly.
/// The one iteration behind both TruncatedSvd and TruncatedSingularValues.
genbase::Result<LanczosResult> GramLanczos(const MatrixView& a,
                                           const SvdOptions& options,
                                           bool compute_vectors,
                                           ExecContext* ctx) {
  const int64_t m = a.rows;
  const int64_t n = a.cols;
  if (m == 0 || n == 0) return Status::InvalidArgument("empty matrix in SVD");
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  const bool tuned = options.quality == KernelQuality::kTuned;

  // Naive-path temp buffer, reused across applications.
  std::vector<double> tmp(tuned ? 0 : static_cast<size_t>(m));
  LinearOperator op;
  op.n = n;
  op.apply = [&](const double* x, double* y) -> genbase::Status {
    if (tuned) {
      GramApply(a, x, y, pool);
    } else {
      // Naive path: no parallelism, no unrolled dot products.
      for (int64_t i = 0; i < m; ++i) {
        double s = 0;
        for (int64_t j = 0; j < n; ++j) s += a(i, j) * x[j];
        tmp[static_cast<size_t>(i)] = s;
      }
      for (int64_t j = 0; j < n; ++j) {
        double s = 0;
        for (int64_t i = 0; i < m; ++i) s += a(i, j) * tmp[i];
        y[j] = s;
      }
    }
    if (ctx != nullptr) return ctx->CheckBudgets();
    return genbase::Status::OK();
  };

  LanczosOptions lopt;
  lopt.num_eigenpairs = std::min<int>(options.rank, static_cast<int>(n));
  lopt.tolerance = options.tolerance;
  lopt.seed = options.seed;
  lopt.compute_vectors = compute_vectors;
  return options.reorthogonalize ? LanczosLargestEigenpairs(op, lopt, ctx)
                                 : LanczosNoReorth(op, lopt, ctx);
}

/// sigma_i = sqrt(max(0, lambda_i)).
std::vector<double> SingularValues(const std::vector<double>& eigenvalues) {
  std::vector<double> sigma;
  sigma.reserve(eigenvalues.size());
  for (double lambda : eigenvalues) {
    sigma.push_back(std::sqrt(std::max(0.0, lambda)));
  }
  return sigma;
}

}  // namespace

genbase::Result<SvdResult> TruncatedSvd(const MatrixView& a,
                                        const SvdOptions& options,
                                        ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      LanczosResult lr, GramLanczos(a, options, /*compute_vectors=*/true, ctx));
  const int64_t m = a.rows;
  const int64_t n = a.cols;
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;

  SvdResult out;
  out.lanczos_iterations = lr.iterations;
  out.singular_values = SingularValues(lr.eigenvalues);
  const int k = static_cast<int>(out.singular_values.size());
  out.v = std::move(lr.eigenvectors);
  out.u = Matrix(m, k);
  std::vector<double> av(static_cast<size_t>(m));
  std::vector<double> vcol(static_cast<size_t>(n));
  for (int i = 0; i < k; ++i) {
    const double sigma = out.singular_values[i];
    for (int64_t t = 0; t < n; ++t) vcol[t] = out.v(t, i);
    Gemv(a, vcol.data(), av.data(), pool);
    if (sigma > 1e-12) {
      for (int64_t t = 0; t < m; ++t) out.u(t, i) = av[t] / sigma;
    }
  }
  return out;
}

genbase::Result<SingularValuesResult> TruncatedSingularValues(
    const MatrixView& a, const SvdOptions& options, ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      LanczosResult lr,
      GramLanczos(a, options, /*compute_vectors=*/false, ctx));
  SingularValuesResult out;
  out.singular_values = SingularValues(lr.eigenvalues);
  out.lanczos_iterations = lr.iterations;
  return out;
}

}  // namespace genbase::linalg
