#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"
#include "linalg/dense_eigen.h"

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
  return LanczosLargestEigenpairs(op, lopt, ctx);
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

/// The cost rule's weight: the dense path is chosen while its flops stay
/// under this multiple of Lanczos'. Flops are counted as
///   dense   = m n^2 (Syrk, upper triangle) + 4/3 n^3 (tridiagonalization),
///   Lanczos = s (4 m n + 4 n s) for s = LanczosIterationCap(n, k) steps
///             (GramApply plus two-pass reorthogonalization),
/// leaving out the O(n^2) QL and Lanczos' per-step convergence tests.
/// kernelbench's svd_values series (AVX2, one thread, 4-vCPU Xeon VM,
/// medians of three) measured Lanczos at 2.1-5.4x the dense path's seconds
/// per counted flop on the generator's Q4 shapes: its convergence tests
/// and memory-bound Gram applications run far below Syrk's rate. The
/// dense / Lanczos flop ratio is 0.28, 0.85, 1.81 and 3.88 for 400 x 190,
/// 1600 x 575, 3200 x 1150 and 5600 x 2300, where dense ran 19x, 4.6x and
/// 1.15x faster and Lanczos 1.34x faster; a weight of 3 (the per-flop
/// ratio measured on the two shapes around the crossover was 2.1x and
/// 2.9x) puts the first three on the dense path and xlarge on Lanczos.
constexpr double kLanczosFlopWeight = 3.0;

}  // namespace

const char* SvdMethodName(SvdMethod method) {
  return method == SvdMethod::kDense ? "dense" : "lanczos";
}

SvdMethod ChooseSvdMethod(int64_t rows, int64_t cols, int rank,
                          KernelQuality quality) {
  // Wide inputs keep Lanczos: G = A^T A would be larger than A and rank
  // deficient.
  if (quality != KernelQuality::kTuned || rows < cols || cols == 0) {
    return SvdMethod::kLanczos;
  }
  const double m = static_cast<double>(rows);
  const double n = static_cast<double>(cols);
  const double s = LanczosIterationCap(cols, rank);
  const double dense = m * n * n + 4.0 / 3.0 * n * n * n;
  const double lanczos = s * (4.0 * m * n + 4.0 * n * s);
  return dense < kLanczosFlopWeight * lanczos ? SvdMethod::kDense
                                              : SvdMethod::kLanczos;
}

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

genbase::Result<SingularValuesResult> LanczosSingularValues(
    const MatrixView& a, const SvdOptions& options, ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      LanczosResult lr,
      GramLanczos(a, options, /*compute_vectors=*/false, ctx));
  SingularValuesResult out;
  out.singular_values = SingularValues(lr.eigenvalues);
  out.lanczos_iterations = lr.iterations;
  out.converged = lr.converged;
  return out;
}

genbase::Result<SingularValuesResult> DenseSingularValues(
    const MatrixView& a, const SvdOptions& options, ExecContext* ctx) {
  const int64_t n = a.cols;
  if (a.rows == 0 || n == 0) {
    return Status::InvalidArgument("empty matrix in SVD");
  }
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(Matrix g, Matrix::Create(n, n, tracker));
  GENBASE_RETURN_NOT_OK(
      Syrk(a, &g, ctx != nullptr ? ctx->pool() : nullptr, ctx));
  GENBASE_ASSIGN_OR_RETURN(std::vector<double> lambda,
                           SymmetricEigenvalues(std::move(g), ctx));
  const int64_t k = std::clamp<int64_t>(options.rank, 0, n);
  SingularValuesResult out;
  out.singular_values = SingularValues(  // Ascending -> descending top k.
      std::vector<double>(lambda.rbegin(), lambda.rbegin() + k));
  out.method = SvdMethod::kDense;
  out.converged = true;
  return out;
}

genbase::Result<SingularValuesResult> TruncatedSingularValues(
    const MatrixView& a, const SvdOptions& options, ExecContext* ctx) {
  if (ChooseSvdMethod(a.rows, a.cols, options.rank, options.quality) ==
      SvdMethod::kDense) {
    return DenseSingularValues(a, options, ctx);
  }
  return LanczosSingularValues(a, options, ctx);
}

}  // namespace genbase::linalg
