#include "linalg/covariance.h"

#include <algorithm>
#include <vector>

#include "linalg/blas.h"

namespace genbase::linalg {

std::vector<double> ColumnMeans(const MatrixView& x) {
  std::vector<double> means(static_cast<size_t>(x.cols), 0.0);
  for (int64_t i = 0; i < x.rows; ++i) {
    const double* row = x.data + i * x.stride;
    for (int64_t j = 0; j < x.cols; ++j) means[j] += row[j];
  }
  const double inv = x.rows > 0 ? 1.0 / static_cast<double>(x.rows) : 0.0;
  for (auto& m : means) m *= inv;
  return means;
}

genbase::Result<Matrix> CovarianceMatrix(const MatrixView& x,
                                         KernelQuality quality,
                                         ExecContext* ctx) {
  if (x.rows < 2) {
    return Status::InvalidArgument("covariance needs at least 2 samples");
  }
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;

  const std::vector<double> means = ColumnMeans(x);
  GENBASE_ASSIGN_OR_RETURN(Matrix cov,
                           Matrix::Create(x.cols, x.cols, tracker));
  if (quality == KernelQuality::kTuned) {
    // One-pass fused path: SyrkCentered subtracts the means inside the
    // panel packing, so the m x n centered copy the old implementation
    // materialized (and charged to the memory budget) no longer exists.
    GENBASE_RETURN_NOT_OK(SyrkCentered(x, means.data(), &cov, pool, ctx));
  } else {
    // The naive path models Mahout-style hand-rolled analytics: it still
    // materializes the centered matrix and runs the unblocked Syrk.
    GENBASE_ASSIGN_OR_RETURN(Matrix centered,
                             Matrix::Create(x.rows, x.cols, tracker));
    for (int64_t i = 0; i < x.rows; ++i) {
      const double* src = x.data + i * x.stride;
      double* dst = centered.Row(i);
      for (int64_t j = 0; j < x.cols; ++j) dst[j] = src[j] - means[j];
    }
    GENBASE_RETURN_NOT_OK(SyrkNaive(MatrixView(centered), &cov, ctx));
  }
  const double inv = 1.0 / static_cast<double>(x.rows - 1);
  for (int64_t i = 0; i < cov.size(); ++i) cov.data()[i] *= inv;
  return cov;
}

}  // namespace genbase::linalg
