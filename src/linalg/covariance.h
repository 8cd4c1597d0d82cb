#ifndef GENBASE_LINALG_COVARIANCE_H_
#define GENBASE_LINALG_COVARIANCE_H_

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Kernel quality knob: the tuned path models BLAS/MKL-backed
/// systems, the naive path models Mahout-style hand-rolled loops.
enum class KernelQuality { kTuned, kNaive };

/// \brief Sample covariance of the columns of x (m samples, n variables):
/// C = Xc^T Xc / (m - 1) with column-centered Xc. This is GenBase Query 2's
/// analytics step (the paper's S x S^T example, with the mean subtracted).
///
/// Memory for the centered copy and the output is charged to ctx->memory().
genbase::Result<Matrix> CovarianceMatrix(const MatrixView& x,
                                         KernelQuality quality,
                                         ExecContext* ctx = nullptr);

/// \brief Column means of x, length n.
std::vector<double> ColumnMeans(const MatrixView& x);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_COVARIANCE_H_
