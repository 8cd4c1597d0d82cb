#ifndef GENBASE_CLUSTER_DIST_KERNELS_H_
#define GENBASE_CLUSTER_DIST_KERNELS_H_

#include <cstdint>
#include <vector>

#include "cluster/sim_cluster.h"
#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/covariance.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"

namespace genbase::cluster {

/// \brief Contiguous row ranges assigning n rows to nodes (the "evenly
/// partitioned the data between nodes" layout the paper used for pbdR).
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};
std::vector<RowRange> PartitionRows(int64_t n, int nodes);

/// \brief ScaLAPACK-style distributed least squares via TSQR: each node
/// factors its local row block, the small R factors (plus transformed
/// responses) are gathered, and the root solves the stacked reduced problem.
/// Nodes whose local block is shorter than the column count ship the raw
/// block instead (the standard tall-skinny fallback).
genbase::Result<linalg::LeastSquaresFit> DistributedLeastSquares(
    SimCluster* cluster, std::vector<linalg::Matrix> design_blocks,
    const std::vector<std::vector<double>>& y_blocks, ExecContext* ctx);

/// \brief Distributed covariance: local column-sum reduction for the means,
/// local centered Gram (Syrk) per node, ring all-reduce of the n x n Gram —
/// the communication step whose cost the paper blames for SciDB's poor
/// 2-node covariance scaling.
genbase::Result<linalg::Matrix> DistributedCovariance(
    SimCluster* cluster, const std::vector<linalg::Matrix>& x_blocks,
    linalg::KernelQuality quality, ExecContext* ctx);

/// \brief Result of the distributed truncated Gram eigensolve.
struct DistributedSvdResult {
  std::vector<double> singular_values;  ///< Descending.
  int iterations = 0;
  bool converged = false;  ///< LanczosResult::converged.
};

/// \brief Distributed Lanczos SVD: the Gram operator v -> A^T (A v) is
/// evaluated as per-node partials plus an all-reduce of the length-n vector
/// each iteration; the Lanczos recurrence itself runs on the root.
genbase::Result<DistributedSvdResult> DistributedTruncatedSvd(
    SimCluster* cluster, const std::vector<linalg::Matrix>& a_blocks,
    int rank, linalg::KernelQuality quality, uint64_t seed,
    ExecContext* ctx);

}  // namespace genbase::cluster

#endif  // GENBASE_CLUSTER_DIST_KERNELS_H_
