#include "linalg/blas.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/simd.h"
#include "linalg/kernels.h"

namespace genbase::linalg {

namespace {
constexpr int64_t kTile = 64;  // Legacy scalar-path blocking.

/// Packed-path macro blocking: depth panels of kKc are packed once per
/// (column panel, depth) pair; each worker packs its own kMc-row block of
/// the left operand; B panels are capped at kNc columns so the shared pack
/// buffer stays cache-friendly (kKc * kNc doubles = 4 MiB).
constexpr int64_t kKc = 256;
constexpr int64_t kMc = 128;
constexpr int64_t kNc = 2048;

static_assert(kMc % kMicroRows == 0, "row block must hold whole strips");

int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }
}  // namespace

double Dot(const double* x, const double* y, int64_t n) {
  return ActiveKernels().dot(x, y, n);
}

double Nrm2(const double* x, int64_t n) {
  // Scaled to avoid overflow (netlib dnrm2 style).
  double scale = 0.0, ssq = 1.0;
  for (int64_t i = 0; i < n; ++i) {
    if (x[i] != 0.0) {
      const double ax = std::fabs(x[i]);
      if (scale < ax) {
        ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
        scale = ax;
      } else {
        ssq += (ax / scale) * (ax / scale);
      }
    }
  }
  return scale * std::sqrt(ssq);
}

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  ActiveKernels().axpy(alpha, x, y, n);
}

void Scal(double alpha, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void Gemv(const MatrixView& a, const double* x, double* y, ThreadPool* pool) {
  const KernelOps& ops = ActiveKernels();
  auto body = [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      y[i] = ops.dot(a.data + i * a.stride, x, a.cols);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && a.rows >= 256) {
    pool->ParallelFor(0, a.rows, body);
  } else {
    body(0, a.rows);
  }
}

void GemvTranspose(const MatrixView& a, const double* x, double* y,
                   ThreadPool* pool) {
  const KernelOps& ops = ActiveKernels();
  std::fill(y, y + a.cols, 0.0);
  // Fixed-size row shards (independent of the pool width) so the reduction
  // tree — per-shard partials merged in shard order — is identical for any
  // thread count: y is bitwise-stable across pools.
  constexpr int64_t kShardRows = 256;
  const int64_t shards = (a.rows + kShardRows - 1) / kShardRows;
  if (shards <= 1) {
    for (int64_t i = 0; i < a.rows; ++i) {
      ops.axpy(x[i], a.data + i * a.stride, y, a.cols);
    }
    return;
  }
  auto shard_into = [&](int64_t s, double* part) {
    const int64_t lo = s * kShardRows;
    const int64_t hi = std::min<int64_t>(a.rows, lo + kShardRows);
    for (int64_t i = lo; i < hi; ++i) {
      ops.axpy(x[i], a.data + i * a.stride, part, a.cols);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && a.rows >= 512) {
    std::vector<std::vector<double>> partials(
        static_cast<size_t>(shards), std::vector<double>(a.cols, 0.0));
    pool->ParallelFor(0, shards, [&](int64_t s_lo, int64_t s_hi) {
      for (int64_t s = s_lo; s < s_hi; ++s) {
        shard_into(s, partials[static_cast<size_t>(s)].data());
      }
    });
    for (const auto& part : partials) ops.axpy(1.0, part.data(), y, a.cols);
  } else {
    std::vector<double> part(static_cast<size_t>(a.cols));
    for (int64_t s = 0; s < shards; ++s) {
      std::fill(part.begin(), part.end(), 0.0);
      shard_into(s, part.data());
      ops.axpy(1.0, part.data(), y, a.cols);
    }
  }
}

namespace {

/// --- legacy scalar-blocked path (Backend::kScalar) --------------------------

/// Multiplies the (i0..i1, k0..k1) block of A by the (k0..k1, j0..j1) block
/// of B into C. Inner loops are i-k-j so B rows stream contiguously.
void GemmBlock(const MatrixView& a, const MatrixView& b, double* c,
               int64_t c_stride, int64_t i0, int64_t i1, int64_t j0,
               int64_t j1, int64_t k0, int64_t k1) {
  for (int64_t i = i0; i < i1; ++i) {
    const double* arow = a.data + i * a.stride;
    double* crow = c + i * c_stride;
    for (int64_t k = k0; k < k1; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.data + k * b.stride;
      for (int64_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
  }
}

/// --- packed register-blocked path (Backend::kSimd) --------------------------

/// Packs the kc x nc panel of B (rows k0.., cols j0..) into kMicroCols-wide
/// strips, zero-padding the last strip. With `bias`, bias[j] is subtracted
/// from column j — the fused-centering hook used by SyrkCentered.
void PackBPanel(const double* b, int64_t stride, int64_t k0, int64_t kc,
                int64_t j0, int64_t nc, const double* bias, double* bp) {
  const int64_t strips = RoundUp(nc, kMicroCols) / kMicroCols;
  for (int64_t t = 0; t < strips; ++t) {
    const int64_t j_begin = t * kMicroCols;
    const int64_t width = std::min<int64_t>(kMicroCols, nc - j_begin);
    double* dst = bp + t * kc * kMicroCols;
    for (int64_t k = 0; k < kc; ++k) {
      const double* src = b + (k0 + k) * stride + j0 + j_begin;
      double* out = dst + k * kMicroCols;
      if (bias == nullptr) {
        for (int64_t c = 0; c < width; ++c) out[c] = src[c];
      } else {
        const double* bi = bias + j0 + j_begin;
        for (int64_t c = 0; c < width; ++c) out[c] = src[c] - bi[c];
      }
      for (int64_t c = width; c < kMicroCols; ++c) out[c] = 0.0;
    }
  }
}

/// Packs the mc x kc block of op(A) (rows i0.., depth k0..) into kMicroRows
/// strips. op(A) = A when !a_trans, A^T when a_trans (reading column slices
/// of A, which packing turns into contiguous streams for the micro-kernel).
/// `bias` subtracts bias[i] from logical row i of op(A) (the centered-Syrk
/// left operand).
void PackABlock(const double* a, int64_t stride, bool a_trans,
                int64_t i0, int64_t mc, int64_t k0, int64_t kc,
                const double* bias, double* ap) {
  const int64_t strips = RoundUp(mc, kMicroRows) / kMicroRows;
  for (int64_t s = 0; s < strips; ++s) {
    const int64_t i_begin = s * kMicroRows;
    const int64_t height = std::min<int64_t>(kMicroRows, mc - i_begin);
    double* dst = ap + s * kc * kMicroRows;
    if (a_trans) {
      for (int64_t k = 0; k < kc; ++k) {
        const double* src = a + (k0 + k) * stride + i0 + i_begin;
        double* out = dst + k * kMicroRows;
        if (bias == nullptr) {
          for (int64_t r = 0; r < height; ++r) out[r] = src[r];
        } else {
          const double* bi = bias + i0 + i_begin;
          for (int64_t r = 0; r < height; ++r) out[r] = src[r] - bi[r];
        }
        for (int64_t r = height; r < kMicroRows; ++r) out[r] = 0.0;
      }
    } else {
      for (int64_t k = 0; k < kc; ++k) {
        double* out = dst + k * kMicroRows;
        for (int64_t r = 0; r < height; ++r) {
          const double v = a[(i0 + i_begin + r) * stride + k0 + k];
          out[r] = bias == nullptr ? v : v - bias[i0 + i_begin + r];
        }
        for (int64_t r = height; r < kMicroRows; ++r) out[r] = 0.0;
      }
    }
  }
}

/// C(m x n) += op(A) * B via packed panels and the dispatched micro-kernel.
/// C must be zeroed (or hold the value to accumulate onto) on entry. With
/// upper_only, micro-tiles entirely below the diagonal are skipped (Syrk).
///
/// Work is threaded over kMc row blocks of C; every element of C is owned by
/// exactly one task and all loop orders are fixed, so results are
/// bitwise-identical for any pool size.
genbase::Status PackedGemm(int64_t m, int64_t n, int64_t kdim,
                           const double* a, int64_t a_stride, bool a_trans,
                           const double* a_bias, const double* b,
                           int64_t b_stride, const double* b_bias, double* c,
                           int64_t c_stride, bool upper_only,
                           ThreadPool* pool, ExecContext* ctx) {
  if (m == 0 || n == 0 || kdim == 0) return Status::OK();
  const KernelOps& ops = ActiveKernels();
  const int64_t row_blocks = (m + kMc - 1) / kMc;
  // Cached like the per-worker ap buffer: the hot paths call BLAS-3 once
  // per query phase, and a fresh multi-MiB allocation per call is pure
  // allocator traffic. Only the calling thread packs B, so thread_local is
  // race-free. Workers must read the CALLER's instance: thread_locals are
  // not lambda-captured (each worker would see its own empty vector), so
  // the panel is handed to the task body as a plain pointer.
  static thread_local std::vector<double> bp_storage;
  bp_storage.resize(
      static_cast<size_t>(kKc * RoundUp(std::min(n, kNc), kMicroCols)));
  double* const bp = bp_storage.data();
  Status worker_status = Status::OK();
  std::mutex status_mu;
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t k0 = 0; k0 < kdim; k0 += kKc) {
      const int64_t kc = std::min(kKc, kdim - k0);
      PackBPanel(b, b_stride, k0, kc, jc, nc, b_bias, bp);
      auto body = [&](int64_t blo, int64_t bhi) {
        static thread_local std::vector<double> ap_buf;
        ap_buf.resize(static_cast<size_t>(kMc * kc));
        for (int64_t bi = blo; bi < bhi; ++bi) {
          if (ctx != nullptr) {
            Status st = ctx->CheckBudgets();
            if (!st.ok()) {
              std::lock_guard<std::mutex> lock(status_mu);
              worker_status = st;
              return;
            }
          }
          const int64_t i0 = bi * kMc;
          const int64_t mc = std::min(kMc, m - i0);
          if (upper_only && jc + nc <= i0) continue;
          PackABlock(a, a_stride, a_trans, i0, mc, k0, kc, a_bias,
                     ap_buf.data());
          const int64_t strips_m = RoundUp(mc, kMicroRows) / kMicroRows;
          for (int64_t jr = 0; jr < nc; jr += kMicroCols) {
            const double* bstrip =
                bp + (jr / kMicroCols) * kc * kMicroCols;
            const int64_t width = std::min(kMicroCols, nc - jr);
            for (int64_t s = 0; s < strips_m; ++s) {
              const int64_t ir = i0 + s * kMicroRows;
              if (upper_only && jc + jr + width <= ir) continue;
              const int64_t height = std::min(kMicroRows, i0 + mc - ir);
              const double* astrip = ap_buf.data() + s * kc * kMicroRows;
              if (height == kMicroRows && width == kMicroCols) {
                ops.gemm_micro(kc, astrip, bstrip,
                               c + ir * c_stride + jc + jr, c_stride);
              } else {
                double scratch[kMicroRows * kMicroCols] = {0};
                ops.gemm_micro(kc, astrip, bstrip, scratch, kMicroCols);
                for (int64_t r = 0; r < height; ++r) {
                  double* crow = c + (ir + r) * c_stride + jc + jr;
                  const double* srow = scratch + r * kMicroCols;
                  for (int64_t col = 0; col < width; ++col) {
                    crow[col] += srow[col];
                  }
                }
              }
            }
          }
        }
      };
      if (pool != nullptr && pool->num_threads() > 1 && row_blocks > 1) {
        pool->ParallelFor(0, row_blocks, body);
      } else {
        body(0, row_blocks);
      }
      if (!worker_status.ok()) return worker_status;
    }
  }
  return worker_status;
}

void MirrorUpperToLower(Matrix* c) {
  const int64_t n = c->rows();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) (*c)(j, i) = (*c)(i, j);
  }
}

bool UsePackedPath() {
  return simd::ActiveBackend() == simd::Backend::kSimd;
}

}  // namespace

genbase::Status Gemm(const MatrixView& a, const MatrixView& b, Matrix* c,
                     ThreadPool* pool, ExecContext* ctx) {
  if (a.cols != b.rows || c->rows() != a.rows || c->cols() != b.cols) {
    return Status::InvalidArgument("gemm shape mismatch");
  }
  c->Fill(0.0);
  if (UsePackedPath()) {
    return PackedGemm(a.rows, b.cols, a.cols, a.data, a.stride,
                      /*a_trans=*/false, nullptr, b.data, b.stride, nullptr,
                      c->data(), c->cols(), /*upper_only=*/false, pool, ctx);
  }
  const int64_t row_blocks = (a.rows + kTile - 1) / kTile;
  Status worker_status = Status::OK();
  std::mutex status_mu;
  auto body = [&](int64_t blo, int64_t bhi) {
    for (int64_t bi = blo; bi < bhi; ++bi) {
      if (ctx != nullptr) {
        Status st = ctx->CheckBudgets();
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          worker_status = st;
          return;
        }
      }
      const int64_t i0 = bi * kTile;
      const int64_t i1 = std::min(a.rows, i0 + kTile);
      for (int64_t k0 = 0; k0 < a.cols; k0 += kTile) {
        const int64_t k1 = std::min(a.cols, k0 + kTile);
        for (int64_t j0 = 0; j0 < b.cols; j0 += kTile) {
          const int64_t j1 = std::min(b.cols, j0 + kTile);
          GemmBlock(a, b, c->data(), c->cols(), i0, i1, j0, j1, k0, k1);
        }
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && row_blocks > 1) {
    pool->ParallelFor(0, row_blocks, body);
  } else {
    body(0, row_blocks);
  }
  return worker_status;
}

genbase::Status GemmTransposeA(const MatrixView& a, const MatrixView& b,
                               Matrix* c, ThreadPool* pool,
                               ExecContext* ctx) {
  // C[n x p] = A^T[n x m] * B[m x p].
  if (a.rows != b.rows || c->rows() != a.cols || c->cols() != b.cols) {
    return Status::InvalidArgument("gemmTa shape mismatch");
  }
  c->Fill(0.0);
  if (UsePackedPath()) {
    return PackedGemm(a.cols, b.cols, a.rows, a.data, a.stride,
                      /*a_trans=*/true, nullptr, b.data, b.stride, nullptr,
                      c->data(), c->cols(), /*upper_only=*/false, pool, ctx);
  }
  // Legacy path: sum over rows of A/B of outer products, parallelized over
  // column blocks of C to avoid races.
  const int64_t col_blocks = (a.cols + kTile - 1) / kTile;
  Status worker_status = Status::OK();
  std::mutex status_mu;
  auto body = [&](int64_t blo, int64_t bhi) {
    for (int64_t bj = blo; bj < bhi; ++bj) {
      if (ctx != nullptr) {
        Status st = ctx->CheckBudgets();
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          worker_status = st;
          return;
        }
      }
      const int64_t r0 = bj * kTile;  // Rows of C == columns of A.
      const int64_t r1 = std::min(a.cols, r0 + kTile);
      for (int64_t k = 0; k < a.rows; ++k) {
        const double* arow = a.data + k * a.stride;
        const double* brow = b.data + k * b.stride;
        for (int64_t r = r0; r < r1; ++r) {
          const double w = arow[r];
          if (w == 0.0) continue;
          double* crow = c->Row(r);
          for (int64_t j = 0; j < b.cols; ++j) crow[j] += w * brow[j];
        }
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && col_blocks > 1) {
    pool->ParallelFor(0, col_blocks, body);
  } else {
    body(0, col_blocks);
  }
  return worker_status;
}

genbase::Status Syrk(const MatrixView& a, Matrix* c, ThreadPool* pool,
                     ExecContext* ctx) {
  if (c->rows() != a.cols || c->cols() != a.cols) {
    return Status::InvalidArgument("syrk shape mismatch");
  }
  c->Fill(0.0);
  if (UsePackedPath()) {
    GENBASE_RETURN_NOT_OK(PackedGemm(
        a.cols, a.cols, a.rows, a.data, a.stride, /*a_trans=*/true, nullptr,
        a.data, a.stride, nullptr, c->data(), c->cols(),
        /*upper_only=*/true, pool, ctx));
    MirrorUpperToLower(c);
    return Status::OK();
  }
  const int64_t n = a.cols;
  const int64_t blocks = (n + kTile - 1) / kTile;
  // Upper-triangle block list so work is balanced across the pool.
  std::vector<std::pair<int64_t, int64_t>> tasks;
  for (int64_t bi = 0; bi < blocks; ++bi) {
    for (int64_t bj = bi; bj < blocks; ++bj) tasks.emplace_back(bi, bj);
  }
  Status worker_status = Status::OK();
  std::mutex status_mu;
  auto body = [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      if (ctx != nullptr) {
        Status st = ctx->CheckBudgets();
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          worker_status = st;
          return;
        }
      }
      const int64_t i0 = tasks[t].first * kTile;
      const int64_t i1 = std::min(n, i0 + kTile);
      const int64_t j0 = tasks[t].second * kTile;
      const int64_t j1 = std::min(n, j0 + kTile);
      for (int64_t k = 0; k < a.rows; ++k) {
        const double* arow = a.data + k * a.stride;
        for (int64_t i = i0; i < i1; ++i) {
          const double w = arow[i];
          if (w == 0.0) continue;
          double* crow = c->Row(i);
          const int64_t jstart = std::max(j0, i);
          for (int64_t j = jstart; j < j1; ++j) crow[j] += w * arow[j];
        }
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && tasks.size() > 1) {
    pool->ParallelFor(0, static_cast<int64_t>(tasks.size()), body);
  } else {
    body(0, static_cast<int64_t>(tasks.size()));
  }
  if (!worker_status.ok()) return worker_status;
  MirrorUpperToLower(c);
  return Status::OK();
}

genbase::Status SyrkCentered(const MatrixView& a, const double* col_means,
                             Matrix* c, ThreadPool* pool, ExecContext* ctx) {
  if (c->rows() != a.cols || c->cols() != a.cols) {
    return Status::InvalidArgument("syrk shape mismatch");
  }
  c->Fill(0.0);
  // Always the packed path: centering rides along in the pack, so the
  // centered operand is only ever materialized kKc x kNc at a time. The
  // micro-kernel still dispatches on the active backend.
  GENBASE_RETURN_NOT_OK(PackedGemm(
      a.cols, a.cols, a.rows, a.data, a.stride, /*a_trans=*/true, col_means,
      a.data, a.stride, col_means, c->data(), c->cols(),
      /*upper_only=*/true, pool, ctx));
  MirrorUpperToLower(c);
  return Status::OK();
}

genbase::Status GemmNaive(const MatrixView& a, const MatrixView& b, Matrix* c,
                          ExecContext* ctx) {
  if (a.cols != b.rows || c->rows() != a.rows || c->cols() != b.cols) {
    return Status::InvalidArgument("gemm shape mismatch");
  }
  for (int64_t i = 0; i < a.rows; ++i) {
    if (ctx != nullptr && (i & 15) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    for (int64_t j = 0; j < b.cols; ++j) {
      double s = 0.0;
      // Column-strided access to B: the cache-hostile textbook loop.
      for (int64_t k = 0; k < a.cols; ++k) {
        s += a(i, k) * b(k, j);
      }
      (*c)(i, j) = s;
    }
  }
  return Status::OK();
}

genbase::Status SyrkNaive(const MatrixView& a, Matrix* c, ExecContext* ctx) {
  if (c->rows() != a.cols || c->cols() != a.cols) {
    return Status::InvalidArgument("syrk shape mismatch");
  }
  for (int64_t i = 0; i < a.cols; ++i) {
    if (ctx != nullptr && (i & 15) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    for (int64_t j = 0; j < a.cols; ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < a.rows; ++k) {
        s += a(k, i) * a(k, j);
      }
      (*c)(i, j) = s;
    }
  }
  return Status::OK();
}

}  // namespace genbase::linalg
