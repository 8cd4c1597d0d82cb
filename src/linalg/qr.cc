#include "linalg/qr.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"

namespace genbase::linalg {

// Implementation note: the factorization works on the TRANSPOSE of A
// (qrt_ is n x m; its row j is A's column j, contiguous in memory).
// Householder QR is column-oriented — reflector construction and the
// trailing update both walk columns of A — so the transposed layout turns
// every inner loop into a contiguous (vectorizable) sweep.
//
// The factorization is blocked (LAPACK dgeqrf; Schreiber & Van Loan's
// compact WY form). Columns are factored kQrPanel at a time by the
// unblocked loop, whose reflector updates reach only the panel's own
// columns. The panel's reflectors H_k0 ... H_k1-1 then combine into
// I - V T V^T, with V the unit-lower-trapezoidal reflector vectors and T the
// kb x kb upper-triangular factor built column by column (dlarft, forward
// columnwise). Applying the block's transpose to the trailing columns of A,
// C_A <- (I - V T^T V^T) C_A, reads in the transposed layout as
// C <- C - (C V) T V^T for C = the trailing rows of qrt from column k0 on:
// W = C V, W <- -W T, C += W V^T. Both products are GemmAccumulate calls
// on row blocks of C read and written in place with a row stride of m, so
// the transposed layout still fits: C is a strided sub-block of qrt, and the
// panel's own rows of qrt already are V^T. Only small copies are made: V^T
// with its unit diagonal and the zeros above it (where R lives) explicit,
// and V, because Gemm reads its right operand row-major. For Q1's
// 1600 x 576 design nearly all flops land in the two Gemms instead of
// rank-1 updates.
//
// Determinism: the panel and T run serially, and the Gemms give every C tile
// one owner with a fixed loop order, so the factors are bitwise identical
// for any pool width.

namespace {

/// Columns per panel (LAPACK's nb).
constexpr int64_t kQrPanel = 32;

/// Copies A into the transposed packed layout (n x m), charged to the
/// context's tracker.
genbase::Result<Matrix> PackTransposed(const MatrixView& a, ExecContext* ctx) {
  const int64_t m = a.rows;
  const int64_t n = a.cols;
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(Matrix qrt, Matrix::Create(n, m, tracker));
  for (int64_t i = 0; i < m; ++i) {
    const double* row = a.data + i * a.stride;
    for (int64_t j = 0; j < n; ++j) qrt(j, i) = row[j];
  }
  return qrt;
}

/// Unblocked Householder loop over packed columns [k0, k1): builds each
/// reflector and applies it to the remaining columns of the panel only.
genbase::Status FactorPanel(Matrix* qrt, int64_t m, int64_t k0, int64_t k1,
                            double* tau, ExecContext* ctx) {
  for (int64_t k = k0; k < k1; ++k) {
    if (ctx != nullptr && (k & 15) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    double* colk = qrt->Row(k);  // A's column k, contiguous.
    // Build the Householder reflector for column k, rows k..m.
    const double norm_x = std::sqrt(Dot(colk + k, colk + k, m - k));
    if (norm_x == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    const double alpha = colk[k] >= 0 ? -norm_x : norm_x;
    const double v0 = colk[k] - alpha;
    // Normalize so v(0) = 1 (stored implicitly).
    const double inv_v0 = 1.0 / v0;
    for (int64_t i = k + 1; i < m; ++i) colk[i] *= inv_v0;
    tau[k] = -v0 / alpha;  // tau = 2 / (v^T v) with v(0)=1 normalization.
    colk[k] = alpha;
    // Apply H = I - tau v v^T to the panel's later columns (rows of qrt).
    for (int64_t j = k + 1; j < k1; ++j) {
      double* colj = qrt->Row(j);
      const double s =
          tau[k] * (colj[k] + Dot(colk + k + 1, colj + k + 1, m - k - 1));
      colj[k] -= s;
      Axpy(-s, colk + k + 1, colj + k + 1, m - k - 1);
    }
  }
  return Status::OK();
}

/// Applies the transpose of the block reflector of packed columns [k0, k1)
/// to the trailing columns [k1, n) (see the implementation note). `ws`
/// holds kb (2 mr + kb + nt) doubles for V^T, V, T and W, where the panel
/// reaches mr = m - k0 rows of A and nt = n - k1 columns trail it.
genbase::Status ApplyBlockReflector(Matrix* qrt, int64_t m, int64_t k0,
                                    int64_t k1, const double* tau, double* ws,
                                    ThreadPool* pool, ExecContext* ctx) {
  const int64_t kb = k1 - k0;
  const int64_t mr = m - k0;
  const int64_t nt = qrt->rows() - k1;
  double* const vt = ws;           // kb x mr.
  double* const v = vt + kb * mr;  // mr x kb.
  double* const t = v + mr * kb;   // kb x kb, upper triangular.
  double* const w = t + kb * kb;   // nt x kb.
  // V^T is the panel's rows of qrt from column k0 on, with the unit
  // diagonal and the zeros above it (where R lives) made explicit.
  for (int64_t j = 0; j < kb; ++j) {
    const double* src = qrt->Row(k0 + j) + k0;
    double* dst = vt + j * mr;
    std::fill(dst, dst + j, 0.0);
    dst[j] = 1.0;
    std::copy(src + j + 1, src + mr, dst + j + 1);
  }
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < kb; ++j) v[i * kb + j] = vt[j * mr + i];
  }
  // T column j: T(j,j) = tau_j and T(0:j, j) = -tau_j T(0:j, 0:j) z with
  // z_i = v_i . v_j (v_j is zero above row j). z is staged in T(0:j, j) and
  // consumed in place: row i reads z_i..z_j-1 before overwriting z_i.
  for (int64_t j = 0; j < kb; ++j) {
    const double tau_j = tau[k0 + j];
    for (int64_t i = 0; i < j; ++i) {
      t[i * kb + j] = Dot(vt + i * mr + j, vt + j * mr + j, mr - j);
    }
    for (int64_t i = 0; i < j; ++i) {
      double s = 0.0;
      for (int64_t l = i; l < j; ++l) s += t[i * kb + l] * t[l * kb + j];
      t[i * kb + j] = -tau_j * s;
    }
    t[j * kb + j] = tau_j;
    for (int64_t i = j + 1; i < kb; ++i) t[i * kb + j] = 0.0;
  }
  // C: trailing rows of qrt, columns k0..m (A's trailing columns, panel
  // rows on).
  double* const c = qrt->Row(k1) + k0;
  std::fill(w, w + nt * kb, 0.0);
  GENBASE_RETURN_NOT_OK(GemmAccumulate(MatrixView(c, nt, mr, m),
                                       MatrixView(v, mr, kb, kb), w, kb, pool,
                                       ctx));
  // W <- -W T in place: T is upper triangular, so W's column j needs only
  // columns 0..j, which a right-to-left sweep has not overwritten yet.
  for (int64_t r = 0; r < nt; ++r) {
    double* wr = w + r * kb;
    for (int64_t j = kb - 1; j >= 0; --j) {
      double s = 0.0;
      for (int64_t l = 0; l <= j; ++l) s += wr[l] * t[l * kb + j];
      wr[j] = -s;
    }
  }
  return GemmAccumulate(MatrixView(w, nt, kb, kb), MatrixView(vt, kb, mr, mr),
                        c, m, pool, ctx);
}

}  // namespace

genbase::Result<HouseholderQr> HouseholderQr::Factor(Matrix a,
                                                     ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(Matrix qrt, PackTransposed(MatrixView(a), ctx));
  a = Matrix();  // Release the input copy early.
  return FactorTransposed(std::move(qrt), ctx);
}

genbase::Result<HouseholderQr> HouseholderQr::Factor(const MatrixView& a,
                                                     ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(Matrix qrt, PackTransposed(a, ctx));
  return FactorTransposed(std::move(qrt), ctx);
}

genbase::Result<HouseholderQr> HouseholderQr::FactorTransposed(
    Matrix qrt, ExecContext* ctx) {
  const int64_t m = qrt.cols();
  const int64_t n = qrt.rows();
  if (m < n) {
    return Status::InvalidArgument("QR requires rows >= cols, got " +
                                   std::to_string(m) + " x " +
                                   std::to_string(n));
  }
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  std::vector<double> tau(static_cast<size_t>(n), 0.0);
  // Block-reflector workspace, sized for the first panel (the largest) and
  // reused; none when one panel covers A.
  const int64_t kb = std::min(kQrPanel, n);
  const int64_t ws_doubles = n > kb ? kb * (2 * m + kb + (n - kb)) : 0;
  GENBASE_ASSIGN_OR_RETURN(
      ScopedReservation ws_reservation,
      ScopedReservation::Acquire(
          tracker, ws_doubles * static_cast<int64_t>(sizeof(double))));
  std::vector<double> ws(static_cast<size_t>(ws_doubles));
  for (int64_t k0 = 0; k0 < n; k0 += kQrPanel) {
    const int64_t k1 = std::min(n, k0 + kQrPanel);
    GENBASE_RETURN_NOT_OK(FactorPanel(&qrt, m, k0, k1, tau.data(), ctx));
    if (k1 < n) {
      GENBASE_RETURN_NOT_OK(ApplyBlockReflector(&qrt, m, k0, k1, tau.data(),
                                                ws.data(), pool, ctx));
    }
  }
  return HouseholderQr(std::move(qrt), std::move(tau));
}

void HouseholderQr::ApplyQTranspose(double* b) const {
  const int64_t m = rows();
  const int64_t n = cols();
  for (int64_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    const double* colk = qrt_.Row(k);
    double s = b[k];
    for (int64_t i = k + 1; i < m; ++i) s += colk[i] * b[i];
    s *= tau_[k];
    b[k] -= s;
    for (int64_t i = k + 1; i < m; ++i) b[i] -= s * colk[i];
  }
}

void HouseholderQr::ApplyQ(double* b) const {
  const int64_t m = rows();
  const int64_t n = cols();
  for (int64_t k = n - 1; k >= 0; --k) {
    if (tau_[k] == 0.0) continue;
    const double* colk = qrt_.Row(k);
    double s = b[k];
    for (int64_t i = k + 1; i < m; ++i) s += colk[i] * b[i];
    s *= tau_[k];
    b[k] -= s;
    for (int64_t i = k + 1; i < m; ++i) b[i] -= s * colk[i];
  }
}

genbase::Status HouseholderQr::SolveR(const double* b, double* x) const {
  const int64_t n = cols();
  for (int64_t i = n - 1; i >= 0; --i) {
    double s = b[i];
    for (int64_t j = i + 1; j < n; ++j) s -= qrt_(j, i) * x[j];
    const double d = qrt_(i, i);
    if (std::fabs(d) < 1e-300) {
      return Status::InvalidArgument("singular R in QR solve at column " +
                                     std::to_string(i));
    }
    x[i] = s / d;
  }
  return Status::OK();
}

Matrix HouseholderQr::ThinQ() const {
  const int64_t m = rows();
  const int64_t n = cols();
  Matrix q(m, n);
  std::vector<double> e(static_cast<size_t>(m), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    std::fill(e.begin(), e.end(), 0.0);
    e[static_cast<size_t>(j)] = 1.0;
    ApplyQ(e.data());
    for (int64_t i = 0; i < m; ++i) q(i, j) = e[static_cast<size_t>(i)];
  }
  return q;
}

Matrix HouseholderQr::R() const {
  const int64_t n = cols();
  Matrix r(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) r(i, j) = qrt_(j, i);
  }
  return r;
}

namespace {

/// The one least-squares body behind both LeastSquaresQr overloads.
/// `factor` returns the factorization of the m-row design; R^2 uses b's
/// total sum of squares, taken before b is transformed.
template <typename FactorFn>
genbase::Result<LeastSquaresFit> SolveLeastSquares(
    int64_t m, const std::vector<double>& b, FactorFn factor) {
  if (static_cast<int64_t>(b.size()) != m) {
    return Status::InvalidArgument("rhs length mismatch");
  }
  double mean_b = 0.0;
  for (double v : b) mean_b += v;
  mean_b /= static_cast<double>(m);
  double tss = 0.0;
  for (double v : b) tss += (v - mean_b) * (v - mean_b);

  GENBASE_ASSIGN_OR_RETURN(HouseholderQr qr, factor());
  const int64_t n = qr.cols();
  std::vector<double> qtb = b;
  qr.ApplyQTranspose(qtb.data());
  LeastSquaresFit fit;
  fit.coefficients.resize(static_cast<size_t>(n));
  GENBASE_RETURN_NOT_OK(qr.SolveR(qtb.data(), fit.coefficients.data()));
  double rss = 0.0;
  for (int64_t i = n; i < m; ++i) rss += qtb[i] * qtb[i];
  fit.residual_norm = std::sqrt(rss);
  fit.r_squared = tss > 0 ? 1.0 - rss / tss : 0.0;
  return fit;
}

}  // namespace

genbase::Result<LeastSquaresFit> LeastSquaresQr(Matrix a,
                                                const std::vector<double>& b,
                                                ExecContext* ctx) {
  const int64_t m = a.rows();
  // Factor consumes (and early-releases) the design matrix.
  return SolveLeastSquares(m, b, [&a, ctx] {
    return HouseholderQr::Factor(std::move(a), ctx);
  });
}

genbase::Result<LeastSquaresFit> LeastSquaresQr(const MatrixView& a,
                                                const std::vector<double>& b,
                                                ExecContext* ctx) {
  return SolveLeastSquares(a.rows, b, [&a, ctx] {
    return HouseholderQr::Factor(a, ctx);
  });
}

genbase::Result<LeastSquaresFit> LeastSquaresQrTransposed(
    Matrix at, const std::vector<double>& b, ExecContext* ctx) {
  const int64_t m = at.cols();
  return SolveLeastSquares(m, b, [&at, ctx] {
    return HouseholderQr::FactorTransposed(std::move(at), ctx);
  });
}

}  // namespace genbase::linalg
