#ifndef GENBASE_LINALG_KERNELS_H_
#define GENBASE_LINALG_KERNELS_H_

#include <cstdint>
#include <vector>

namespace genbase::linalg {

/// The largest micro-tile any kernel set uses (the AVX-512 set's 8 x 16).
/// The packed macro loop sizes its edge-tile scratch to it.
inline constexpr int64_t kMaxMicroRows = 8;
inline constexpr int64_t kMaxMicroCols = 16;

/// \brief The raw compute kernels behind the BLAS layer, selected at runtime
/// so one binary carries a portable scalar set, an AVX2+FMA set and an
/// AVX-512F set.
///
/// Each set fixes its own micro-tile geometry: C is updated in mr x nr tiles
/// (scalar and AVX2: 4 x 8, eight YMM accumulators; AVX-512: 8 x 16,
/// sixteen ZMM accumulators). The one packed Gemm/Syrk macro loop and its
/// pack routines read mr/nr from the active set. Packed operand layout
/// (GotoBLAS-style):
///  - A panel: micro-row strips; strip s holds ap[s*kc*mr + k*mr + r] =
///    op(A)(i0 + s*mr + r, k0 + k), zero-padded past the last valid row.
///  - B panel: micro-col strips; strip t holds bp[t*kc*nr + k*nr + c] =
///    B(k0 + k, j0 + t*nr + c), zero-padded past the last valid column.
///
/// Every gemm_micro runs each C element's kc-deep product as one FMA chain
/// in k order from a zeroed accumulator and adds it to C once, so all
/// vector sets produce the same bits whatever their tile shape.
struct KernelOps {
  const char* name;
  int64_t mr;  ///< Micro-tile rows (MR).
  int64_t nr;  ///< Micro-tile columns (NR).

  double (*dot)(const double* x, const double* y, int64_t n);
  void (*axpy)(double alpha, const double* x, double* y, int64_t n);

  /// C(mr x nr, row stride ldc) += Ap-strip * Bp-strip over depth kc.
  /// Always operates on full (possibly zero-padded) tiles; edge handling is
  /// the macro loop's job.
  void (*gemm_micro)(int64_t kc, const double* ap, const double* bp,
                     double* c, int64_t ldc);
};

/// Portable scalar kernels (always available; also the reference the
/// property tests compare against).
const KernelOps& ScalarKernels();

/// AVX2+FMA kernels, or nullptr when the build target or the running CPU
/// cannot execute them. Compiled with function-level target attributes so
/// the rest of the binary stays baseline-ISA.
const KernelOps* Avx2Kernels();

/// AVX-512F kernels, or nullptr when the build target or the running CPU
/// cannot execute them. Its dot is the AVX2 one: a wider dot would change
/// the reduction order, and so the bits.
const KernelOps* Avx512Kernels();

/// Every set this CPU can run, narrowest first (scalar, avx2, avx512).
std::vector<const KernelOps*> AvailableKernels();

/// The set the BLAS layer should use right now: under simd::Backend::kSimd
/// the widest set the CPU runs (or the pinned one, see PinKernels); under
/// kScalar the scalar set.
const KernelOps& ActiveKernels();

/// Makes ActiveKernels() return `ops` under the simd backend, so tests and
/// kernelbench can compare the sets on one host; nullptr restores the CPU's
/// pick. Returns the previous pin.
const KernelOps* PinKernels(const KernelOps* ops);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_KERNELS_H_
