// AVX-512F kernel set. Like the AVX2 set it is compiled in every build with
// function-level target attributes, and Avx512Kernels() returns nullptr
// unless CPUID says the instructions exist.
//
// Its results are bitwise equal to the AVX2 set's. The 8x16 gemm_micro runs
// each C element's depth-kc product as the same k-ordered FMA chain from a
// zeroed register and adds it to C once; axpy is elementwise and hands its
// sub-16 remainder to the AVX2 axpy, so every element takes the same
// instruction it would there; dot is the AVX2 dot itself.

#include "common/simd.h"
#include "linalg/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GENBASE_HAVE_AVX512_BUILD 1
#include <immintrin.h>
#define GENBASE_AVX512 __attribute__((target("avx512f")))
#endif

namespace genbase::linalg {

#ifdef GENBASE_HAVE_AVX512_BUILD

namespace {

constexpr int64_t kMr = 8;
constexpr int64_t kNr = 16;
static_assert(kMr <= kMaxMicroRows && kNr <= kMaxMicroCols,
              "the macro loop's edge scratch must hold this tile");

GENBASE_AVX512 void AxpyAvx512(double alpha, const double* x, double* y,
                               int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d y0 = _mm512_loadu_pd(y + i);
    const __m512d y1 = _mm512_loadu_pd(y + i + 8);
    _mm512_storeu_pd(y + i,
                     _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), y0));
    _mm512_storeu_pd(y + i + 8,
                     _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i + 8), y1));
  }
  // The AVX2 axpy steps by 8, so from a multiple of 16 it treats every
  // remaining element exactly as it would on the whole vector.
  if (i < n) Avx2Kernels()->axpy(alpha, x + i, y + i, n - i);
}

/// 8x16 micro-tile: 16 FMA accumulators (two ZMM vectors per row), the B
/// strip streams as two vectors per depth step, the A strip broadcasts one
/// element per row.
GENBASE_AVX512 void GemmMicroAvx512(int64_t kc, const double* ap,
                                    const double* bp, double* c,
                                    int64_t ldc) {
  __m512d acc[kMr][2];
#pragma GCC unroll 8
  for (int64_t r = 0; r < kMr; ++r) {
    acc[r][0] = _mm512_setzero_pd();
    acc[r][1] = _mm512_setzero_pd();
  }
  for (int64_t k = 0; k < kc; ++k) {
    const __m512d b0 = _mm512_loadu_pd(bp + k * kNr);
    const __m512d b1 = _mm512_loadu_pd(bp + k * kNr + 8);
    const double* a = ap + k * kMr;
#pragma GCC unroll 8
    for (int64_t r = 0; r < kMr; ++r) {
      const __m512d av = _mm512_set1_pd(a[r]);
      acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 8
  for (int64_t r = 0; r < kMr; ++r) {
    double* row = c + r * ldc;
    _mm512_storeu_pd(row, _mm512_add_pd(_mm512_loadu_pd(row), acc[r][0]));
    _mm512_storeu_pd(row + 8,
                     _mm512_add_pd(_mm512_loadu_pd(row + 8), acc[r][1]));
  }
}

}  // namespace

const KernelOps* Avx512Kernels() {
  // Every AVX-512F CPU also has AVX2+FMA; the check keeps the borrowed dot
  // and the axpy remainder honest anyway.
  static const KernelOps* const ops = []() -> const KernelOps* {
    const KernelOps* avx2 = Avx2Kernels();
    if (!simd::CpuSupportsAvx512() || avx2 == nullptr) return nullptr;
    static const KernelOps set = {"avx512", kMr, kNr, avx2->dot, AxpyAvx512,
                                  GemmMicroAvx512};
    return &set;
  }();
  return ops;
}

#else  // !GENBASE_HAVE_AVX512_BUILD

const KernelOps* Avx512Kernels() { return nullptr; }

#endif

}  // namespace genbase::linalg
