// AVX2+FMA kernel set. Compiled in every build: the functions carry
// function-level target attributes, so the translation unit itself needs no
// special -m flags (GENBASE_NATIVE_ARCH may still add them), and the binary
// stays runnable on baseline x86-64 — Avx2Kernels() returns nullptr unless
// CPUID says the instructions actually exist.

#include "common/simd.h"
#include "linalg/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GENBASE_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#define GENBASE_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace genbase::linalg {

#ifdef GENBASE_HAVE_AVX2_BUILD

namespace {

GENBASE_AVX2 inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

GENBASE_AVX2 double DotAvx2(const double* x, const double* y, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
  }
  double s = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

GENBASE_AVX2 void AxpyAvx2(double alpha, const double* x, double* y,
                           int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d y0 = _mm256_loadu_pd(y + i);
    const __m256d y1 = _mm256_loadu_pd(y + i + 4);
    _mm256_storeu_pd(y + i,
                     _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), y0));
    _mm256_storeu_pd(y + i + 4,
                     _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4), y1));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;

/// 4x8 micro-tile: 8 FMA accumulators, B strip streams as two vectors per
/// depth step, A strip broadcasts one element per row.
GENBASE_AVX2 void GemmMicroAvx2(int64_t kc, const double* ap,
                                const double* bp, double* c, int64_t ldc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (int64_t k = 0; k < kc; ++k) {
    const __m256d b0 = _mm256_loadu_pd(bp + k * kNr);
    const __m256d b1 = _mm256_loadu_pd(bp + k * kNr + 4);
    const double* a = ap + k * kMr;
    __m256d av = _mm256_broadcast_sd(a);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_broadcast_sd(a + 1);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_broadcast_sd(a + 2);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_broadcast_sd(a + 3);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
  }
  double* r0 = c;
  double* r1 = c + ldc;
  double* r2 = c + 2 * ldc;
  double* r3 = c + 3 * ldc;
  _mm256_storeu_pd(r0, _mm256_add_pd(_mm256_loadu_pd(r0), c00));
  _mm256_storeu_pd(r0 + 4, _mm256_add_pd(_mm256_loadu_pd(r0 + 4), c01));
  _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c10));
  _mm256_storeu_pd(r1 + 4, _mm256_add_pd(_mm256_loadu_pd(r1 + 4), c11));
  _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c20));
  _mm256_storeu_pd(r2 + 4, _mm256_add_pd(_mm256_loadu_pd(r2 + 4), c21));
  _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c30));
  _mm256_storeu_pd(r3 + 4, _mm256_add_pd(_mm256_loadu_pd(r3 + 4), c31));
}

}  // namespace

const KernelOps* Avx2Kernels() {
  static const bool supported = simd::CpuSupportsAvx2();
  if (!supported) return nullptr;
  static const KernelOps ops = {"avx2", kMr, kNr, DotAvx2, AxpyAvx2,
                                GemmMicroAvx2};
  return &ops;
}

#else  // !GENBASE_HAVE_AVX2_BUILD

const KernelOps* Avx2Kernels() { return nullptr; }

#endif

}  // namespace genbase::linalg
