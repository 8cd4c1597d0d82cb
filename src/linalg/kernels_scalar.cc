#include "common/simd.h"
#include "linalg/kernels.h"

namespace genbase::linalg {

namespace {

double DotScalar(const double* x, const double* y, int64_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

void AxpyScalar(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;

void GemmMicroScalar(int64_t kc, const double* ap, const double* bp,
                     double* c, int64_t ldc) {
  double acc[kMr][kNr] = {};
  for (int64_t k = 0; k < kc; ++k) {
    const double* a = ap + k * kMr;
    const double* b = bp + k * kNr;
    for (int64_t r = 0; r < kMr; ++r) {
      const double ar = a[r];
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] += ar * b[j];
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    double* crow = c + r * ldc;
    for (int64_t j = 0; j < kNr; ++j) crow[j] += acc[r][j];
  }
}

}  // namespace

const KernelOps& ScalarKernels() {
  static const KernelOps ops = {"scalar", kMr, kNr, DotScalar, AxpyScalar,
                                GemmMicroScalar};
  return ops;
}

}  // namespace genbase::linalg
