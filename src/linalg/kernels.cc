#include "linalg/kernels.h"

#include <atomic>

#include "common/simd.h"

namespace genbase::linalg {

namespace {

std::atomic<const KernelOps*> g_pinned{nullptr};

}  // namespace

std::vector<const KernelOps*> AvailableKernels() {
  std::vector<const KernelOps*> sets = {&ScalarKernels()};
  for (const KernelOps* ops : {Avx2Kernels(), Avx512Kernels()}) {
    if (ops != nullptr) sets.push_back(ops);
  }
  return sets;
}

const KernelOps& ActiveKernels() {
  if (simd::ActiveBackend() == simd::Backend::kSimd) {
    const KernelOps* pinned = g_pinned.load(std::memory_order_acquire);
    if (pinned != nullptr) return *pinned;
    static const KernelOps* const widest = AvailableKernels().back();
    return *widest;
  }
  return ScalarKernels();
}

const KernelOps* PinKernels(const KernelOps* ops) {
  return g_pinned.exchange(ops, std::memory_order_acq_rel);
}

}  // namespace genbase::linalg
