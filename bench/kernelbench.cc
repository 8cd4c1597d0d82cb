// Kernel microbenchmark suite: times dot/gemv/gemm/syrk/covariance, Query
// 1's QR least-squares solve, Query 4's singular values by both methods (a
// sweep over the generator's Q4 shapes) and its dense path's Householder
// tridiagonalization, and the Cheng–Church residue engines across
// GenBase-shaped sizes, for scalar vs SIMD vs threaded variants, and emits
// BENCH_kernels.json so the perf trajectory of the hot kernels is a tracked
// number. Gemm, Syrk and the QR solve are also timed under every kernel set
// the CPU runs (`*/set_<name>`), next to a register-only FMA-peak probe per
// set (`peak/set_<name>`), so each set's GFLOP/s reads as a fraction of the
// peak of its own instructions.
//
//   kernelbench [--json=BENCH_kernels.json] [--baseline=FILE]
//
// The Cheng–Church FLOP gate — incremental engine must spend < 1/5 of the
// reference engine's residue FLOPs — is deterministic and enforced on every
// run. With --baseline the run additionally becomes the CI perf gate and
// exits nonzero when (a) any kernel regressed > 15% against the committed
// baseline ns, or (b) the SIMD Gemm/Syrk variants are < 2x the scalar path
// (AVX2 hosts). Gate (b) is machine-independent by construction; the
// absolute baseline (a) is committed with headroom and refreshed when the
// CI runner generation changes (see bench/baselines/kernels_ci.json).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GENBASE_KERNELBENCH_X86 1
#include <immintrin.h>
#endif
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bicluster/cheng_church.h"
#include "bicluster/synthetic.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/sanitizers.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/generator.h"
#include "engine/engine_util.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "linalg/dense_eigen.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "obs/perf_counters.h"
#include "plan/plan_engine.h"

namespace {

using genbase::Rng;
using genbase::ThreadPool;
using genbase::bicluster::ChengChurch;
using genbase::bicluster::ChengChurchCounters;
using genbase::bicluster::ChengChurchImpl;
using genbase::bicluster::ChengChurchOptions;
using genbase::bicluster::MeanSquaredResidue;
using genbase::bicluster::PlantedBiclusterMatrix;
using genbase::linalg::Matrix;
using genbase::linalg::MatrixView;

/// --- GenBase-shaped workloads ------------------------------------------------
/// The microarray matrix is (genes x patients); regression/SVD work on tall
/// panels, covariance/Syrk contract the sample dimension over a gene block.
constexpr int64_t kVecLen = 1 << 16;        // BLAS-1 streams.
constexpr int64_t kGemvRows = 1024, kGemvCols = 512;
constexpr int64_t kGemmM = 384, kGemmK = 384, kGemmN = 384;
constexpr int64_t kSyrkRows = 1024, kSyrkCols = 384;
constexpr int64_t kCcRows = 384, kCcCols = 288;
// Query 4's Gram operator on the medium Q4 selection (patients x genes).
constexpr int64_t kGramRows = 1600, kGramCols = 575;
// Query 1's least-squares solve on the medium design (patients x genes plus
// the intercept).
constexpr int64_t kQrRows = 1600, kQrCols = 576;
// Query 4's input (patients x genes with function < 250) at the benchmark's
// scale 0.08, for the small, medium, large and xlarge datasets.
constexpr int64_t kQ4Shapes[][2] = {
    {400, 190}, {1600, 575}, {3200, 1150}, {5600, 2300}};

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

std::vector<double> RandomVector(int64_t n, uint64_t seed) {
  std::vector<double> v(static_cast<size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.Gaussian();
  return v;
}

/// Captured per-benchmark mean real time (ns/iteration), keyed by name.
std::map<std::string, double>& Results() {
  static std::map<std::string, double> r;
  return r;
}

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Strip the "/min_time:…" decoration so names match registration.
      std::string name = run.benchmark_name();
      const size_t cut = name.find("/min_time");
      if (cut != std::string::npos) name.resize(cut);
      // real_accumulated_time is unit-independent (seconds over all
      // iterations) — GetAdjustedRealTime would be scaled by the display
      // unit.
      if (run.iterations > 0) {
        Results()[name] =
            1e9 * run.real_accumulated_time / static_cast<double>(run.iterations);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// Scoped backend override for one benchmark body.
class ScopedBackend {
 public:
  explicit ScopedBackend(genbase::simd::Backend b)
      : previous_(genbase::simd::SetBackend(b)) {}
  ~ScopedBackend() { genbase::simd::SetBackend(previous_); }

 private:
  genbase::simd::Backend previous_;
};

constexpr auto kScalar = genbase::simd::Backend::kScalar;
constexpr auto kSimd = genbase::simd::Backend::kSimd;

/// Scoped simd backend with one kernel set pinned, for the per-set series.
class ScopedKernelSet {
 public:
  explicit ScopedKernelSet(const genbase::linalg::KernelOps* ops)
      : backend_(kSimd), previous_(genbase::linalg::PinKernels(ops)) {}
  ~ScopedKernelSet() { genbase::linalg::PinKernels(previous_); }

 private:
  ScopedBackend backend_;
  const genbase::linalg::KernelOps* previous_;
};

/// --- register-only FMA peak, one probe per kernel set ------------------------
/// Twelve independent chains of acc = acc * m + c (enough in flight to cover
/// the multiply-add latency on two ports) that never touch memory: the
/// loop's flop rate is this core's ceiling for the set's instructions. The
/// scalar set is baseline-ISA code, which the compiler may vectorize to
/// SSE2, so on x86 its probe is SSE2 mul + add; elsewhere plain C++.
constexpr int64_t kPeakSteps = 1 << 15;
constexpr int kPeakChains = 12;
constexpr double kPeakMul = 0.999999, kPeakAdd = 1e-6;

#ifdef GENBASE_KERNELBENCH_X86
constexpr int kScalarPeakLanes = 2;

double PeakScalar(int64_t steps) {
  const __m128d m = _mm_set1_pd(kPeakMul);
  const __m128d c = _mm_set1_pd(kPeakAdd);
  __m128d acc[kPeakChains];
#pragma GCC unroll 12
  for (int j = 0; j < kPeakChains; ++j) acc[j] = _mm_set1_pd(1.0 + j);
  for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
    for (int j = 0; j < kPeakChains; ++j) {
      acc[j] = _mm_add_pd(_mm_mul_pd(acc[j], m), c);
    }
  }
  __m128d sum = acc[0];
#pragma GCC unroll 12
  for (int j = 1; j < kPeakChains; ++j) sum = _mm_add_pd(sum, acc[j]);
  return _mm_cvtsd_f64(sum);
}

__attribute__((target("avx2,fma"))) double PeakAvx2(int64_t steps) {
  const __m256d m = _mm256_set1_pd(kPeakMul);
  const __m256d c = _mm256_set1_pd(kPeakAdd);
  __m256d acc[kPeakChains];
#pragma GCC unroll 12
  for (int j = 0; j < kPeakChains; ++j) acc[j] = _mm256_set1_pd(1.0 + j);
  for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
    for (int j = 0; j < kPeakChains; ++j) {
      acc[j] = _mm256_fmadd_pd(acc[j], m, c);
    }
  }
  __m256d sum = acc[0];
#pragma GCC unroll 12
  for (int j = 1; j < kPeakChains; ++j) sum = _mm256_add_pd(sum, acc[j]);
  return _mm256_cvtsd_f64(sum);
}

__attribute__((target("avx512f"))) double PeakAvx512(int64_t steps) {
  const __m512d m = _mm512_set1_pd(kPeakMul);
  const __m512d c = _mm512_set1_pd(kPeakAdd);
  __m512d acc[kPeakChains];
#pragma GCC unroll 12
  for (int j = 0; j < kPeakChains; ++j) acc[j] = _mm512_set1_pd(1.0 + j);
  for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
    for (int j = 0; j < kPeakChains; ++j) {
      acc[j] = _mm512_fmadd_pd(acc[j], m, c);
    }
  }
  __m512d sum = acc[0];
#pragma GCC unroll 12
  for (int j = 1; j < kPeakChains; ++j) sum = _mm512_add_pd(sum, acc[j]);
  return _mm512_reduce_add_pd(sum);
}
#else
constexpr int kScalarPeakLanes = 1;

double PeakScalar(int64_t steps) {
  double acc[kPeakChains];
  for (int j = 0; j < kPeakChains; ++j) acc[j] = 1.0 + j;
  for (int64_t s = 0; s < steps; ++s) {
    for (double& a : acc) a = a * kPeakMul + kPeakAdd;
  }
  double sum = 0.0;
  for (double a : acc) sum += a;
  return sum;
}
#endif

struct PeakProbe {
  double (*fn)(int64_t steps);
  int lanes;  ///< Doubles per FMA.
  double flops() const { return 2.0 * lanes * kPeakChains * kPeakSteps; }
};

/// The probe for a kernel set by name ({nullptr, 0} when there is none).
PeakProbe PeakProbeFor(const std::string& set) {
  if (set == "scalar") return {PeakScalar, kScalarPeakLanes};
#ifdef GENBASE_KERNELBENCH_X86
  if (set == "avx2") return {PeakAvx2, 4};
  if (set == "avx512") return {PeakAvx512, 8};
#endif
  return {nullptr, 0};
}

/// "gemm/set_avx2" -> "avx2"; "" for a series not tied to one kernel set.
std::string SetOf(const std::string& name) {
  const size_t at = name.rfind("/set_");
  return at == std::string::npos ? "" : name.substr(at + 5);
}

std::string KernelOf(const std::string& name) {
  return name.substr(0, name.find('/'));
}

/// FLOP counts per invocation of the named benchmark, for the GFLOP/s
/// column.
double KernelFlops(const std::string& name) {
  const std::string kernel = KernelOf(name);
  if (kernel == "peak") return PeakProbeFor(SetOf(name)).flops();
  if (kernel == "dot") return 2.0 * kVecLen;
  if (kernel == "axpy") return 2.0 * kVecLen;
  if (kernel == "gemv") return 2.0 * kGemvRows * kGemvCols;
  if (kernel == "gram_apply") return 4.0 * kGramRows * kGramCols;
  // Householder tridiagonalization of the medium Q4 Gram matrix: 4/3 n^3.
  if (kernel == "eig") return 4.0 / 3.0 * kGramCols * kGramCols * kGramCols;
  if (kernel == "gemm") return 2.0 * kGemmM * kGemmK * kGemmN;
  // Householder QR of an m x n matrix: 2mn^2 - 2n^3/3 (the Q^T b and back
  // substitution add O(mn)).
  if (kernel == "qr") {
    return 2.0 * kQrRows * kQrCols * kQrCols -
           2.0 / 3.0 * kQrCols * kQrCols * kQrCols;
  }
  // Upper triangle only (mirror is free-ish): m * n * (n + 1) FMAs.
  if (kernel == "syrk" || kernel == "covariance") {
    return static_cast<double>(kSyrkRows) * kSyrkCols * (kSyrkCols + 1);
  }
  return 0.0;
}

/// Matches queries.cc: delta as a fraction of the full-matrix MSR.
double CcDelta(const Matrix& m) {
  std::vector<int64_t> rows(static_cast<size_t>(m.rows()));
  std::vector<int64_t> cols(static_cast<size_t>(m.cols()));
  for (int64_t i = 0; i < m.rows(); ++i) rows[static_cast<size_t>(i)] = i;
  for (int64_t j = 0; j < m.cols(); ++j) cols[static_cast<size_t>(j)] = j;
  return 0.05 * MeanSquaredResidue(MatrixView(m), rows, cols);
}

void RegisterAll(ThreadPool* pool) {
  // Inputs are leaked intentionally: benchmarks reference them until exit.
  auto* xv = new std::vector<double>(RandomVector(kVecLen, 1));
  auto* yv = new std::vector<double>(RandomVector(kVecLen, 2));
  auto* gemv_a = new Matrix(RandomMatrix(kGemvRows, kGemvCols, 3));
  auto* gemv_x = new std::vector<double>(RandomVector(kGemvCols, 4));
  auto* gemv_y = new std::vector<double>(static_cast<size_t>(kGemvRows));
  auto* gemm_a = new Matrix(RandomMatrix(kGemmM, kGemmK, 5));
  auto* gemm_b = new Matrix(RandomMatrix(kGemmK, kGemmN, 6));
  auto* gemm_c = new Matrix(kGemmM, kGemmN);
  auto* syrk_a = new Matrix(RandomMatrix(kSyrkRows, kSyrkCols, 7));
  auto* syrk_c = new Matrix(kSyrkCols, kSyrkCols);
  auto* cc = new Matrix(PlantedBiclusterMatrix(kCcRows, kCcCols, 8));
  auto* gram_a = new Matrix(RandomMatrix(kGramRows, kGramCols, 9));
  auto* gram_x = new std::vector<double>(RandomVector(kGramCols, 10));
  auto* gram_y = new std::vector<double>(static_cast<size_t>(kGramCols));
  auto* gram_tmp = new std::vector<double>(static_cast<size_t>(kGramRows));
  auto* qr_a = new Matrix(RandomMatrix(kQrRows, kQrCols, 11));
  auto* qr_b = new std::vector<double>(RandomVector(kQrRows, 12));

  auto reg = [](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(name.c_str(), fn)
        ->MinTime(0.05)
        ->Unit(benchmark::kMicrosecond);
  };

  for (const auto backend : {kScalar, kSimd}) {
    const std::string v = genbase::simd::BackendName(backend);
    reg("dot/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        benchmark::DoNotOptimize(
            genbase::linalg::Dot(xv->data(), yv->data(), kVecLen));
      }
    });
    reg("axpy/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        genbase::linalg::Axpy(1e-6, xv->data(), yv->data(), kVecLen);
        benchmark::DoNotOptimize(yv->data());
      }
    });
    reg("gemv/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        genbase::linalg::Gemv(MatrixView(*gemv_a), gemv_x->data(),
                              gemv_y->data());
        benchmark::DoNotOptimize(gemv_y->data());
      }
    });
    reg("gemm/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        benchmark::DoNotOptimize(genbase::linalg::Gemm(
            MatrixView(*gemm_a), MatrixView(*gemm_b), gemm_c));
      }
    });
    reg("syrk/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        benchmark::DoNotOptimize(
            genbase::linalg::Syrk(MatrixView(*syrk_a), syrk_c));
      }
    });
    reg("covariance/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        auto cov = genbase::linalg::CovarianceMatrix(
            MatrixView(*syrk_a), genbase::linalg::KernelQuality::kTuned);
        benchmark::DoNotOptimize(cov);
      }
    });
  }

  // Threaded variants (SIMD backend + the default pool).
  reg("gemm/simd_threaded", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      benchmark::DoNotOptimize(genbase::linalg::Gemm(
          MatrixView(*gemm_a), MatrixView(*gemm_b), gemm_c, pool));
    }
  });
  reg("syrk/simd_threaded", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          genbase::linalg::Syrk(MatrixView(*syrk_a), syrk_c, pool));
    }
  });

  // Gemm, Syrk and Query 1's solve under each kernel set this CPU runs
  // (the simd backend with that set pinned), with the set's FMA peak.
  for (const genbase::linalg::KernelOps* ops :
       genbase::linalg::AvailableKernels()) {
    const std::string v = std::string("set_") + ops->name;
    const PeakProbe probe = PeakProbeFor(ops->name);
    if (probe.fn != nullptr) {
      reg("peak/" + v, [=](benchmark::State& state) {
        for (auto _ : state) benchmark::DoNotOptimize(probe.fn(kPeakSteps));
      });
    }
    reg("gemm/" + v, [=](benchmark::State& state) {
      ScopedKernelSet ks(ops);
      for (auto _ : state) {
        benchmark::DoNotOptimize(genbase::linalg::Gemm(
            MatrixView(*gemm_a), MatrixView(*gemm_b), gemm_c));
      }
    });
    reg("syrk/" + v, [=](benchmark::State& state) {
      ScopedKernelSet ks(ops);
      for (auto _ : state) {
        benchmark::DoNotOptimize(
            genbase::linalg::Syrk(MatrixView(*syrk_a), syrk_c));
      }
    });
    reg("qr/lsq/" + v, [=](benchmark::State& state) {
      ScopedKernelSet ks(ops);
      for (auto _ : state) {
        auto fit = genbase::linalg::LeastSquaresQr(MatrixView(*qr_a), *qr_b);
        benchmark::DoNotOptimize(fit);
      }
    });
  }

  // Query 4's Gram operator y = A^T (A x), single-threaded: one pass over A
  // (GramApply) vs Gemv + GemvTranspose. bytes_per_second counts the matrix
  // bytes each variant streams: 1x fused, 2x two-pass.
  const int64_t gram_bytes = gram_a->bytes();
  reg("gram_apply/fused", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      genbase::linalg::GramApply(MatrixView(*gram_a), gram_x->data(),
                                 gram_y->data());
      benchmark::DoNotOptimize(gram_y->data());
      benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * gram_bytes);
  });
  reg("gram_apply/two_pass", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      genbase::linalg::Gemv(MatrixView(*gram_a), gram_x->data(),
                            gram_tmp->data());
      genbase::linalg::GemvTranspose(MatrixView(*gram_a), gram_tmp->data(),
                                     gram_y->data());
      benchmark::DoNotOptimize(gram_y->data());
      benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * 2 * gram_bytes);
  });

  // Query 1's solve, single-threaded: the blocked Householder QR (panels
  // plus two packed Gemms per panel) with Q^T b and back substitution.
  reg("qr/lsq", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      auto fit = genbase::linalg::LeastSquaresQr(MatrixView(*qr_a), *qr_b);
      benchmark::DoNotOptimize(fit);
    }
  });

  // Query 4's singular values (top 50), single-threaded, by each method
  // regardless of linalg::ChooseSvdMethod: the sweep its crossover weight
  // comes from. Lanczos runs to its 220-step cap on these Gaussian inputs,
  // as on the medium dataset. Inputs are built on first use, so a filtered
  // run never allocates the 100 MB xlarge one.
  auto* q4_inputs = new std::map<int64_t, Matrix>();  // Keyed by cols.
  for (const auto& shape : kQ4Shapes) {
    const int64_t m = shape[0], n = shape[1];
    const std::string dims = std::to_string(m) + "x" + std::to_string(n);
    for (const bool dense : {false, true}) {
      reg("svd_values/" + std::string(dense ? "dense/" : "lanczos/") + dims,
          [=](benchmark::State& state) {
            ScopedBackend sb(kSimd);
            auto it = q4_inputs->find(n);
            if (it == q4_inputs->end()) {
              it = q4_inputs->emplace(n, RandomMatrix(m, n, 13)).first;
            }
            genbase::linalg::SvdOptions opt;
            for (auto _ : state) {
              auto r = dense ? genbase::linalg::DenseSingularValues(
                                   MatrixView(it->second), opt)
                             : genbase::linalg::LanczosSingularValues(
                                   MatrixView(it->second), opt);
              GENBASE_CHECK(r.ok());
              benchmark::DoNotOptimize(r);
            }
          });
    }
  }

  // The dense path's reduction alone on the medium Gram matrix (the copy
  // it destroys is made outside the timing); GFLOP/s from 4/3 n^3.
  auto* gram_g = new Matrix(kGramCols, kGramCols);
  GENBASE_CHECK(genbase::linalg::Syrk(MatrixView(*gram_a), gram_g).ok());
  reg("eig/tridiag", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    std::vector<double> d, e;
    for (auto _ : state) {
      state.PauseTiming();
      Matrix g = *gram_g;
      state.ResumeTiming();
      GENBASE_CHECK(
          genbase::linalg::HouseholderTridiagonalize(&g, &d, &e).ok());
      benchmark::DoNotOptimize(d.data());
    }
  });

  // Cheng–Church residue engines: whole-extraction timing; per-iteration
  // figures come from the counter run in main().
  for (const auto impl : {ChengChurchImpl::kReference,
                          ChengChurchImpl::kIncremental}) {
    const std::string v = impl == ChengChurchImpl::kReference
                              ? "reference" : "incremental";
    reg("residue/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      ChengChurchOptions opt;
      opt.delta = CcDelta(*cc);
      opt.max_biclusters = 1;
      opt.min_rows = 4;
      opt.min_cols = 4;
      opt.impl = impl;
      for (auto _ : state) {
        benchmark::DoNotOptimize(ChengChurch(MatrixView(*cc), opt));
      }
    });
  }
}

/// --- planned column-store query benches -------------------------------------
/// plan_compile/qN times one access-path build (filter, join, mappings, side
/// inputs); plan_execute/qN times one run on cached access paths;
/// legacy_execute/qN is the per-run PrepareInputsColumnar + analytics path
/// the cache replaces, on the same tables and kernels.

constexpr double kPlanScale = 0.02;

genbase::core::QueryParams PlanParams() {
  genbase::core::QueryParams p;
  p.svd_rank = 6;
  p.bicluster_count = 2;
  p.sample_fraction = 0.1;
  return p;
}

struct PlanBench {
  genbase::plan::PlanEngine engine;
  std::shared_ptr<genbase::engine::ColumnarTables> tables;
  genbase::MemoryTracker legacy_tracker{genbase::MemoryTracker::kUnlimited,
                                        "LegacyBench"};

  static PlanBench& Get() {
    static auto* b = [] {
      auto* pb = new PlanBench();
      auto data = genbase::core::GenerateDataset(
          genbase::core::DatasetSize::kSmall, kPlanScale);
      GENBASE_CHECK(data.ok());
      GENBASE_CHECK(pb->engine.LoadDataset(*data).ok());
      pb->tables = std::make_shared<genbase::engine::ColumnarTables>();
      GENBASE_CHECK(genbase::engine::LoadColumnarTables(
                        *data, &pb->legacy_tracker, pb->tables.get())
                        .ok());
      return pb;
    }();
    return *b;
  }
};

genbase::Result<genbase::core::QueryResult> RunLegacyQuery(
    PlanBench& b, genbase::core::QueryId q, genbase::ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      genbase::engine::QueryInputs inputs,
      genbase::engine::PrepareInputsColumnar(*b.tables, q, PlanParams(), ctx));
  return genbase::engine::RunStandardAnalytics(
      q, std::move(inputs), PlanParams(),
      genbase::linalg::KernelQuality::kTuned, ctx);
}

void RegisterPlanBenches() {
  auto reg = [](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(name.c_str(), fn)
        ->MinTime(0.05)
        ->Unit(benchmark::kMicrosecond);
  };
  for (const auto q : genbase::core::kAllQueries) {
    const std::string qn = genbase::core::QueryName(q);
    reg("plan_compile/" + qn, [q](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      PlanBench& b = PlanBench::Get();
      genbase::ExecContext ctx;
      b.engine.PrepareContext(&ctx);
      const auto key = genbase::engine::AccessPathKey::Of(q, PlanParams());
      for (auto _ : state) {
        auto paths = genbase::engine::BuildAccessPaths(*b.tables, key, &ctx);
        GENBASE_CHECK(paths.ok());
        benchmark::DoNotOptimize(paths);
      }
    });
    reg("plan_execute/" + qn, [q](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      PlanBench& b = PlanBench::Get();
      genbase::ExecContext ctx;
      b.engine.PrepareContext(&ctx);
      // Warm the cache so the loop times execution, not the prep build.
      GENBASE_CHECK(b.engine.RunQuery(q, PlanParams(), &ctx).ok());
      for (auto _ : state) {
        auto r = b.engine.RunQuery(q, PlanParams(), &ctx);
        GENBASE_CHECK(r.ok());
        benchmark::DoNotOptimize(r);
      }
    });
    reg("legacy_execute/" + qn, [q](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      PlanBench& b = PlanBench::Get();
      genbase::ExecContext ctx;
      ctx.set_memory(&b.legacy_tracker);
      for (auto _ : state) {
        auto r = RunLegacyQuery(b, q, &ctx);
        GENBASE_CHECK(r.ok());
        benchmark::DoNotOptimize(r);
      }
    });
  }
}

/// Deterministic memory gate, enforced on every run (no clock involved):
/// the planned engine's total tracked peak must stay within a documented
/// factor of the legacy path's.
int RunPlanGates() {
  int failures = 0;
  PlanBench& b = PlanBench::Get();
  genbase::ExecContext ctx;
  b.engine.PrepareContext(&ctx);
  for (const auto q : genbase::core::kAllQueries) {
    auto r = b.engine.RunQuery(q, PlanParams(), &ctx);
    if (!r.ok()) {
      std::fprintf(stderr, "GATE FAIL: plan execute %s: %s\n",
                   genbase::core::QueryName(q),
                   r.status().ToString().c_str());
      ++failures;
    }
  }
  // Memory-peak gate: run the five legacy queries against the legacy
  // tracker (tables + tracked per-run temporaries), then compare engine
  // totals. The planned engine's peak additionally holds its cached
  // entries' access paths (join index, id vectors, dense mappings, Q5
  // memberships — data-management state the legacy path rebuilds per run,
  // largely through untracked std::vectors), so parity is not the bar;
  // staying within 2.5x is. A cache blow-up (too many keys, a matrix kept
  // in an entry) or a per-run buffer blow-up trips this long before it
  // hurts RSS.
  {
    genbase::ExecContext legacy_ctx;
    legacy_ctx.set_memory(&b.legacy_tracker);
    for (const auto q : genbase::core::kAllQueries) {
      auto r = RunLegacyQuery(b, q, &legacy_ctx);
      if (!r.ok()) {
        std::fprintf(stderr, "GATE FAIL: legacy execute %s: %s\n",
                     genbase::core::QueryName(q),
                     r.status().ToString().c_str());
        ++failures;
      }
    }
  }
  const int64_t plan_peak = b.engine.tracker()->peak();
  const int64_t legacy_peak = b.legacy_tracker.peak();
  if (2 * plan_peak > 5 * legacy_peak) {
    std::fprintf(stderr,
                 "GATE FAIL: planned engine peak %lldB > 2.5x legacy "
                 "%lldB\n",
                 static_cast<long long>(plan_peak),
                 static_cast<long long>(legacy_peak));
    ++failures;
  }
  if (failures == 0) {
    std::printf("# plan gates passed: peak planned=%lldB legacy=%lldB\n",
                static_cast<long long>(plan_peak),
                static_cast<long long>(legacy_peak));
  }
  return failures;
}

/// Relative planned-vs-legacy throughput gate: a run on cached access paths
/// must not run slower than the per-run prepare+analytics path it replaces
/// (>10% grace). Clock-dependent, so CI (--baseline) mode only; sanitizer
/// builds skip it — instrumentation taxes the two paths asymmetrically.
bool SkipOverheadGates() {
  if (genbase::kUnderSanitizer) return true;
  const char* env = std::getenv("GENBASE_SKIP_OVERHEAD_GATES");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

int RunPlanSpeedGates() {
  int failures = 0;
  for (const auto q : genbase::core::kAllQueries) {
    const std::string qn = genbase::core::QueryName(q);
    const auto planned = Results().find("plan_execute/" + qn);
    const auto legacy = Results().find("legacy_execute/" + qn);
    if (planned == Results().end() || legacy == Results().end()) continue;
    if (planned->second > legacy->second * 1.10) {
      std::fprintf(stderr,
                   "GATE FAIL: plan_execute/%s %.0fns slower than legacy "
                   "%.0fns (>10%%)\n",
                   qn.c_str(), planned->second, legacy->second);
      ++failures;
    }
  }
  return failures;
}

/// One counted extraction per engine, for the FLOP-reduction gate and the
/// per-iteration timing lines.
struct ResidueAccounting {
  ChengChurchCounters reference;
  ChengChurchCounters incremental;
  double flop_ratio() const {
    return incremental.residue_flops > 0
               ? static_cast<double>(reference.residue_flops) /
                     static_cast<double>(incremental.residue_flops)
               : 0.0;
  }
};

ResidueAccounting CountResidueWork() {
  const Matrix m = PlantedBiclusterMatrix(kCcRows, kCcCols, 8);
  ResidueAccounting acc;
  ChengChurchOptions opt;
  opt.delta = CcDelta(m);
  opt.max_biclusters = 1;
  opt.min_rows = 4;
  opt.min_cols = 4;
  opt.impl = ChengChurchImpl::kReference;
  opt.counters = &acc.reference;
  (void)ChengChurch(MatrixView(m), opt);
  opt.impl = ChengChurchImpl::kIncremental;
  opt.counters = &acc.incremental;
  (void)ChengChurch(MatrixView(m), opt);
  return acc;
}

/// Hardware-counter profile of the SIMD kernel variants: one delta-read of
/// the thread's perf_event group around a fixed batch of invocations per
/// kernel. When the counters cannot open (perf_event_paranoid, no PMU,
/// non-Linux) every reading is invalid and serializes as nulls — the
/// profile degrades, the benchmark never fails because of it.
std::map<std::string, genbase::obs::PerfReading> ProfileKernels() {
  std::map<std::string, genbase::obs::PerfReading> out;
  genbase::obs::PerfCounterSet* counters = genbase::obs::ThreadPerfCounters();
  ScopedBackend sb(kSimd);

  const std::vector<double> xv = RandomVector(kVecLen, 1);
  std::vector<double> yv = RandomVector(kVecLen, 2);
  const Matrix gemv_a = RandomMatrix(kGemvRows, kGemvCols, 3);
  const std::vector<double> gemv_x = RandomVector(kGemvCols, 4);
  std::vector<double> gemv_y(static_cast<size_t>(kGemvRows));
  const Matrix gemm_a = RandomMatrix(kGemmM, kGemmK, 5);
  const Matrix gemm_b = RandomMatrix(kGemmK, kGemmN, 6);
  Matrix gemm_c(kGemmM, kGemmN);
  const Matrix syrk_a = RandomMatrix(kSyrkRows, kSyrkCols, 7);
  Matrix syrk_c(kSyrkCols, kSyrkCols);

  const auto profile = [&](const std::string& name, int reps, auto body) {
    const genbase::obs::PerfReading begin = counters->Read();
    for (int r = 0; r < reps; ++r) body();
    out[name] = counters->Read() - begin;
  };
  profile("dot/simd", 200, [&] {
    benchmark::DoNotOptimize(genbase::linalg::Dot(xv.data(), yv.data(),
                                                  kVecLen));
  });
  profile("gemv/simd", 50, [&] {
    genbase::linalg::Gemv(MatrixView(gemv_a), gemv_x.data(), gemv_y.data());
    benchmark::DoNotOptimize(gemv_y.data());
  });
  profile("gemm/simd", 3, [&] {
    benchmark::DoNotOptimize(
        genbase::linalg::Gemm(MatrixView(gemm_a), MatrixView(gemm_b),
                              &gemm_c));
  });
  profile("syrk/simd", 3, [&] {
    benchmark::DoNotOptimize(genbase::linalg::Syrk(MatrixView(syrk_a),
                                                   &syrk_c));
  });
  profile("covariance/simd", 3, [&] {
    auto cov = genbase::linalg::CovarianceMatrix(
        MatrixView(syrk_a), genbase::linalg::KernelQuality::kTuned);
    benchmark::DoNotOptimize(cov);
  });
  return out;
}

/// Baseline files keep one kernel per line: `"gemm/scalar":{"ns":123.4},`.
std::map<std::string, double> ParseBaseline(const std::string& path,
                                            bool* ok) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  *ok = in.good();
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_start = line.find('"');
    if (name_start == std::string::npos) continue;
    const size_t name_end = line.find('"', name_start + 1);
    if (name_end == std::string::npos) continue;
    const std::string name =
        line.substr(name_start + 1, name_end - name_start - 1);
    if (name.find('/') == std::string::npos) continue;  // Not a kernel row.
    const size_t ns_key = line.find("\"ns\":", name_end);
    if (ns_key == std::string::npos) continue;
    out[name] = std::strtod(line.c_str() + ns_key + 5, nullptr);
  }
  return out;
}

/// Measured GFLOP/s of a benchmark (0 when it has no FLOP count or did not
/// run).
double GflopsOf(const std::string& name) {
  const auto it = Results().find(name);
  const double flops = KernelFlops(name);
  return it != Results().end() && flops > 0 && it->second > 0
             ? flops / it->second
             : 0.0;
}

/// A kernel set's measured FMA peak in GFLOP/s (0 when not measured).
double PeakGflops(const std::string& set) {
  return set.empty() ? 0.0 : GflopsOf("peak/set_" + set);
}

int WriteJson(const std::string& path, const ResidueAccounting& acc,
              const std::map<std::string, genbase::obs::PerfReading>& perf) {
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"figure\":\"kernelbench\",\"stamp\":%s,\n",
               genbase::bench::StampJson().c_str());
  std::fprintf(f, "\"cpu\":{\"avx2\":%s,\"avx512\":%s},\n",
               genbase::simd::CpuSupportsAvx2() ? "true" : "false",
               genbase::simd::CpuSupportsAvx512() ? "true" : "false");
  std::fprintf(f, "\"kernels\":{\n");
  bool first = true;
  for (const auto& [name, ns] : Results()) {
    const double gflops = GflopsOf(name);
    std::fprintf(f, "%s\"%s\":{\"ns\":%.1f,\"gflops\":%.3f", first ? "" : ",\n",
                 name.c_str(), ns, gflops);
    const double peak = PeakGflops(SetOf(name));
    if (peak > 0) std::fprintf(f, ",\"peak_frac\":%.3f", gflops / peak);
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "\n},\n\"perf\":{");
  first = true;
  for (const auto& [name, reading] : perf) {
    std::fprintf(f, "%s\"%s\":%s", first ? "" : ",", name.c_str(),
                 reading.ToJson().c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"residue\":{");
  std::fprintf(f,
               "\"reference_flops\":%lld,\"incremental_flops\":%lld,"
               "\"flop_ratio\":%.2f,\"reference_iterations\":%lld,"
               "\"incremental_iterations\":%lld}",
               static_cast<long long>(acc.reference.residue_flops),
               static_cast<long long>(acc.incremental.residue_flops),
               acc.flop_ratio(),
               static_cast<long long>(acc.reference.iterations),
               static_cast<long long>(acc.incremental.iterations));
  std::fprintf(f, "}\n");
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("# json report written to %s (%zu kernels)\n", path.c_str(),
              Results().size());
  return 0;
}

double SpeedupOf(const char* kernel) {
  const auto scalar = Results().find(std::string(kernel) + "/scalar");
  const auto simd = Results().find(std::string(kernel) + "/simd");
  if (scalar == Results().end() || simd == Results().end() ||
      simd->second <= 0) {
    return 0.0;
  }
  return scalar->second / simd->second;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      genbase::bench::ExtractFlagValue(&argc, argv, "--json");
  const std::string baseline_path =
      genbase::bench::ExtractFlagValue(&argc, argv, "--baseline");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  ThreadPool* pool = genbase::DefaultPool();
  RegisterAll(pool);
  RegisterPlanBenches();
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  const ResidueAccounting acc = CountResidueWork();
  const std::map<std::string, genbase::obs::PerfReading> perf =
      ProfileKernels();

  // Summary: scalar vs SIMD speedups, each kernel set against its own FMA
  // peak, plus the residue-engine accounting.
  std::printf("\n--- kernelbench summary (avx2 %s, avx512 %s, active set "
              "%s) ---\n",
              genbase::simd::CpuSupportsAvx2() ? "available" : "absent",
              genbase::simd::CpuSupportsAvx512() ? "available" : "absent",
              genbase::linalg::ActiveKernels().name);
  for (const char* k : {"dot", "axpy", "gemv", "gemm", "syrk",
                        "covariance"}) {
    std::printf("  %-10s simd speedup %.2fx\n", k, SpeedupOf(k));
  }
  for (const genbase::linalg::KernelOps* ops :
       genbase::linalg::AvailableKernels()) {
    const double peak = PeakGflops(ops->name);
    if (peak <= 0) continue;
    std::printf("  set %-7s peak %6.1f GFLOP/s", ops->name, peak);
    for (const char* k : {"gemm", "syrk", "qr/lsq"}) {
      const double g = GflopsOf(std::string(k) + "/set_" + ops->name);
      if (g > 0) std::printf("  %s %.1f (%.0f%%)", k, g, 100.0 * g / peak);
    }
    std::printf("\n");
  }
  bool perf_valid = false;
  for (const auto& [name, reading] : perf) {
    if (!reading.valid) continue;
    perf_valid = true;
    std::printf("  %-16s ipc %.2f  cache-miss %.1f%%  (%.2e cycles)\n",
                name.c_str(), reading.ipc(),
                100.0 * reading.cache_miss_rate(),
                static_cast<double>(reading.cycles));
  }
  if (!perf_valid) {
    std::printf("  hardware counters unavailable "
                "(perf_event_open denied or no PMU)\n");
  }
  const auto ref_it = Results().find("residue/reference");
  const auto inc_it = Results().find("residue/incremental");
  if (ref_it != Results().end() && inc_it != Results().end()) {
    std::printf("  residue engines: reference %.0fus/iter (%lld iters), "
                "incremental %.0fus/iter (%lld iters), flop ratio %.1fx\n",
                1e-3 * ref_it->second /
                    std::max<int64_t>(1, acc.reference.iterations),
                static_cast<long long>(acc.reference.iterations),
                1e-3 * inc_it->second /
                    std::max<int64_t>(1, acc.incremental.iterations),
                static_cast<long long>(acc.incremental.iterations),
                acc.flop_ratio());
  }

  int failures = WriteJson(json_path, acc, perf);

  // The FLOP-reduction gate is deterministic: enforce it on every run.
  if (acc.flop_ratio() < 5.0) {
    std::fprintf(stderr,
                 "GATE FAIL: incremental Cheng-Church flop ratio %.2fx < 5x\n",
                 acc.flop_ratio());
    ++failures;
  }

  // Planned-engine memory ceiling is deterministic — every run; the
  // planned-vs-legacy speed ratio is CI-only.
  failures += RunPlanGates();

  if (!baseline_path.empty()) {
    if (SkipOverheadGates()) {
      std::printf("# plan speed gates skipped (sanitizer build or "
                  "GENBASE_SKIP_OVERHEAD_GATES)\n");
    } else {
      failures += RunPlanSpeedGates();
    }
  }

  if (!baseline_path.empty()) {
    // Relative speed gates (machine-independent) — CI mode only, because
    // they need a sane clock, not just sane code.
    if (genbase::simd::CpuSupportsAvx2()) {
      for (const char* k : {"gemm", "syrk"}) {
        const double speedup = SpeedupOf(k);
        if (speedup < 2.0) {
          std::fprintf(stderr,
                       "GATE FAIL: %s simd speedup %.2fx < 2x scalar\n", k,
                       speedup);
          ++failures;
        }
      }
    }
    bool baseline_ok = false;
    const std::map<std::string, double> baseline =
        ParseBaseline(baseline_path, &baseline_ok);
    if (!baseline_ok || baseline.empty()) {
      std::fprintf(stderr, "GATE FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      ++failures;
    }
    for (const auto& [name, base_ns] : baseline) {
      const auto it = Results().find(name);
      if (it == Results().end()) {
        std::fprintf(stderr, "GATE FAIL: baseline kernel %s not measured\n",
                     name.c_str());
        ++failures;
        continue;
      }
      if (it->second > base_ns * 1.15) {
        std::fprintf(stderr,
                     "GATE FAIL: %s regressed: %.0fns vs baseline %.0fns "
                     "(>15%%)\n",
                     name.c_str(), it->second, base_ns);
        ++failures;
      }
    }
    if (failures == 0) {
      std::printf("# baseline gate passed (%zu kernels within 15%%)\n",
                  baseline.size());
    }
  }

  benchmark::Shutdown();
  return failures == 0 ? 0 : 1;
}
