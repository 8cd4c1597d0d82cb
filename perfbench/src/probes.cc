#include "probes.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bicluster/cheng_church.h"
#include "common/exec_context.h"
#include "common/thread_pool.h"
#include "core/queries.h"
#include "core/reference.h"
#include "linalg/covariance.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "loadgen.h"
#include "relational/restructure.h"
#include "stats.h"

namespace perfbench {

namespace gc = genbase::core;
using genbase::ExecContext;
using genbase::linalg::Matrix;
using genbase::linalg::MatrixView;

namespace {

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// The dense (patients x genes) expression matrix a query's analytics reads,
// built the way the reference builds it.
genbase::Result<Matrix> Expression(const gc::GenBaseData& data,
                                   const std::vector<int64_t>& patients,
                                   const std::vector<int64_t>& genes) {
  const auto& ma = data.microarray;
  return genbase::relational::TriplesToMatrix(
      ma.IntColumn(gc::MicroarrayCols::kPatientId).data(),
      ma.IntColumn(gc::MicroarrayCols::kGeneId).data(),
      ma.DoubleColumn(gc::MicroarrayCols::kExpr).data(), ma.num_rows(),
      genbase::relational::MakeDenseMapping(patients),
      genbase::relational::MakeDenseMapping(genes), nullptr, nullptr);
}

// Runs fn(ctx) `reps` times under a span, with the context single-threaded
// or on the default pool; returns the median wall seconds.
template <typename Fn>
genbase::Result<double> Time(const char* name, bool pooled, int reps,
                             SpanRecorder* spans, Fn fn) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    ExecContext ctx;
    if (pooled) ctx.set_pool(genbase::DefaultPool());
    Span span(spans, name);
    const Clock::time_point t0 = Clock::now();
    GENBASE_RETURN_NOT_OK(fn(&ctx));
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return Median(std::move(seconds));
}

}  // namespace

genbase::Status RunLayerProbes(const gc::GenBaseData& data, int reps,
                               SpanRecorder* spans, Metrics* out) {
  const gc::QueryParams params;
  const std::vector<int64_t> all_patients = Iota(data.dims.patients);
  const std::vector<int64_t> all_genes = Iota(data.dims.genes);

  // Q1: least squares of drug response on [1 | expression of selected genes].
  GENBASE_ASSIGN_OR_RETURN(
      Matrix x1,
      Expression(data, all_patients,
                 gc::SelectGenesByFunction(data, params.function_threshold)));
  Matrix design(x1.rows(), x1.cols() + 1);
  for (int64_t i = 0; i < x1.rows(); ++i) {
    design(i, 0) = 1.0;
    std::copy(x1.Row(i), x1.Row(i) + x1.cols(), design.Row(i) + 1);
  }
  const auto& y_col =
      data.patients.DoubleColumn(gc::PatientCols::kDrugResponse);
  const std::vector<double> y(y_col.begin(), y_col.end());
  for (bool pooled : {false, true}) {
    GENBASE_ASSIGN_OR_RETURN(
        double s, Time("linalg.qr", pooled, reps, spans,
                       [&](ExecContext* ctx) {
                         return genbase::linalg::LeastSquaresQr(
                                    MatrixView(design), y, ctx)
                             .status();
                       }));
    out->push_back({pooled ? "linalg.qr_s.t4" : "linalg.qr_s.t1", s, "s"});
  }

  // Q2: covariance of all genes over one disease's patients (fused Syrk).
  GENBASE_ASSIGN_OR_RETURN(
      Matrix x2,
      Expression(data, gc::SelectPatientsByDisease(data, params.disease_id),
                 all_genes));
  const double m = static_cast<double>(x2.rows());
  const double n = static_cast<double>(x2.cols());
  // Upper triangle of Xc^T Xc: n(n+1)/2 dot products of length m, plus the
  // column means and their subtraction.
  const double cov_flops = m * n * (n + 1.0) + 2.0 * m * n;
  for (bool pooled : {false, true}) {
    GENBASE_ASSIGN_OR_RETURN(
        double s, Time("linalg.cov", pooled, reps, spans,
                       [&](ExecContext* ctx) {
                         return genbase::linalg::CovarianceMatrix(
                                    MatrixView(x2),
                                    genbase::linalg::KernelQuality::kTuned, ctx)
                             .status();
                       }));
    const char* suffix = pooled ? "t4" : "t1";
    out->push_back({std::string("linalg.cov_s.") + suffix, s, "s"});
    out->push_back({std::string("linalg.cov_gflops.") + suffix,
                    cov_flops / s / 1e9, "GFLOP/s"});
  }

  // Q4: top-k singular values of the Q1 selection (Lanczos).
  genbase::linalg::SvdOptions svd_options;
  svd_options.rank = static_cast<int>(std::min<int64_t>(params.svd_rank,
                                                        x1.cols()));
  int iterations = 0;
  for (bool pooled : {false, true}) {
    GENBASE_ASSIGN_OR_RETURN(
        double s, Time("linalg.svd", pooled, reps, spans,
                       [&](ExecContext* ctx) -> genbase::Status {
                         GENBASE_ASSIGN_OR_RETURN(
                             auto svd, genbase::linalg::TruncatedSvd(
                                           MatrixView(x1), svd_options, ctx));
                         iterations = svd.lanczos_iterations;
                         return genbase::Status::OK();
                       }));
    out->push_back({pooled ? "linalg.svd_s.t4" : "linalg.svd_s.t1", s, "s"});
  }
  out->push_back({"linalg.svd_iterations", static_cast<double>(iterations),
                  "count"});

  // Q3: Cheng-Church on young male patients, delta relative to the full
  // matrix's mean squared residue, options as the engines set them.
  GENBASE_ASSIGN_OR_RETURN(
      Matrix x3, Expression(data,
                            gc::SelectPatientsByAgeGender(data, params.gender,
                                                          params.max_age),
                            all_genes));
  genbase::bicluster::ChengChurchOptions cc;
  cc.delta = params.bicluster_delta_fraction *
             genbase::bicluster::MeanSquaredResidue(
                 MatrixView(x3), Iota(x3.rows()), Iota(x3.cols()));
  cc.max_biclusters = params.bicluster_count;
  cc.min_rows = 4;
  cc.min_cols = 4;
  GENBASE_ASSIGN_OR_RETURN(
      double bicluster_s,
      Time("bicluster.cheng_church", false, reps, spans,
           [&](ExecContext* ctx) {
             return genbase::bicluster::ChengChurch(MatrixView(x3), cc, ctx)
                 .status();
           }));
  out->push_back({"bicluster.s", bicluster_s, "s"});

  // Q5: Wilcoxon rank-sum per GO term over mean expression of the sample.
  const std::vector<int64_t> sample =
      gc::SelectSamplePatients(data, params.sample_fraction);
  const std::unordered_set<int64_t> in_sample(sample.begin(), sample.end());
  std::vector<double> score(static_cast<size_t>(data.dims.genes), 0.0);
  const auto& pid = data.microarray.IntColumn(gc::MicroarrayCols::kPatientId);
  const auto& gid = data.microarray.IntColumn(gc::MicroarrayCols::kGeneId);
  const auto& expr = data.microarray.DoubleColumn(gc::MicroarrayCols::kExpr);
  for (size_t i = 0; i < pid.size(); ++i) {
    if (in_sample.count(pid[i]) != 0) score[gid[i]] += expr[i];
  }
  for (auto& s : score) s /= static_cast<double>(sample.size());
  std::vector<std::vector<int64_t>> memberships(
      static_cast<size_t>(data.dims.go_terms));
  const auto& go_gene = data.ontology.IntColumn(gc::GoCols::kGeneId);
  const auto& go_term = data.ontology.IntColumn(gc::GoCols::kGoId);
  const auto& go_belongs = data.ontology.IntColumn(gc::GoCols::kBelongs);
  for (size_t i = 0; i < go_gene.size(); ++i) {
    if (go_belongs[i] != 0) memberships[go_term[i]].push_back(go_gene[i]);
  }
  for (auto& members : memberships) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  GENBASE_ASSIGN_OR_RETURN(
      double stats_s,
      Time("stats.wilcoxon", false, reps, spans, [&](ExecContext* ctx) {
        return gc::StatsAnalytics(score, memberships, params.significance, ctx)
            .status();
      }));
  out->push_back({"stats.s", stats_s, "s"});
  return genbase::Status::OK();
}

}  // namespace perfbench
