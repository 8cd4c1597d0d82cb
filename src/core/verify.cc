#include "core/verify.h"

#include <cmath>
#include <cstdio>
#include <string>

namespace genbase::core {

namespace {

genbase::Status FailMismatch(const char* what, double expected,
                             double actual) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s mismatch: expected %.10g, actual %.10g",
                what, expected, actual);
  return genbase::Status::Internal(buf);
}

genbase::Status CheckClose(const char* what, double expected, double actual,
                           double rel_tol) {
  const double scale =
      std::max({1.0, std::fabs(expected), std::fabs(actual)});
  if (std::fabs(expected - actual) > rel_tol * scale) {
    return FailMismatch(what, expected, actual);
  }
  return genbase::Status::OK();
}

genbase::Status CheckExact(const char* what, int64_t expected,
                           int64_t actual) {
  if (expected != actual) {
    return FailMismatch(what, static_cast<double>(expected),
                        static_cast<double>(actual));
  }
  return genbase::Status::OK();
}

}  // namespace

genbase::Status CompareQueryResults(const QueryResult& expected,
                                    const QueryResult& actual,
                                    double rel_tol) {
  if (expected.query != actual.query) {
    return genbase::Status::Internal("query kind mismatch");
  }
  switch (expected.query) {
    case QueryId::kRegression: {
      const auto& e = expected.regression;
      const auto& a = actual.regression;
      GENBASE_RETURN_NOT_OK(CheckExact("rows", e.rows, a.rows));
      GENBASE_RETURN_NOT_OK(
          CheckExact("predictors", e.predictors, a.predictors));
      GENBASE_RETURN_NOT_OK(
          CheckClose("r_squared", e.r_squared, a.r_squared, rel_tol));
      GENBASE_RETURN_NOT_OK(
          CheckClose("coef_l2", e.coef_l2, a.coef_l2, rel_tol));
      if (e.coef_head.size() != a.coef_head.size()) {
        return genbase::Status::Internal("coef_head length mismatch");
      }
      for (size_t i = 0; i < e.coef_head.size(); ++i) {
        GENBASE_RETURN_NOT_OK(CheckClose("coef_head", e.coef_head[i],
                                         a.coef_head[i], rel_tol * 10));
      }
      return genbase::Status::OK();
    }
    case QueryId::kCovariance: {
      const auto& e = expected.covariance;
      const auto& a = actual.covariance;
      GENBASE_RETURN_NOT_OK(CheckExact("samples", e.samples, a.samples));
      GENBASE_RETURN_NOT_OK(CheckExact("genes", e.genes, a.genes));
      GENBASE_RETURN_NOT_OK(
          CheckClose("threshold", e.threshold, a.threshold, rel_tol));
      // The pair count derives from a floating threshold; allow a sliver.
      const double slack =
          std::max(2.0, 1e-5 * static_cast<double>(e.pairs_above));
      if (std::fabs(static_cast<double>(e.pairs_above - a.pairs_above)) >
          slack) {
        return FailMismatch("pairs_above",
                            static_cast<double>(e.pairs_above),
                            static_cast<double>(a.pairs_above));
      }
      GENBASE_RETURN_NOT_OK(CheckClose("cov_checksum", e.cov_checksum,
                                       a.cov_checksum, rel_tol * 100));
      GENBASE_RETURN_NOT_OK(CheckClose("meta_checksum", e.meta_checksum,
                                       a.meta_checksum, rel_tol * 100));
      return genbase::Status::OK();
    }
    case QueryId::kBiclustering: {
      const auto& e = expected.bicluster;
      const auto& a = actual.bicluster;
      GENBASE_RETURN_NOT_OK(
          CheckExact("matrix_rows", e.matrix_rows, a.matrix_rows));
      GENBASE_RETURN_NOT_OK(
          CheckExact("matrix_cols", e.matrix_cols, a.matrix_cols));
      GENBASE_RETURN_NOT_OK(CheckClose("delta", e.delta, a.delta, rel_tol));
      GENBASE_RETURN_NOT_OK(
          CheckExact("bicluster count",
                     static_cast<int64_t>(e.biclusters.size()),
                     static_cast<int64_t>(a.biclusters.size())));
      for (size_t i = 0; i < e.biclusters.size(); ++i) {
        GENBASE_RETURN_NOT_OK(CheckExact("bicluster rows",
                                         e.biclusters[i].rows,
                                         a.biclusters[i].rows));
        GENBASE_RETURN_NOT_OK(CheckExact("bicluster cols",
                                         e.biclusters[i].cols,
                                         a.biclusters[i].cols));
        GENBASE_RETURN_NOT_OK(CheckClose("bicluster msr",
                                         e.biclusters[i].msr,
                                         a.biclusters[i].msr, rel_tol * 10));
      }
      return genbase::Status::OK();
    }
    case QueryId::kSvd: {
      // iterations and converged describe the run, not the answer: not
      // compared.
      const auto& e = expected.svd;
      const auto& a = actual.svd;
      GENBASE_RETURN_NOT_OK(CheckExact("rows", e.rows, a.rows));
      GENBASE_RETURN_NOT_OK(CheckExact("cols", e.cols, a.cols));
      GENBASE_RETURN_NOT_OK(CheckExact("rank", e.rank, a.rank));
      if (e.singular_values.size() != a.singular_values.size()) {
        return genbase::Status::Internal("singular value count mismatch");
      }
      // Lanczos from different starting vectors agrees on well-separated
      // leading singular values; compare with a modest tolerance relative
      // to sigma_0.
      const double scale =
          e.singular_values.empty() ? 1.0 : e.singular_values[0];
      for (size_t i = 0; i < e.singular_values.size(); ++i) {
        if (std::fabs(e.singular_values[i] - a.singular_values[i]) >
            std::max(rel_tol * 100, 1e-6) * scale) {
          return FailMismatch("singular value", e.singular_values[i],
                              a.singular_values[i]);
        }
      }
      return genbase::Status::OK();
    }
    case QueryId::kStatistics: {
      const auto& e = expected.stats;
      const auto& a = actual.stats;
      GENBASE_RETURN_NOT_OK(CheckExact("samples", e.samples, a.samples));
      GENBASE_RETURN_NOT_OK(
          CheckExact("genes_ranked", e.genes_ranked, a.genes_ranked));
      GENBASE_RETURN_NOT_OK(
          CheckExact("terms_tested", e.terms_tested, a.terms_tested));
      GENBASE_RETURN_NOT_OK(CheckExact("significant_terms",
                                       e.significant_terms,
                                       a.significant_terms));
      GENBASE_RETURN_NOT_OK(
          CheckClose("z_abs_sum", e.z_abs_sum, a.z_abs_sum, rel_tol * 10));
      return genbase::Status::OK();
    }
  }
  return genbase::Status::Internal("unknown query kind");
}

}  // namespace genbase::core
