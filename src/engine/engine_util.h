#ifndef GENBASE_ENGINE_ENGINE_UTIL_H_
#define GENBASE_ENGINE_ENGINE_UTIL_H_

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/datasets.h"
#include "core/queries.h"
#include "linalg/matrix.h"
#include "relational/col_ops.h"
#include "relational/restructure.h"
#include "storage/column_store.h"

namespace genbase::engine {

/// \brief What a query's analytics step reads besides its dense buffers:
/// the ids backing the matrix, Q1's target, Q2's metadata access path and
/// Q5's memberships. Every engine produces these through its own storage
/// and operators; what differs across engines is how (and how fast) they
/// get built, never what they contain.
struct SideInputs {
  std::vector<int64_t> row_ids;    ///< Patient ids backing x's rows.
  std::vector<int64_t> col_ids;    ///< Gene ids backing x's columns.
  std::vector<double> y;           ///< Q1 target (drug response).
  std::vector<std::vector<int64_t>> memberships;  ///< Q5 GO memberships.
  core::GeneMetaLookup meta;       ///< Q2 metadata join access path.
  int64_t sample_count = 0;        ///< Q5 sampled patients.
};

/// \brief The outputs of a query's data-management phase, in the neutral
/// shape the shared analytics blocks consume.
struct QueryInputs : SideInputs {
  linalg::Matrix x;                ///< Dense matrix (Q1..Q4; no intercept).
  std::vector<double> scores;      ///< Q5 per-gene scores.
};

/// \brief Runs the analytics phase of `query` with the given kernel
/// quality, timing it into Phase::kAnalytics. `x` is the dense matrix —
/// for Q1 the transposed regression design [1 | X]^T, intercept row first,
/// which the solve factors in place; `scores` holds Q5's scores. `side` may be shared by
/// concurrent calls.
genbase::Result<core::QueryResult> RunStandardAnalytics(
    core::QueryId query, const SideInputs& side, linalg::Matrix x,
    const std::vector<double>& scores, const core::QueryParams& params,
    linalg::KernelQuality quality, ExecContext* ctx,
    std::function<genbase::Status()> bicluster_pass_hook = nullptr);

/// \brief The same on an engine's QueryInputs: for Q1 it first builds the
/// design from X (the model.matrix step, timed as analytics).
genbase::Result<core::QueryResult> RunStandardAnalytics(
    core::QueryId query, QueryInputs inputs, const core::QueryParams& params,
    linalg::KernelQuality quality, ExecContext* ctx,
    std::function<genbase::Status()> bicluster_pass_hook = nullptr);

/// \brief The "export to external R" glue: serializes a matrix to CSV text
/// and parses it back, exactly the copy/reformat round trip the paper's
/// Postgres+R and ColumnStore+R configurations pay. Returns the re-imported
/// matrix; the caller times the call inside Phase::kGlue.
genbase::Result<linalg::Matrix> CsvRoundTripMatrix(
    const linalg::MatrixView& m, ExecContext* ctx);

/// CSV round trip for a vector (Q1's response column, Q5's scores).
genbase::Result<std::vector<double>> CsvRoundTripVector(
    const std::vector<double>& v, ExecContext* ctx);

/// \brief The in-database UDF transfer: chunk-wise in-process copy plus a
/// modeled per-invocation interpreter-entry overhead (SimConfig
/// udf_invocation_overhead_s), charged as virtual glue time.
genbase::Result<linalg::Matrix> UdfTransferMatrix(
    const linalg::MatrixView& m, ExecContext* ctx, int64_t chunk_rows);

/// \brief Builds GO memberships (term -> sorted unique gene ids) from a
/// columnar ontology table by a vectorized pass.
std::vector<std::vector<int64_t>> BuildMembershipsColumnar(
    const storage::ColumnTable& ontology, int64_t num_terms);

/// \brief Gene-metadata lookup backed by a hash index over a columnar gene
/// table (built once per query; the Q2 join goes through it).
core::GeneMetaLookup MakeColumnarMetaLookup(
    const storage::ColumnTable& genes);

/// \brief A loaded dataset in columnar native storage (used by the R,
/// column-store and — for its 1-D metadata arrays — SciDB engines).
struct ColumnarTables {
  storage::ColumnTable microarray{core::MicroarraySchema()};
  storage::ColumnTable patients{core::PatientMetaSchema()};
  storage::ColumnTable genes{core::GeneMetaSchema()};
  storage::ColumnTable ontology{core::GeneOntologySchema()};
  core::DatasetDims dims;
};

/// Deep-copies the neutral data into `out`, charging `tracker`.
genbase::Status LoadColumnarTables(const core::GenBaseData& data,
                                   MemoryTracker* tracker,
                                   ColumnarTables* out);

/// \brief The parameters a column-store query's data-management step
/// reads: the query plus its own filter fields, every other field zero.
/// Two requests with equal keys build identical access paths over the same
/// tables, however their analytics parameters differ.
struct AccessPathKey {
  core::QueryId query = core::QueryId::kRegression;
  int64_t function_threshold = 0;  ///< Q1/Q4 gene filter.
  int64_t disease_id = 0;          ///< Q2 patient filter.
  int64_t gender = 0;              ///< Q3 patient filter.
  int64_t max_age = 0;             ///< Q3 patient filter.
  double sample_fraction = 0.0;    ///< Q5 patient sample.

  static AccessPathKey Of(core::QueryId query,
                          const core::QueryParams& params);

  bool operator<(const AccessPathKey& o) const {
    return std::tie(query, function_threshold, disease_id, gender, max_age,
                    sample_fraction) <
           std::tie(o.query, o.function_threshold, o.disease_id, o.gender,
                    o.max_age, o.sample_fraction);
  }
};

/// \brief A column-store query's access paths: the side inputs plus the
/// join index and dense mappings that materialization scatters through.
/// Read-only once built.
struct AccessPaths : SideInputs {
  relational::JoinIndex join;        ///< Matched microarray rows.
  relational::DenseMapping row_map;  ///< Patient id -> x row (Q1..Q4).
  relational::DenseMapping col_map;  ///< Gene id -> x column / Q5 score.
};

/// \brief The relational half of the column-store data-management step:
/// filter, hash join, dense row/col mappings and the side inputs, timed
/// into Phase::kDataManagement.
genbase::Result<AccessPaths> BuildAccessPaths(const ColumnarTables& tables,
                                              const AccessPathKey& key,
                                              ExecContext* ctx);

/// \brief The per-run half: allocates the zeroed dense matrix and scatters
/// the joined microarray triples into it (Q1..Q4), or aggregates Q5's
/// per-gene mean scores, through `paths`. With `q1_design`, Q1's matrix is
/// the transposed regression design [1 | X]^T ((genes + 1) x patients,
/// intercept row first), ready for the core RunStandardAnalytics form;
/// otherwise it holds X alone, the QueryInputs layout. Timed into
/// Phase::kDataManagement.
genbase::Status MaterializeInputs(const ColumnarTables& tables,
                                  core::QueryId query,
                                  const AccessPaths& paths, bool q1_design,
                                  ExecContext* ctx, linalg::Matrix* x,
                                  std::vector<double>* scores);

/// \brief The full vectorized data-management pipeline for one query
/// (filter -> hash join -> gather -> restructure): BuildAccessPaths then
/// MaterializeInputs. Used by the R, column-store and cluster engines; the
/// row store and array engines implement their own pipelines.
genbase::Result<QueryInputs> PrepareInputsColumnar(
    const ColumnarTables& tables, core::QueryId query,
    const core::QueryParams& params, ExecContext* ctx);

}  // namespace genbase::engine

#endif  // GENBASE_ENGINE_ENGINE_UTIL_H_
