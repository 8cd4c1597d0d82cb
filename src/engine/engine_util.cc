#include "engine/engine_util.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/csv.h"
#include "core/config.h"
#include "core/reference.h"
#include "relational/col_ops.h"
#include "relational/restructure.h"

namespace genbase::engine {

genbase::Result<core::QueryResult> RunStandardAnalytics(
    core::QueryId query, const SideInputs& side, linalg::Matrix x,
    const std::vector<double>& scores, const core::QueryParams& params,
    linalg::KernelQuality quality, ExecContext* ctx,
    std::function<genbase::Status()> bicluster_pass_hook) {
  core::QueryResult out;
  out.query = query;
  ScopedPhase an(ctx, Phase::kAnalytics);
  switch (query) {
    case core::QueryId::kRegression: {
      GENBASE_ASSIGN_OR_RETURN(
          out.regression,
          core::RegressionAnalytics(std::move(x), side.y, ctx));
      return out;
    }
    case core::QueryId::kCovariance: {
      GENBASE_ASSIGN_OR_RETURN(
          out.covariance,
          core::CovarianceAnalytics(linalg::MatrixView(x), side.col_ids,
                                    side.meta,
                                    params.covariance_quantile, quality,
                                    ctx));
      return out;
    }
    case core::QueryId::kBiclustering: {
      GENBASE_ASSIGN_OR_RETURN(
          out.bicluster,
          core::BiclusterAnalytics(linalg::MatrixView(x),
                                   params.bicluster_delta_fraction,
                                   params.bicluster_count, ctx,
                                   std::move(bicluster_pass_hook)));
      return out;
    }
    case core::QueryId::kSvd: {
      GENBASE_ASSIGN_OR_RETURN(
          out.svd, core::SvdAnalytics(linalg::MatrixView(x),
                                      params.svd_rank, quality, ctx));
      return out;
    }
    case core::QueryId::kStatistics: {
      GENBASE_ASSIGN_OR_RETURN(
          out.stats,
          core::StatsAnalytics(scores, side.memberships, params.significance,
                               ctx));
      out.stats.samples = side.sample_count;
      return out;
    }
  }
  return genbase::Status::InvalidArgument("unknown query");
}

genbase::Result<core::QueryResult> RunStandardAnalytics(
    core::QueryId query, QueryInputs inputs, const core::QueryParams& params,
    linalg::KernelQuality quality, ExecContext* ctx,
    std::function<genbase::Status()> bicluster_pass_hook) {
  linalg::Matrix x = std::move(inputs.x);
  if (query != core::QueryId::kRegression) {
    return RunStandardAnalytics(query, inputs, std::move(x), inputs.scores,
                                params, quality, ctx,
                                std::move(bicluster_pass_hook));
  }
  // The model.matrix step: prepend the intercept column to X.
  linalg::Matrix design;
  {
    ScopedPhase an(ctx, Phase::kAnalytics);
    MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
    GENBASE_ASSIGN_OR_RETURN(
        design, linalg::Matrix::Create(x.rows(), x.cols() + 1, tracker));
    for (int64_t i = 0; i < x.rows(); ++i) {
      design(i, 0) = 1.0;
      std::copy(x.Row(i), x.Row(i) + x.cols(), design.Row(i) + 1);
    }
  }
  return RunStandardAnalytics(query, inputs, std::move(design), inputs.scores,
                              params, quality, ctx);
}

genbase::Result<linalg::Matrix> CsvRoundTripMatrix(
    const linalg::MatrixView& m, ExecContext* ctx) {
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  // The CSV text transiently holds the whole result (~20 bytes/cell), which
  // is exactly why the paper calls this glue "costly". Charge it.
  GENBASE_ASSIGN_OR_RETURN(
      auto reservation,
      ScopedReservation::Acquire(tracker, m.rows * m.cols * 20));
  std::string text;
  if (m.stride == m.cols) {
    text = CsvCodec::WriteMatrix(m.data, m.rows, m.cols);
  } else {
    text.reserve(static_cast<size_t>(m.rows * m.cols * 20));
    for (int64_t i = 0; i < m.rows; ++i) {
      text += CsvCodec::WriteMatrix(m.data + i * m.stride, 1, m.cols);
    }
  }
  if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
  int64_t rows = 0, cols = 0;
  std::vector<double> parsed;
  GENBASE_RETURN_NOT_OK(CsvCodec::ParseMatrix(text, &rows, &cols, &parsed));
  if (rows != m.rows || cols != m.cols) {
    return genbase::Status::Internal("CSV round trip changed shape");
  }
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix out,
                           linalg::Matrix::Create(rows, cols, tracker));
  std::copy(parsed.begin(), parsed.end(), out.data());
  return out;
}

genbase::Result<std::vector<double>> CsvRoundTripVector(
    const std::vector<double>& v, ExecContext* ctx) {
  const std::string text = CsvCodec::WriteMatrix(
      v.data(), static_cast<int64_t>(v.size()), 1);
  if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
  int64_t rows = 0, cols = 0;
  std::vector<double> parsed;
  GENBASE_RETURN_NOT_OK(CsvCodec::ParseMatrix(text, &rows, &cols, &parsed));
  if (rows != static_cast<int64_t>(v.size()) || cols != 1) {
    return genbase::Status::Internal("CSV round trip changed shape");
  }
  return parsed;
}

genbase::Result<linalg::Matrix> UdfTransferMatrix(
    const linalg::MatrixView& m, ExecContext* ctx, int64_t chunk_rows) {
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix out,
                           linalg::Matrix::Create(m.rows, m.cols, tracker));
  const auto& config = core::SimConfig::Get();
  for (int64_t r0 = 0; r0 < m.rows; r0 += chunk_rows) {
    if (ctx != nullptr) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
      // One UDF invocation per chunk: interpreter entry + marshalling.
      ctx->clock().AddVirtual(Phase::kGlue,
                              config.udf_invocation_overhead_s);
    }
    const int64_t r1 = std::min(m.rows, r0 + chunk_rows);
    for (int64_t r = r0; r < r1; ++r) {
      std::copy(m.data + r * m.stride, m.data + r * m.stride + m.cols,
                out.Row(r));
    }
  }
  return out;
}

std::vector<std::vector<int64_t>> BuildMembershipsColumnar(
    const storage::ColumnTable& ontology, int64_t num_terms) {
  std::vector<std::vector<int64_t>> memberships(
      static_cast<size_t>(num_terms));
  const auto& gene = ontology.IntColumn(core::GoCols::kGeneId);
  const auto& term = ontology.IntColumn(core::GoCols::kGoId);
  const auto& belongs = ontology.IntColumn(core::GoCols::kBelongs);
  for (size_t i = 0; i < gene.size(); ++i) {
    if (belongs[i] == 0) continue;
    memberships[static_cast<size_t>(term[i])].push_back(gene[i]);
  }
  for (auto& m : memberships) {
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
  }
  return memberships;
}

core::GeneMetaLookup MakeColumnarMetaLookup(
    const storage::ColumnTable& genes) {
  auto index = std::make_shared<std::unordered_map<int64_t, int64_t>>();
  const auto& ids = genes.IntColumn(core::GeneCols::kGeneId);
  index->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    index->emplace(ids[i], static_cast<int64_t>(i));
  }
  const auto* func = &genes.IntColumn(core::GeneCols::kFunction);
  const auto* len = &genes.IntColumn(core::GeneCols::kLength);
  return [index, func, len](int64_t gene_id, int64_t* function,
                            int64_t* length) -> genbase::Status {
    const auto it = index->find(gene_id);
    if (it == index->end()) {
      return genbase::Status::NotFound("gene id " + std::to_string(gene_id));
    }
    *function = (*func)[static_cast<size_t>(it->second)];
    *length = (*len)[static_cast<size_t>(it->second)];
    return genbase::Status::OK();
  };
}

namespace {

genbase::Status CopyColumnTable(const storage::ColumnTable& src,
                                MemoryTracker* tracker,
                                storage::ColumnTable* dst) {
  *dst = storage::ColumnTable(src.schema(), tracker);
  GENBASE_RETURN_NOT_OK(dst->Reserve(src.num_rows()));
  for (int c = 0; c < src.schema().num_fields(); ++c) {
    if (src.schema().field(c).type == storage::DataType::kInt64) {
      dst->MutableIntColumn(c) = src.IntColumn(c);
    } else {
      dst->MutableDoubleColumn(c) = src.DoubleColumn(c);
    }
  }
  return dst->FinishBulkLoad();
}

}  // namespace

genbase::Status LoadColumnarTables(const core::GenBaseData& data,
                                   MemoryTracker* tracker,
                                   ColumnarTables* out) {
  out->dims = data.dims;
  GENBASE_RETURN_NOT_OK(
      CopyColumnTable(data.microarray, tracker, &out->microarray));
  GENBASE_RETURN_NOT_OK(
      CopyColumnTable(data.patients, tracker, &out->patients));
  GENBASE_RETURN_NOT_OK(CopyColumnTable(data.genes, tracker, &out->genes));
  GENBASE_RETURN_NOT_OK(
      CopyColumnTable(data.ontology, tracker, &out->ontology));
  return genbase::Status::OK();
}

namespace {

using core::GeneCols;
using core::MicroarrayCols;
using core::PatientCols;
using core::QueryId;
using relational::ColumnPredicate;
using relational::FilterColumns;
using relational::HashJoinIndicesFiltered;
using relational::MakeDenseMapping;
using storage::Value;

std::vector<int64_t> GatherIds(const std::vector<int64_t>& ids,
                               const std::vector<int64_t>& selection) {
  std::vector<int64_t> out;
  out.reserve(selection.size());
  for (int64_t i : selection) out.push_back(ids[static_cast<size_t>(i)]);
  return out;
}

}  // namespace

AccessPathKey AccessPathKey::Of(core::QueryId query,
                                const core::QueryParams& params) {
  AccessPathKey key;
  key.query = query;
  switch (query) {
    case QueryId::kRegression:
    case QueryId::kSvd:
      key.function_threshold = params.function_threshold;
      break;
    case QueryId::kCovariance:
      key.disease_id = params.disease_id;
      break;
    case QueryId::kBiclustering:
      key.gender = params.gender;
      key.max_age = params.max_age;
      break;
    case QueryId::kStatistics:
      key.sample_fraction = params.sample_fraction;
      break;
  }
  return key;
}

genbase::Result<AccessPaths> BuildAccessPaths(const ColumnarTables& tables,
                                              const AccessPathKey& key,
                                              ExecContext* ctx) {
  AccessPaths p;
  ScopedPhase dm(ctx, Phase::kDataManagement);
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;

  switch (key.query) {
    case QueryId::kRegression:
    case QueryId::kSvd: {
      // Filter genes by function, join with microarray.
      GENBASE_ASSIGN_OR_RETURN(
          std::vector<int64_t> gene_sel,
          FilterColumns(tables.genes,
                        {ColumnPredicate::Lt(
                            GeneCols::kFunction,
                            Value::Int(key.function_threshold))},
                        ctx));
      p.col_ids = GatherIds(tables.genes.IntColumn(GeneCols::kGeneId),
                            gene_sel);
      GENBASE_ASSIGN_OR_RETURN(
          p.join,
          HashJoinIndicesFiltered(tables.genes, GeneCols::kGeneId, gene_sel,
                                  tables.microarray, MicroarrayCols::kGeneId,
                                  ctx, tracker));
      p.row_ids = tables.patients.IntColumn(PatientCols::kPatientId);
      std::sort(p.row_ids.begin(), p.row_ids.end());
      p.row_map = MakeDenseMapping(p.row_ids);
      p.col_map = MakeDenseMapping(p.col_ids);
      p.col_ids = p.col_map.ids;
      if (key.query == QueryId::kRegression) {
        // Project the drug response aligned to the row mapping.
        p.y.assign(static_cast<size_t>(p.row_map.size()), 0.0);
        const auto& pid = tables.patients.IntColumn(PatientCols::kPatientId);
        const auto& resp =
            tables.patients.DoubleColumn(PatientCols::kDrugResponse);
        for (size_t i = 0; i < pid.size(); ++i) {
          const auto it = p.row_map.index.find(pid[i]);
          if (it != p.row_map.index.end()) {
            p.y[static_cast<size_t>(it->second)] = resp[i];
          }
        }
      }
      return p;
    }
    case QueryId::kCovariance:
    case QueryId::kBiclustering: {
      std::vector<ColumnPredicate> preds;
      if (key.query == QueryId::kCovariance) {
        preds = {ColumnPredicate::Eq(PatientCols::kDiseaseId,
                                     Value::Int(key.disease_id))};
      } else {
        preds = {ColumnPredicate::Eq(PatientCols::kGender,
                                     Value::Int(key.gender)),
                 ColumnPredicate::Lt(PatientCols::kAge,
                                     Value::Int(key.max_age))};
      }
      GENBASE_ASSIGN_OR_RETURN(std::vector<int64_t> patient_sel,
                               FilterColumns(tables.patients, preds, ctx));
      p.row_ids = GatherIds(
          tables.patients.IntColumn(PatientCols::kPatientId), patient_sel);
      GENBASE_ASSIGN_OR_RETURN(
          p.join,
          HashJoinIndicesFiltered(tables.patients, PatientCols::kPatientId,
                                  patient_sel, tables.microarray,
                                  MicroarrayCols::kPatientId, ctx, tracker));
      p.col_ids = tables.genes.IntColumn(GeneCols::kGeneId);
      std::sort(p.col_ids.begin(), p.col_ids.end());
      p.row_map = MakeDenseMapping(p.row_ids);
      p.col_map = MakeDenseMapping(p.col_ids);
      p.row_ids = p.row_map.ids;
      if (key.query == QueryId::kCovariance) {
        p.meta = MakeColumnarMetaLookup(tables.genes);
      }
      return p;
    }
    case QueryId::kStatistics: {
      const int64_t k =
          core::SampleCount(tables.dims.patients, key.sample_fraction);
      GENBASE_ASSIGN_OR_RETURN(
          std::vector<int64_t> patient_sel,
          FilterColumns(tables.patients,
                        {ColumnPredicate::Lt(PatientCols::kPatientId,
                                             Value::Int(k))},
                        ctx));
      p.sample_count = static_cast<int64_t>(patient_sel.size());
      GENBASE_ASSIGN_OR_RETURN(
          p.join,
          HashJoinIndicesFiltered(tables.patients, PatientCols::kPatientId,
                                  patient_sel, tables.microarray,
                                  MicroarrayCols::kPatientId, ctx, tracker));
      // The per-gene aggregate target (gene id -> score slot).
      p.col_map = MakeDenseMapping(tables.genes.IntColumn(GeneCols::kGeneId));
      p.memberships =
          BuildMembershipsColumnar(tables.ontology, tables.dims.go_terms);
      return p;
    }
  }
  return genbase::Status::InvalidArgument("unknown query");
}

genbase::Status MaterializeInputs(const ColumnarTables& tables,
                                  core::QueryId query,
                                  const AccessPaths& paths, bool q1_design,
                                  ExecContext* ctx, linalg::Matrix* x,
                                  std::vector<double>* scores) {
  ScopedPhase dm(ctx, Phase::kDataManagement);
  const auto& gid = tables.microarray.IntColumn(MicroarrayCols::kGeneId);
  const auto& expr = tables.microarray.DoubleColumn(MicroarrayCols::kExpr);
  const std::vector<int64_t>& rows = paths.join.right;
  if (query == QueryId::kStatistics) {
    // Mean expression per gene over the sample (vectorized aggregate).
    scores->assign(static_cast<size_t>(paths.col_map.size()), 0.0);
    for (size_t k = 0; k < rows.size(); ++k) {
      if (ctx != nullptr && (k & 262143) == 0) {
        GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
      }
      const size_t row = static_cast<size_t>(rows[k]);
      const auto it = paths.col_map.index.find(gid[row]);
      if (it != paths.col_map.index.end()) {
        (*scores)[static_cast<size_t>(it->second)] += expr[row];
      }
    }
    const double inv = paths.sample_count > 0
                           ? 1.0 / static_cast<double>(paths.sample_count)
                           : 0.0;
    for (auto& s : *scores) s *= inv;
    return genbase::Status::OK();
  }
  // Restructure the matched microarray triples into a dense matrix: the
  // relational -> array conversion every non-array engine pays.
  const int64_t offset = q1_design && query == QueryId::kRegression ? 1 : 0;
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      *x, linalg::Matrix::Create(paths.row_map.size(),
                                 paths.col_map.size() + offset, tracker));
  if (offset == 1) {
    for (int64_t i = 0; i < x->rows(); ++i) (*x)(i, 0) = 1.0;
  }
  const auto& pid = tables.microarray.IntColumn(MicroarrayCols::kPatientId);
  for (size_t k = 0; k < rows.size(); ++k) {
    if (ctx != nullptr && (k & 262143) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const size_t row = static_cast<size_t>(rows[k]);
    const auto rit = paths.row_map.index.find(pid[row]);
    if (rit == paths.row_map.index.end()) continue;
    const auto cit = paths.col_map.index.find(gid[row]);
    if (cit == paths.col_map.index.end()) continue;
    (*x)(rit->second, offset + cit->second) = expr[row];
  }
  return genbase::Status::OK();
}

genbase::Result<QueryInputs> PrepareInputsColumnar(
    const ColumnarTables& tables, core::QueryId query,
    const core::QueryParams& params, ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      AccessPaths paths,
      BuildAccessPaths(tables, AccessPathKey::Of(query, params), ctx));
  QueryInputs in;
  GENBASE_RETURN_NOT_OK(
      MaterializeInputs(tables, query, paths, /*q1_design=*/false, ctx,
                        &in.x, &in.scores));
  static_cast<SideInputs&>(in) = std::move(static_cast<SideInputs&>(paths));
  return in;
}

}  // namespace genbase::engine
