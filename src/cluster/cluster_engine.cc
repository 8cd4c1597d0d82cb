#include "cluster/cluster_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/config.h"
#include "core/reference.h"
#include "relational/col_ops.h"

namespace genbase::cluster {

namespace {

using core::GeneCols;
using core::MicroarrayCols;
using core::PatientCols;
using core::QueryId;
using core::SimConfig;

NetworkModel ConfigNetwork() {
  const auto& c = SimConfig::Get();
  return {c.net_bandwidth_bytes_per_s, c.net_latency_s};
}

/// Copies a row range of a columnar table (the per-node partition).
genbase::Status SliceTable(const storage::ColumnTable& src, int64_t begin,
                           int64_t end, MemoryTracker* tracker,
                           storage::ColumnTable* dst) {
  *dst = storage::ColumnTable(src.schema(), tracker);
  GENBASE_RETURN_NOT_OK(dst->Reserve(end - begin));
  for (int c = 0; c < src.schema().num_fields(); ++c) {
    if (src.schema().field(c).type == storage::DataType::kInt64) {
      const auto& col = src.IntColumn(c);
      dst->MutableIntColumn(c).assign(col.begin() + begin,
                                      col.begin() + end);
    } else {
      const auto& col = src.DoubleColumn(c);
      dst->MutableDoubleColumn(c).assign(col.begin() + begin,
                                         col.begin() + end);
    }
  }
  return dst->FinishBulkLoad();
}

}  // namespace

ClusterEngineOptions SciDbMnOptions(int nodes) {
  ClusterEngineOptions o;
  o.name = "SciDB";
  o.nodes = nodes;
  o.array_native = true;
  return o;
}

ClusterEngineOptions PbdrOptions(int nodes) {
  ClusterEngineOptions o;
  o.name = "pbdR";
  o.nodes = nodes;
  return o;
}

ClusterEngineOptions ColumnStorePbdrOptions(int nodes) {
  ClusterEngineOptions o;
  o.name = "Column store + pbdR";
  o.nodes = nodes;
  o.csv_glue = true;
  return o;
}

ClusterEngineOptions ColumnStoreUdfMnOptions(int nodes) {
  ClusterEngineOptions o;
  o.name = "Column store + UDFs";
  o.nodes = nodes;
  o.udf_glue = true;
  return o;
}

ClusterEngineOptions HadoopMnOptions(int nodes) {
  ClusterEngineOptions o;
  o.name = "Hadoop";
  o.nodes = nodes;
  o.mapreduce = true;
  o.quality = linalg::KernelQuality::kNaive;
  return o;
}

ClusterEngine::ClusterEngine(ClusterEngineOptions options)
    : options_(std::move(options)),
      tracker_(MemoryTracker::kUnlimited, options_.name + "-mn") {
  GENBASE_CHECK(options_.nodes >= 1);
}

genbase::Status ClusterEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  dims_ = data.dims;
  const std::vector<RowRange> ranges =
      PartitionRows(dims_.patients, options_.nodes);
  for (int node = 0; node < options_.nodes; ++node) {
    auto nd = std::make_unique<NodeData>();
    nd->patients = ranges[static_cast<size_t>(node)];
    nd->tables.dims = dims_;
    // Patient rows of this node (the generator emits patients in id order).
    GENBASE_RETURN_NOT_OK(SliceTable(data.patients, nd->patients.begin,
                                     nd->patients.end, &tracker_,
                                     &nd->tables.patients));
    // Metadata replicated on every node (small).
    GENBASE_RETURN_NOT_OK(SliceTable(data.genes, 0, data.genes.num_rows(),
                                     &tracker_, &nd->tables.genes));
    GENBASE_RETURN_NOT_OK(SliceTable(data.ontology, 0,
                                     data.ontology.num_rows(), &tracker_,
                                     &nd->tables.ontology));
    // Microarray rows: patient-major triples, contiguous per range.
    const int64_t row_begin = nd->patients.begin * dims_.genes;
    const int64_t row_end = nd->patients.end * dims_.genes;
    if (options_.array_native) {
      GENBASE_ASSIGN_OR_RETURN(
          nd->expression,
          storage::ChunkedArray2D::Create(nd->patients.size(), dims_.genes,
                                          &tracker_));
      const auto& pid = data.microarray.IntColumn(MicroarrayCols::kPatientId);
      const auto& gid = data.microarray.IntColumn(MicroarrayCols::kGeneId);
      const auto& expr = data.microarray.DoubleColumn(MicroarrayCols::kExpr);
      for (int64_t i = row_begin; i < row_end; ++i) {
        nd->expression.Set(pid[static_cast<size_t>(i)] - nd->patients.begin,
                           gid[static_cast<size_t>(i)],
                           expr[static_cast<size_t>(i)]);
      }
    } else {
      GENBASE_RETURN_NOT_OK(SliceTable(data.microarray, row_begin, row_end,
                                       &tracker_, &nd->tables.microarray));
    }
    node_data_.push_back(std::move(nd));
  }
  loaded_ = true;
  return genbase::Status::OK();
}

void ClusterEngine::DoUnloadDataset() {
  node_data_.clear();
  tracker_.Reset();
  loaded_ = false;
}

void ClusterEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  // Per-node execution is single threaded (SimConfig node_threads); the
  // parallelism across nodes lives in the virtual-time cluster.
  ctx->set_pool(nullptr);
}

genbase::Result<std::vector<linalg::Matrix>> ClusterEngine::LocalBlocks(
    QueryId query, const core::QueryParams& params, SimCluster* sim,
    std::vector<std::vector<double>>* y_blocks,
    std::vector<int64_t>* col_ids, ExecContext* ctx) {
  const auto& config = SimConfig::Get();
  if (options_.mapreduce) {
    // Job startups: dimension filter job + fact join job, then the shuffle
    // of matched triples between map and reduce waves.
    sim->ChargeAll(2.0 * config.mr_job_startup_s);
  }
  std::vector<linalg::Matrix> blocks(
      static_cast<size_t>(options_.nodes));
  if (y_blocks != nullptr) {
    y_blocks->assign(static_cast<size_t>(options_.nodes), {});
  }
  genbase::Status worker = genbase::Status::OK();
  GENBASE_RETURN_NOT_OK(sim->Compute([&](int node) -> genbase::Status {
    NodeData& nd = *node_data_[static_cast<size_t>(node)];
    if (options_.array_native) {
      // SciDB: dimension-aligned selections + chunked submatrix gather.
      using relational::ColumnPredicate;
      using storage::Value;
      std::vector<int64_t> local_rows;
      std::vector<int64_t> cols;
      if (query == QueryId::kRegression || query == QueryId::kSvd) {
        GENBASE_ASSIGN_OR_RETURN(
            std::vector<int64_t> gene_sel,
            relational::FilterColumns(
                nd.tables.genes,
                {ColumnPredicate::Lt(GeneCols::kFunction,
                                     Value::Int(params.function_threshold))},
                ctx));
        const auto& gids = nd.tables.genes.IntColumn(GeneCols::kGeneId);
        for (int64_t i : gene_sel) cols.push_back(gids[i]);
        std::sort(cols.begin(), cols.end());
        local_rows.resize(static_cast<size_t>(nd.patients.size()));
        for (int64_t i = 0; i < nd.patients.size(); ++i) local_rows[i] = i;
        if (y_blocks != nullptr) {
          (*y_blocks)[static_cast<size_t>(node)] =
              nd.tables.patients.DoubleColumn(PatientCols::kDrugResponse);
        }
      } else {
        std::vector<ColumnPredicate> preds;
        if (query == QueryId::kCovariance) {
          preds = {ColumnPredicate::Eq(PatientCols::kDiseaseId,
                                       Value::Int(params.disease_id))};
        } else {
          preds = {ColumnPredicate::Eq(PatientCols::kGender,
                                       Value::Int(params.gender)),
                   ColumnPredicate::Lt(PatientCols::kAge,
                                       Value::Int(params.max_age))};
        }
        GENBASE_ASSIGN_OR_RETURN(
            std::vector<int64_t> patient_sel,
            relational::FilterColumns(nd.tables.patients, preds, ctx));
        local_rows = patient_sel;  // Positions == local array rows.
        cols.resize(static_cast<size_t>(dims_.genes));
        for (int64_t g = 0; g < dims_.genes; ++g) cols[g] = g;
      }
      GENBASE_ASSIGN_OR_RETURN(
          blocks[static_cast<size_t>(node)],
          nd.expression.GatherSubmatrix(local_rows, cols, ctx->memory()));
      if (node == 0 && col_ids != nullptr) *col_ids = cols;
      return genbase::Status::OK();
    }
    // Relational local pipeline (pbdR / column store / Hadoop local wave).
    GENBASE_ASSIGN_OR_RETURN(
        engine::QueryInputs in,
        engine::PrepareInputsColumnar(nd.tables, query, params, ctx));
    blocks[static_cast<size_t>(node)] = std::move(in.x);
    if (y_blocks != nullptr) {
      (*y_blocks)[static_cast<size_t>(node)] = std::move(in.y);
    }
    if (node == 0 && col_ids != nullptr) *col_ids = std::move(in.col_ids);
    return genbase::Status::OK();
  }));
  GENBASE_RETURN_NOT_OK(worker);
  if (options_.mapreduce) {
    int64_t total_bytes = 0;
    for (const auto& b : blocks) total_bytes += b.bytes() * 3;  // Triples.
    sim->AllToAll(total_bytes /
                  (static_cast<int64_t>(options_.nodes) * options_.nodes));
    sim->ChargeAll(config.mr_job_startup_s);  // Restructure job.
  }
  return blocks;
}

genbase::Status ClusterEngine::ApplyGlue(std::vector<linalg::Matrix>* blocks,
                                         SimCluster* sim, ExecContext* ctx) {
  const auto& config = SimConfig::Get();
  if (options_.csv_glue) {
    return sim->Compute([&](int node) -> genbase::Status {
      linalg::Matrix& b = (*blocks)[static_cast<size_t>(node)];
      if (b.size() == 0) return genbase::Status::OK();
      GENBASE_ASSIGN_OR_RETURN(
          b, engine::CsvRoundTripMatrix(linalg::MatrixView(b), ctx));
      return genbase::Status::OK();
    });
  }
  if (options_.udf_glue) {
    for (int node = 0; node < options_.nodes; ++node) {
      const linalg::Matrix& b = (*blocks)[static_cast<size_t>(node)];
      const int64_t chunks = std::max<int64_t>(1, b.rows() / 512 + 1);
      sim->ChargeCompute(node,
                         static_cast<double>(chunks) *
                             config.udf_invocation_overhead_s);
    }
  }
  return genbase::Status::OK();
}

genbase::Result<core::QueryResult> ClusterEngine::RunQuery(
    QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (!loaded_) return genbase::Status::Internal("not loaded");
  if (!SupportsQuery(query)) {
    return genbase::Status::NotSupported(options_.name +
                                         " lacks this analytics function");
  }
  const auto& config = SimConfig::Get();
  SimCluster sim(options_.nodes, ConfigNetwork());
  core::QueryResult out;
  out.query = query;

  // ---------- data management (+ glue) ----------------------------------------
  double phase_start = sim.elapsed();
  std::vector<std::vector<double>> y_blocks;
  std::vector<int64_t> col_ids;
  std::vector<linalg::Matrix> blocks;
  if (query != QueryId::kStatistics) {
    GENBASE_ASSIGN_OR_RETURN(
        blocks, LocalBlocks(query, params, &sim,
                            query == QueryId::kRegression ? &y_blocks
                                                          : nullptr,
                            &col_ids, ctx));
  }
  ctx->clock().AddVirtual(Phase::kDataManagement,
                          sim.elapsed() - phase_start);

  phase_start = sim.elapsed();
  if (query != QueryId::kStatistics) {
    GENBASE_RETURN_NOT_OK(ApplyGlue(&blocks, &sim, ctx));
  }
  ctx->clock().AddVirtual(Phase::kGlue, sim.elapsed() - phase_start);

  // ---------- analytics ---------------------------------------------------------
  phase_start = sim.elapsed();
  const double comm_start = sim.comm_elapsed();
  int64_t max_block_bytes = 0;
  for (const auto& b : blocks) {
    max_block_bytes = std::max(max_block_bytes, b.bytes());
  }

  switch (query) {
    case QueryId::kRegression: {
      if (options_.mapreduce) sim.ChargeAll(config.mr_job_startup_s);
      // Add the intercept column per node (the model.matrix step).
      std::vector<linalg::Matrix> designs(blocks.size());
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        const linalg::Matrix& b = blocks[static_cast<size_t>(node)];
        GENBASE_ASSIGN_OR_RETURN(
            linalg::Matrix d,
            linalg::Matrix::Create(b.rows(), b.cols() + 1, ctx->memory()));
        for (int64_t i = 0; i < b.rows(); ++i) {
          d(i, 0) = 1.0;
          std::copy(b.Row(i), b.Row(i) + b.cols(), d.Row(i) + 1);
        }
        designs[static_cast<size_t>(node)] = std::move(d);
        return genbase::Status::OK();
      }));
      int64_t rows = 0;
      for (const auto& b : blocks) rows += b.rows();
      GENBASE_ASSIGN_OR_RETURN(
          linalg::LeastSquaresFit fit,
          DistributedLeastSquares(&sim, std::move(designs), y_blocks, ctx));
      out.regression.rows = rows;
      out.regression.predictors = static_cast<int64_t>(col_ids.size());
      out.regression.r_squared = fit.r_squared;
      double l2 = 0;
      for (double c : fit.coefficients) l2 += c * c;
      out.regression.coef_l2 = std::sqrt(l2);
      const size_t head = std::min<size_t>(8, fit.coefficients.size());
      out.regression.coef_head.assign(fit.coefficients.begin(),
                                      fit.coefficients.begin() + head);
      break;
    }
    case QueryId::kCovariance: {
      if (options_.mapreduce) sim.ChargeAll(config.mr_job_startup_s);
      int64_t samples = 0;
      for (const auto& b : blocks) samples += b.rows();
      GENBASE_ASSIGN_OR_RETURN(
          linalg::Matrix cov,
          DistributedCovariance(&sim, blocks, options_.quality, ctx));
      genbase::Status root_status = genbase::Status::OK();
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        if (node != 0) return genbase::Status::OK();
        auto meta = engine::MakeColumnarMetaLookup(
            node_data_[0]->tables.genes);
        auto summary = core::CovarianceThresholdJoin(
            cov, samples, col_ids, meta, params.covariance_quantile, ctx);
        if (!summary.ok()) {
          root_status = summary.status();
          return genbase::Status::OK();
        }
        out.covariance = std::move(summary).ValueOrDie();
        return genbase::Status::OK();
      }));
      GENBASE_RETURN_NOT_OK(root_status);
      break;
    }
    case QueryId::kBiclustering: {
      // The paper's systems did not distribute biclustering: partitions are
      // gathered to the root, which runs the (custom-code) algorithm.
      sim.Gather(0, max_block_bytes);
      int64_t rows = 0;
      for (const auto& b : blocks) rows += b.rows();
      const int64_t cols = blocks[0].cols();
      genbase::Status root_status = genbase::Status::OK();
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        if (node != 0) return genbase::Status::OK();
        GENBASE_ASSIGN_OR_RETURN(
            linalg::Matrix full,
            linalg::Matrix::Create(rows, cols, ctx->memory()));
        int64_t at = 0;
        for (const auto& b : blocks) {
          for (int64_t i = 0; i < b.rows(); ++i) {
            std::copy(b.Row(i), b.Row(i) + cols, full.Row(at + i));
          }
          at += b.rows();
        }
        std::function<genbase::Status()> hook;
        if (options_.udf_glue) {
          hook = [&sim, &config]() {
            sim.ChargeCompute(0, config.udf_invocation_overhead_s);
            return genbase::Status::OK();
          };
        }
        auto summary = core::BiclusterAnalytics(
            linalg::MatrixView(full), params.bicluster_delta_fraction,
            params.bicluster_count, ctx, std::move(hook));
        if (!summary.ok()) {
          root_status = summary.status();
          return genbase::Status::OK();
        }
        out.bicluster = std::move(summary).ValueOrDie();
        return genbase::Status::OK();
      }));
      GENBASE_RETURN_NOT_OK(root_status);
      break;
    }
    case QueryId::kSvd: {
      const int rank = static_cast<int>(
          std::min<int64_t>(params.svd_rank, blocks[0].cols()));
      GENBASE_ASSIGN_OR_RETURN(
          DistributedSvdResult svd,
          DistributedTruncatedSvd(&sim, blocks, rank, options_.quality,
                                  /*seed=*/42, ctx));
      if (options_.mapreduce) {
        // Mahout's DistributedLanczosSolver: one MapReduce job/iteration.
        sim.ChargeAll(static_cast<double>(svd.iterations) *
                      config.mr_job_startup_s);
      }
      int64_t rows = 0;
      for (const auto& b : blocks) rows += b.rows();
      out.svd.rows = rows;
      out.svd.cols = blocks[0].cols();
      out.svd.rank = rank;
      out.svd.iterations = svd.iterations;
      out.svd.converged = svd.converged;
      out.svd.singular_values = std::move(svd.singular_values);
      break;
    }
    case QueryId::kStatistics: {
      const int64_t k =
          core::SampleCount(dims_.patients, params.sample_fraction);
      std::vector<double> sums(static_cast<size_t>(dims_.genes), 0.0);
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        const NodeData& nd = *node_data_[static_cast<size_t>(node)];
        const int64_t lo = nd.patients.begin;
        const int64_t hi = std::min(nd.patients.end, k);
        if (options_.array_native) {
          for (int64_t p = lo; p < hi; ++p) {
            for (int64_t g = 0; g < dims_.genes; ++g) {
              sums[static_cast<size_t>(g)] +=
                  nd.expression.Get(p - lo, g);
            }
          }
        } else if (hi > lo) {
          const auto& pid =
              nd.tables.microarray.IntColumn(MicroarrayCols::kPatientId);
          const auto& gid =
              nd.tables.microarray.IntColumn(MicroarrayCols::kGeneId);
          const auto& expr =
              nd.tables.microarray.DoubleColumn(MicroarrayCols::kExpr);
          for (size_t i = 0; i < pid.size(); ++i) {
            if (pid[i] < k) {
              sums[static_cast<size_t>(gid[i])] += expr[i];
            }
          }
        }
        return genbase::Status::OK();
      }));
      sim.AllReduce(dims_.genes * 8);
      genbase::Status root_status = genbase::Status::OK();
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        if (node != 0) return genbase::Status::OK();
        std::vector<double> scores = sums;
        const double inv = 1.0 / static_cast<double>(std::min(k,
                                                     dims_.patients));
        for (auto& s : scores) s *= inv;
        const auto memberships = engine::BuildMembershipsColumnar(
            node_data_[0]->tables.ontology, dims_.go_terms);
        auto summary = core::StatsAnalytics(scores, memberships,
                                            params.significance, ctx);
        if (!summary.ok()) {
          root_status = summary.status();
          return genbase::Status::OK();
        }
        out.stats = std::move(summary).ValueOrDie();
        out.stats.samples = std::min(k, dims_.patients);
        return genbase::Status::OK();
      }));
      GENBASE_RETURN_NOT_OK(root_status);
      break;
    }
  }

  double analytics_elapsed = sim.elapsed() - phase_start;
  if (options_.phi_offload) {
    // Device model: communication stays on the host network; per-node
    // compute is accelerated; partitions cross PCIe first.
    const double comm = sim.comm_elapsed() - comm_start;
    const double compute = std::max(0.0, analytics_elapsed - comm);
    double speedup = 1.0;
    switch (query) {
      case QueryId::kCovariance:
      case QueryId::kSvd:
      case QueryId::kRegression:
        speedup = config.phi_gemm_speedup;
        break;
      case QueryId::kStatistics:
        speedup = config.phi_bandwidth_speedup;
        break;
      case QueryId::kBiclustering:
        speedup = 1.15;  // Latency-bound: "cannot be expected to show
                         // significant speedup on any accelerator".
        break;
    }
    const double transfer =
        static_cast<double>(max_block_bytes) /
            config.phi_transfer_bytes_per_s +
        config.phi_launch_latency_s;
    analytics_elapsed = comm + compute / speedup + transfer;
  }
  ctx->clock().AddVirtual(Phase::kAnalytics, analytics_elapsed);
  return out;
}

std::vector<std::unique_ptr<core::Engine>> CreateMultiNodeEngines(
    int nodes) {
  std::vector<std::unique_ptr<core::Engine>> engines;
  engines.push_back(
      std::make_unique<ClusterEngine>(ColumnStorePbdrOptions(nodes)));
  engines.push_back(
      std::make_unique<ClusterEngine>(ColumnStoreUdfMnOptions(nodes)));
  engines.push_back(std::make_unique<ClusterEngine>(HadoopMnOptions(nodes)));
  engines.push_back(std::make_unique<ClusterEngine>(PbdrOptions(nodes)));
  engines.push_back(std::make_unique<ClusterEngine>(SciDbMnOptions(nodes)));
  return engines;
}

}  // namespace genbase::cluster
