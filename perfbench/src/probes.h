// Layer probes for the traced run: each analytics kernel of the five
// queries, run alone on that query's input built from the workload's
// dataset, single-threaded (t1) and on the shared default pool (t4).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "common/status.h"
#include "core/datasets.h"
#include "metrics.h"
#include "spans.h"

namespace perfbench {

/// Appends linalg.*, bicluster.s and stats.s to `out`; each time is the
/// median of `reps` runs.
genbase::Status RunLayerProbes(const genbase::core::GenBaseData& data,
                               int reps, SpanRecorder* spans, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
