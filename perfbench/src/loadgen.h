// Load generation owned by the benchmark: seeded query and parameter-variant
// schedules, Poisson arrival times, and the closed- and open-loop drivers.
// Every schedule is a pure function of (seed, op index), so one seed always
// offers the same requests in the same order.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/queries.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct MixEntry {
  genbase::core::QueryId query;
  int weight;
};

struct Op {
  enum class Kind { kQuery, kReload };
  Kind kind = Kind::kQuery;
  genbase::core::QueryId query = genbase::core::QueryId::kRegression;
  int variant = 0;
};

/// Q1, Q2, ..., Q5, Q1, ... with the base parameters, starting at query
/// seed mod 5.
Op RoundRobinOp(uint64_t seed, int64_t index);

/// Op `index` of a stratified mix: each block of sum(weight) consecutive ops
/// holds every query exactly `weight` times, in an order shuffled by the
/// seed, so every window of whole blocks has the mix's exact shares. Each
/// query cycles through variants [0, variants) from a seeded offset.
Op MixOp(uint64_t seed, int64_t index, const std::vector<MixEntry>& mix,
         int variants);

/// Send offsets (seconds from the start) of `count` Poisson arrivals at
/// `rate` per second.
std::vector<double> PoissonArrivals(uint64_t seed, double rate, int64_t count);

/// Parameters of variant `v`. Variant 0 is the paper's defaults. The data
/// management fields (gene function cut, age cut) take one of two values,
/// so many variants share their selections; the analytic fields
/// (covariance quantile, SVD rank, bicluster delta, significance) differ per
/// variant, so every variant is its own cache key and its own answer.
genbase::core::QueryParams VariantParams(int v);

/// Closed loop: `clients` threads each claim the next op index and call
/// fn(client, index), until `seconds` have passed since the start. Returns
/// the wall seconds from the start until the last op completed.
double RunClosedLoop(int clients, double seconds,
                     const std::function<void(int, int64_t)>& fn);

/// Open loop: `threads` senders claim op indices in order and call
/// fn(thread, index, due) no earlier than `due` = start + send_s[index].
/// A sender that claims an op late calls it at once; the caller measures
/// latency from `due`. Ops for which is_writer(index) holds are issued in
/// order by the calling thread instead (thread id -1), so the write client
/// never takes a sender away from the reads. Returns the wall seconds from
/// the start until the last op completed.
double RunOpenLoop(
    int threads, const std::vector<double>& send_s,
    const std::function<bool(int64_t)>& is_writer,
    const std::function<void(int, int64_t, Clock::time_point)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
