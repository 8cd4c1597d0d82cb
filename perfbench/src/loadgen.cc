#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kStreamShuffle = 1;
constexpr uint64_t kStreamArrival = 2;

// A sleeping thread can wake hundreds of microseconds late; sleep to just
// short of the due time, then spin the rest.
constexpr auto kSpinWindow = std::chrono::microseconds(500);

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Uniform double in [0, 1) drawn from (seed, stream, index) alone.
double Uniform01(uint64_t seed, uint64_t stream, uint64_t index) {
  const uint64_t bits = Mix64(Mix64(Mix64(seed) ^ stream) ^ index);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

Op RoundRobinOp(uint64_t seed, int64_t index) {
  Op op;
  op.query =
      genbase::core::kAllQueries[(seed + static_cast<uint64_t>(index)) % 5];
  return op;
}

Op MixOp(uint64_t seed, int64_t index, const std::vector<MixEntry>& mix,
         int variants) {
  // Block b lists every query as often as its weight, in an order shuffled
  // by (seed, b); op `index` takes slot index % block of block b.
  std::vector<genbase::core::QueryId> block;
  for (const auto& e : mix) block.insert(block.end(), e.weight, e.query);
  const int64_t size = static_cast<int64_t>(block.size());
  const int64_t b = index / size;
  for (int64_t i = size - 1; i > 0; --i) {
    const int64_t j = static_cast<int64_t>(
        Uniform01(seed, kStreamShuffle, static_cast<uint64_t>(b * size + i)) *
        static_cast<double>(i + 1));
    std::swap(block[static_cast<size_t>(i)],
              block[static_cast<size_t>(std::min(j, i))]);
  }
  const int64_t slot = index % size;
  Op op;
  op.query = block[static_cast<size_t>(slot)];
  // The k-th occurrence of a query across blocks takes variant k (mod
  // variants), offset by the seed, so variants recur evenly too.
  int64_t weight = 0, before = 0;
  for (const auto& e : mix) {
    if (e.query == op.query) weight = e.weight;
  }
  for (int64_t i = 0; i < slot; ++i) {
    before += block[static_cast<size_t>(i)] == op.query;
  }
  op.variant = static_cast<int>(
      (static_cast<uint64_t>(b * weight + before) + seed) %
      static_cast<uint64_t>(variants));
  return op;
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate, int64_t count) {
  std::vector<double> send(static_cast<size_t>(count));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    t += -std::log1p(-Uniform01(seed, kStreamArrival, i)) / rate;
    send[static_cast<size_t>(i)] = t;
  }
  return send;
}

genbase::core::QueryParams VariantParams(int v) {
  genbase::core::QueryParams p;
  if (v == 0) return p;
  p.function_threshold -= 8 * (v % 2);
  p.max_age += 3 * (v % 2);
  p.covariance_quantile -= 0.01 * (v % 4);
  p.svd_rank -= v % 3;
  p.bicluster_delta_fraction += 0.01 * (v % 5);
  // Keeps every variant's parameters bit-distinct; far below any p-value
  // granularity the Wilcoxon test produces.
  p.significance *= 1.0 + 1e-9 * v;
  return p;
}

double RunClosedLoop(int clients, double seconds,
                     const std::function<void(int, int64_t)>& fn) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<int64_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < end) {
        fn(c, next.fetch_add(1, std::memory_order_relaxed));
      }
    });
  }
  for (auto& t : threads) t.join();
  return SecondsSince(start);
}

double RunOpenLoop(
    int threads, const std::vector<double>& send_s,
    const std::function<bool(int64_t)>& is_writer,
    const std::function<void(int, int64_t, Clock::time_point)>& fn) {
  const Clock::time_point start = Clock::now();
  const int64_t count = static_cast<int64_t>(send_s.size());
  const auto issue = [&](int thread, int64_t i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        send_s[static_cast<size_t>(i)]));
    if (Clock::now() < due - kSpinWindow) {
      std::this_thread::sleep_until(due - kSpinWindow);
    }
    while (Clock::now() < due) {
    }
    fn(thread, i, due);
  };
  std::atomic<int64_t> next{0};
  std::vector<std::thread> senders;
  senders.reserve(static_cast<size_t>(threads));
  for (int s = 0; s < threads; ++s) {
    senders.emplace_back([&, s] {
      for (;;) {
        const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        if (!is_writer(i)) issue(s, i);
      }
    });
  }
  for (int64_t i = 0; i < count; ++i) {
    if (is_writer(i)) issue(-1, i);
  }
  for (auto& t : senders) t.join();
  return SecondsSince(start);
}

}  // namespace perfbench
