// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a GenBase layer (name, start,
// end, parent) and written out once at exit; self time is derived from the
// recorded tree, never measured inside the program.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< Static storage duration.
  int64_t id = 0;
  int64_t parent = 0;     ///< 0 for a root span.
  double start_s = 0.0;   ///< Seconds since the recorder was created.
  double end_s = 0.0;
};

/// Collects spans from any number of threads without a lock per span: each
/// thread appends to its own buffer, registered once under a mutex. A
/// disabled recorder records nothing and hands out id 0.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  double Now() const;
  int64_t NextId();
  void Record(const SpanRecord& span);

  /// Every span recorded so far. Call only after the recording threads
  /// have been joined.
  std::vector<SpanRecord> Collect() const;

 private:
  using Buffer = std::vector<SpanRecord>;
  Buffer* ThreadBuffer();

  const bool enabled_;
  const uint64_t serial_;
  const std::chrono::steady_clock::time_point anchor_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;  ///< Guards buffers_.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span over its own lifetime.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, int64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return record_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecord record_;
};

/// Self seconds per span name: each span's duration minus the part of its
/// interval covered by the union of its children's intervals.
std::map<std::string, double> SelfSecondsByName(
    const std::vector<SpanRecord>& spans);

/// Summed duration per span name.
std::map<std::string, double> TotalSecondsByName(
    const std::vector<SpanRecord>& spans);

/// Writes one tab-separated line per span (id, parent, name, start, end).
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
