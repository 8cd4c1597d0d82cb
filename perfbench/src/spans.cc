#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_serial{1};

// The buffer this thread last registered, tagged with the recorder's serial
// so a later recorder (possibly at the same address) registers afresh.
struct ThreadSlot {
  uint64_t serial = 0;
  std::vector<SpanRecord>* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled),
      serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)),
      anchor_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       anchor_)
      .count();
}

int64_t SpanRecorder::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

SpanRecorder::Buffer* SpanRecorder::ThreadBuffer() {
  if (t_slot.serial != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->reserve(4096);
    t_slot = {serial_, buffers_.back().get()};
  }
  return t_slot.buffer;
}

void SpanRecorder::Record(const SpanRecord& span) {
  if (enabled_) ThreadBuffer()->push_back(span);
}

std::vector<SpanRecord> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

Span::Span(SpanRecorder* recorder, const char* name, int64_t parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr || !recorder_->enabled()) {
    recorder_ = nullptr;
    return;
  }
  record_.name = name;
  record_.parent = parent;
  record_.id = recorder_->NextId();
  record_.start_s = recorder_->Now();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  record_.end_s = recorder_->Now();
  recorder_->Record(record_);
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& parts = it->second;
      std::sort(parts.begin(), parts.end());
      double run_start = 0.0, run_end = 0.0;
      bool open = false;
      for (const auto& [a0, b0] : parts) {
        const double a = std::max(a0, s.start_s);
        const double b = std::min(b0, s.end_s);
        if (b <= a) continue;
        if (open && a <= run_end) {
          run_end = std::max(run_end, b);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    self[s.name] += (s.end_s - s.start_s) - covered;
  }
  return self;
}

std::map<std::string, double> TotalSecondsByName(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> total;
  for (const auto& s : spans) total[s.name] += s.end_s - s.start_s;
  return total;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "id\tparent\tname\tstart_s\tend_s\n") > 0;
  for (const auto& s : spans) {
    ok = ok && std::fprintf(f, "%lld\t%lld\t%s\t%.9f\t%.9f\n",
                            static_cast<long long>(s.id),
                            static_cast<long long>(s.parent), s.name,
                            s.start_s, s.end_s) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
