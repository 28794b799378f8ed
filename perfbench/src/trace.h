// The benchmark's own span recorder. Spans are recorded from outside the
// kernel, around each public call into a layer; nothing inside the kernel
// is traced. Each recorder is owned by one thread and kept in memory until
// the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (overlapping children are merged first). The root
// span of an operation therefore keeps the harness's own unattributed time.

#ifndef VINOLITE_PERFBENCH_SRC_TRACE_H_
#define VINOLITE_PERFBENCH_SRC_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // A string literal: compared by content.
  int32_t parent = -1;         // Index in the same recorder, -1 for a root.
  uint64_t op_id = 0;          // The request or cycle this span belongs to.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t reserve = 0) { spans_.reserve(reserve); }

  int32_t Begin(const char* name, int32_t parent, uint64_t op_id) {
    spans_.push_back(Span{name, parent, op_id, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

  // Adds an already-timed span (tests build span trees with it).
  int32_t Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction. A null
// recorder makes it a no-op that reads no clock (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, int32_t parent,
            uint64_t op_id)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, parent, op_id) : -1) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Close() {
    if (recorder_ != nullptr && !closed_) recorder_->End(index_);
    closed_ = true;
  }
  [[nodiscard]] int32_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int32_t index_;
  bool closed_ = false;
};

// Summed duration of every span in `recorder`, in seconds. Used to take
// probe calls out of a traced phase's wall time.
inline double TotalSeconds(const SpanRecorder& recorder) {
  int64_t total = 0;
  for (const Span& s : recorder.spans()) total += s.end_ns - s.start_ns;
  return static_cast<double>(total) / 1e9;
}

// Self time of every span in `spans` (same order), in ns.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

// Durations and self times grouped by span name, over several recorders.
struct SpanTable {
  std::map<std::string, std::vector<double>> duration_ns;
  std::map<std::string, std::vector<double>> self_ns;
  std::map<std::string, bool> is_root;
};

inline SpanTable Tabulate(const std::vector<const SpanRecorder*>& recorders) {
  SpanTable table;
  for (const SpanRecorder* r : recorders) {
    const std::vector<Span>& spans = r->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      table.duration_ns[name].push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns));
      table.self_ns[name].push_back(static_cast<double>(self[i]));
      table.is_root[name] = spans[i].parent < 0;
    }
  }
  return table;
}

// Writes every span as CSV (recorder, index, parent, op, name, start, end).
inline bool WriteSpansCsv(const std::string& path,
                          const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "recorder,index,parent,op_id,name,start_ns,end_ns\n");
  for (size_t r = 0; r < recorders.size(); ++r) {
    const std::vector<Span>& spans = recorders[r]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%lld,%lld\n", r, i, s.parent,
                   static_cast<unsigned long long>(s.op_id), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_TRACE_H_
