// Run results: named metrics with unit and sample count, the correctness
// tally, and the printer for the human table and the final JSON line.

#ifndef VINOLITE_PERFBENCH_SRC_REPORT_H_
#define VINOLITE_PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/stats.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;  // E.g. which percentile a tail value really is.
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples, std::string note = "") {
    metrics_[name] = Metric{value, unit, samples, std::move(note)};
  }

  // `<prefix>.p50`, `<prefix>.p99` and `<prefix>.tail` (the highest
  // supported percentile) from a summary whose values are in ns, converted
  // by `scale` (1 for ns, 1e-3 for us).
  void Timing(const std::string& prefix, const Summary& s,
              const std::string& unit, double scale) {
    Set(prefix + ".p50", s.p50 * scale, unit, s.n);
    Set(prefix + ".p99", s.p99 * scale, unit, s.n, TailNote(s));
    Tail(prefix + ".tail", s, unit, scale);
  }

  // The highest percentile of `s` with at least ten samples beyond it.
  void Tail(const std::string& name, const Summary& s, const std::string& unit,
            double scale) {
    char note[32];
    std::snprintf(note, sizeof(note), "p%g", s.tail_q * 100.0);
    Set(name, s.tail * scale, unit, s.n, s.n == 0 ? "no samples" : note);
  }

  static std::string TailNote(const Summary& s) {
    if (s.n == 0) return "no samples";
    if (s.p99_q >= 0.99) return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "p%g (n too small for p99)",
                  s.p99_q * 100.0);
    return buf;
  }

  // One correctness check on one operation; a false `ok` counts a failure
  // and keeps the first few messages for the log.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  // `n` failed operations of which only the first message is kept.
  void AddFailures(uint64_t n, const std::string& first) {
    if (n == 0) return;
    failed_ += n;
    if (failures_.size() < 20) failures_.push_back(first);
  }
  // Survival invariant: a violation is always printed and fails the run; a
  // kept one is printed when `verbose`.
  void Invariant(bool ok, const std::string& what, bool verbose = true) {
    if (verbose || !ok) std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failed_;
  }

  void AddAttempted(uint64_t n) { attempted_ += n; }
  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  void PrintTable(const char* title) const {
    std::printf("\n%s\n", title);
    std::printf("  %-52s %14s %-6s %10s\n", "metric", "value", "unit", "samples");
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-52s %14.4f %-6s %10llu %s\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                  m.note.c_str());
    }
    for (const std::string& f : failures_) {
      std::printf("  check failed: %s\n", f.c_str());
    }
  }

  // The last stdout line: every metric, the tally. perfbench/run.py keeps
  // the metrics BENCHMARK.json lists for the run's mode.
  void PrintJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %llu}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_REPORT_H_
