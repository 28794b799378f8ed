// The three workloads. Each builds a kernel from seeded inputs, measures
// for the run's time budget, checks every output, and fills a Report.
//
// With trace off, a workload reports its end-to-end metrics. With trace on,
// it measures the same phase twice, first untraced and then with the
// benchmark's span recorder, and reports per-layer metrics, self times and
// the traced-vs-untraced overhead.

#ifndef VINOLITE_PERFBENCH_SRC_WORKLOADS_H_
#define VINOLITE_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/report.h"
#include "src/trace.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;
  std::string spans_path;  // Where the traced run writes its spans.
};

// Times each set-up is repeated; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

// Kernel configuration shared by every workload: the event pool is sized
// within the thread budget, the watchdog keeps its default.
inline vino::VinoKernelConfig BenchKernelConfig() {
  vino::VinoKernelConfig config;
  config.event_pool.workers = 1;
  return config;
}

void RunServeMixed(const RunArgs& args, Report& report);
void RunFileStream(const RunArgs& args, Report& report);
void RunGraftChurn(const RunArgs& args, Report& report);

// Per-layer metrics and self times from the traced phase's spans.
// `span_metrics` maps a span name to the metric prefix its duration is
// reported under (with the given unit and ns->unit scale).
struct SpanMetric {
  const char* span;
  std::string metric;
  const char* unit;
  double scale;
};
void ReportSpans(const std::vector<const SpanRecorder*>& recorders,
                 const std::vector<SpanMetric>& span_metrics, Report& report,
                 const RunArgs& args);

// trace.overhead_pct.{op_p50,ops_per_s}: positive means the traced phase
// was slower. Callers take probe time out of the traced phase's wall time.
void ReportTraceOverhead(double untraced_p50, double traced_p50,
                         double untraced_ops, double traced_ops,
                         Report& report);

// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_WORKLOADS_H_
