// vbench: runs one benchmark workload and prints its metrics.
//
//   vbench --workload serve-mixed|file-stream|graft-churn --seed N
//          --seconds S --trace 0|1 [--spans FILE]
//
// The last stdout line is one JSON object with every metric the run
// measured; perfbench/run.py narrows it to the metrics BENCHMARK.json
// lists. Exits 1 when any output check or survival invariant failed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/base/log.h"
#include "src/workloads.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

void ReportSpans(const std::vector<const SpanRecorder*>& recorders,
                 const std::vector<SpanMetric>& span_metrics, Report& report,
                 const RunArgs& args) {
  SpanTable table = Tabulate(recorders);
  for (const SpanMetric& m : span_metrics) {
    std::vector<double> durations = table.duration_ns[m.span];
    report.Timing(m.metric, Summarize(durations), m.unit, m.scale);
  }

  // Self times: where each span's time went once its children are taken
  // out. Root spans keep the harness's own unattributed time; probe spans
  // are direct calls made outside any operation.
  double total_self = 0;
  for (const auto& [name, self] : table.self_ns) {
    for (const double v : self) total_self += v;
  }
  std::printf("\nself time by span (traced phase):\n");
  std::printf("  %-44s %9s %12s %12s %8s\n", "span", "count", "dur p50 us",
              "self p50 us", "self %");
  for (auto& [name, self] : table.self_ns) {
    double sum = 0;
    for (const double v : self) sum += v;
    std::vector<double> durations = table.duration_ns[name];
    const Summary d = Summarize(durations);
    const Summary s = Summarize(self);
    const bool probe = name.rfind("probe.", 0) == 0;
    std::printf("  %-44s %9zu %12.3f %12.3f %7.2f%%%s\n", name.c_str(), s.n,
                d.p50 / 1e3, s.p50 / 1e3,
                total_self > 0 ? 100.0 * sum / total_self : 0.0,
                probe ? "  (probe)" : table.is_root[name] ? "  (root)" : "");
    if (!probe) {
      report.Set("trace.self_us." + name, s.p50 / 1e3, "us", s.n);
    }
  }
  if (!args.spans_path.empty()) {
    if (WriteSpansCsv(args.spans_path, recorders)) {
      std::printf("spans written to %s\n", args.spans_path.c_str());
    } else {
      std::printf("could not write spans to %s\n", args.spans_path.c_str());
    }
  }
}

void ReportTraceOverhead(double untraced_p50, double traced_p50,
                         double untraced_ops, double traced_ops,
                         Report& report) {
  report.Set("trace.overhead_pct.op_p50",
             untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                              : 0.0,
             "%", 2);
  report.Set("trace.overhead_pct.ops_per_s",
             untraced_ops > 0 ? 100.0 * (untraced_ops - traced_ops) / untraced_ops
                              : 0.0,
             "%", 2);
}

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: vbench --workload serve-mixed|file-stream|graft-churn "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  std::exit(2);
}

RunArgs Parse(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0 || args.seconds > 600) Usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) Usage();
      args.trace = value[0] == '1';
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage();
    }
  }
  if (args.workload != "serve-mixed" && args.workload != "file-stream" &&
      args.workload != "graft-churn") {
    Usage();
  }
  args.nproc = std::max(1u, std::thread::hardware_concurrency());
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = Parse(argc, argv);
  // Misbehaving grafts are the point; their abort logs are not.
  vino::Logger::Instance().SetMinLevel(vino::LogLevel::kError);
  std::printf("vbench %s seed=%llu seconds=%g trace=%d nproc=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.nproc);

  Report report;
  if (args.workload == "serve-mixed") {
    RunServeMixed(args, report);
  } else if (args.workload == "file-stream") {
    RunFileStream(args, report);
  } else {
    RunGraftChurn(args, report);
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.PrintTable(args.trace ? "per-layer metrics (traced run)"
                               : "end-to-end metrics (untraced run)");
  report.PrintJson();
  return report.correct() ? 0 : 1;
}
