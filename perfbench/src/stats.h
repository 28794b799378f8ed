// Sample statistics with the benchmark's reporting rule: a timing is
// reported as its median plus the highest percentile that has at least ten
// samples beyond it, together with the sample count.

#ifndef VINOLITE_PERFBENCH_SRC_STATS_H_
#define VINOLITE_PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Samples that must lie beyond a reported percentile.
inline constexpr double kMinBeyond = 10.0;

// Nearest-rank percentile of an ascending, non-empty sample set.
inline double Percentile(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps e.g. 0.9 * 100 from rounding up to rank 91.
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// The highest percentile from {99.9, 99, 95, 90, 50} that leaves at least
// kMinBeyond samples above it, capped at `wanted`. Returns 0.5 when even
// p90 is unsupported, since the median is always reported.
inline double SupportedQuantile(size_t n, double wanted = 0.999) {
  for (const double q : {0.999, 0.99, 0.95, 0.90}) {
    if (q <= wanted + 1e-12 &&
        static_cast<double>(n) * (1.0 - q) >= kMinBeyond - 1e-9) {
      return q;
    }
  }
  return 0.5;
}

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;     // The percentile at p99_q (0.99 when n >= 1000).
  double p99_q = 0;   // Which percentile `p99` actually is.
  double tail = 0;    // Highest supported percentile overall.
  double tail_q = 0;
};

// Summarizes `samples` (reordered in place). Empty input gives n == 0 and
// zero values.
inline Summary Summarize(std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Percentile(samples, 0.5);
  s.p99_q = SupportedQuantile(s.n, 0.99);
  s.p99 = Percentile(samples, s.p99_q);
  s.tail_q = SupportedQuantile(s.n);
  s.tail = Percentile(samples, s.tail_q);
  return s;
}

// Median of a small set of repeated measurements (e.g. set-up times).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// A steadier tail for an open loop on a shared machine: the samples are cut
// into fixed windows by their time stamp, and the result is the median of
// the windows' p99s. Windows too small for a p99 (under 1000 samples) are
// left out; with none left it is the p99 of all samples.
inline double MedianWindowP99(const std::vector<int64_t>& at_ns,
                              const std::vector<double>& values,
                              int64_t window_ns) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max<int64_t>(0, at_ns[i] / window_ns));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> tails;
  for (std::vector<double>& w : windows) {
    const Summary s = Summarize(w);
    if (s.p99_q >= 0.99) tails.push_back(s.p99);
  }
  if (tails.empty()) {
    std::vector<double> all = values;
    return Summarize(all).p99;
  }
  return Median(tails);
}

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_STATS_H_
