// Rate-ladder selection for the open-loop workload: the highest offered
// rate whose tail latency meets the fixed limit without a growing backlog.

#ifndef VINOLITE_PERFBENCH_SRC_LADDER_H_
#define VINOLITE_PERFBENCH_SRC_LADDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A backlog grows across a step when, sampled in time order, its mean over
// the second half of the step exceeds twice the first half's mean plus a
// small absolute slack (so an idle system's 0 -> 1 jitter is not growth).
inline constexpr double kBacklogSlack = 8.0;

inline bool BacklogGrowing(const std::vector<uint32_t>& backlog_in_order) {
  const size_t n = backlog_in_order.size();
  if (n < 2) return false;
  double first = 0, second = 0;
  for (size_t i = 0; i < n; ++i) {
    (i < n / 2 ? first : second) += backlog_in_order[i];
  }
  first /= static_cast<double>(n / 2);
  second /= static_cast<double>(n - n / 2);
  return second > 2.0 * first + kBacklogSlack;
}

struct LadderStep {
  double rate_rps = 0;
  double p99_us = 0;
  size_t samples = 0;
  bool backlog_growing = false;
};

[[nodiscard]] inline bool StepMeets(const LadderStep& step, double limit_us) {
  return step.samples > 0 && step.p99_us <= limit_us && !step.backlog_growing;
}

// Steps are in ascending rate order. Returns the rate of the last step of
// the passing run that starts at the bottom of the ladder (a pass above a
// failed step does not count), or 0 when the lowest step already fails.
[[nodiscard]] inline double SelectMaxRate(const std::vector<LadderStep>& steps,
                                          double limit_us) {
  double best = 0;
  for (const LadderStep& step : steps) {
    if (!StepMeets(step, limit_us)) break;
    best = step.rate_rps;
  }
  return best;
}

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_LADDER_H_
