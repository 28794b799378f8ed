#include "src/graft/drift.h"

#include <atomic>

namespace vino {
namespace {

// The current policy. Slots leak on replacement so a reader holding the
// previous reference (a graft mid-eject-check) never dangles.
std::atomic<const DriftPolicy*>& PolicySlot() {
  static std::atomic<const DriftPolicy*> slot{new DriftPolicy()};
  return slot;
}

}  // namespace

void SetGlobalDriftPolicy(const DriftPolicy& policy) {
  PolicySlot().store(new DriftPolicy(policy), std::memory_order_release);
}

const DriftPolicy& GlobalDriftPolicy() {
  return *PolicySlot().load(std::memory_order_acquire);
}

DriftVerdict DriftDetector::Record(const DriftPolicy& policy,
                                   const AbortCostModel& long_run,
                                   const LatencyHistogram& cost_hist,
                                   uint64_t locks, uint64_t undo_len,
                                   uint64_t cost_ns) {
  DriftVerdict verdict;
  std::lock_guard<std::mutex> guard(mutex_);
  ++n_;
  sum_locks_ += locks;
  sum_undo_ += undo_len;
  sum_cost_ += cost_ns;
  if (policy.window_samples == 0 || n_ < policy.window_samples) {
    verdict.strikes = strikes_;
    return verdict;
  }

  const double n = static_cast<double>(n_);
  const double mean_locks = static_cast<double>(sum_locks_) / n;
  const double mean_undo = static_cast<double>(sum_undo_) / n;
  const double mean_cost = static_cast<double>(sum_cost_) / n;
  n_ = 0;
  sum_locks_ = 0;
  sum_undo_ = 0;
  sum_cost_ = 0;

  // The window's samples are already inside the long-run model; requiring
  // min_model_samples beyond the window keeps a cold graft from being
  // judged against a fit made mostly of the window itself.
  if (long_run.samples() < policy.min_model_samples + policy.window_samples) {
    verdict.strikes = strikes_;
    return verdict;
  }
  const AbortCostModel::Fitted fit = long_run.Fit();
  if (!fit.valid) {
    verdict.strikes = strikes_;
    return verdict;
  }

  double predicted =
      fit.a_ns + fit.b_ns * mean_locks + fit.c_ns * mean_undo;
  if (predicted < 0.0) {
    predicted = 0.0;
  }
  // Latch the baseline at the first strike: the model keeps absorbing the
  // drifted windows, so later comparisons reuse the pre-drift prediction.
  if (strikes_ > 0 && baseline_pred_ns_ > 0.0) {
    predicted = baseline_pred_ns_;
  }

  const double median =
      static_cast<double>(cost_hist.QuantileNs(0.5));
  const bool drifted = mean_cost > predicted * policy.cost_ratio &&
                       mean_cost > predicted +
                                       static_cast<double>(policy.min_excess_ns) &&
                       mean_cost > median;

  verdict.evaluated = true;
  verdict.drifted = drifted;
  verdict.window_mean_cost_ns = mean_cost;
  verdict.predicted_cost_ns = predicted;
  if (drifted) {
    if (strikes_ == 0) {
      baseline_pred_ns_ = predicted;
    }
    ++strikes_;
    verdict.degraded = strikes_ >= policy.strike_windows;
  } else {
    strikes_ = 0;
    baseline_pred_ns_ = 0.0;
  }
  verdict.strikes = strikes_;
  return verdict;
}

}  // namespace vino
