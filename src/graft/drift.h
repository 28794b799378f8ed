// Abort-cost drift detection: the measurement loop closed into action.
//
// The paper's disaster story is continuous — a kernel doesn't just survive
// one bad invocation, it notices a graft whose *recovery cost* is drifting
// away from the fitted a + b·L + c·G model and gets rid of it. This layer
// compares each graft's recent abort-cost samples (a tumbling window)
// against two long-run baselines the kernel already maintains:
//
//   1. the graft's fitted AbortCostModel, evaluated at the window's mean
//      (L, G) — "what should an abort with this shape have cost", and
//   2. the graft's abort-cost LatencyHistogram median — "what have its
//      aborts actually cost historically".
//
// A window is *drifted* when its mean cost exceeds the model prediction by
// both a multiplicative ratio and an absolute floor, and also exceeds the
// historical median (so a model fitted on microscopically cheap aborts
// cannot flag noise). `strike_windows` consecutive drifted windows degrade
// the graft: a kGraftDegraded trace event is posted and — only under the
// opt-in eject policy — the graft points eject it on its next invocation
// through the existing ForciblyRemove path.
//
// The baseline prediction is latched at the first strike: the long-run
// model keeps absorbing the drifted samples, so comparing later windows
// against a *fresh* fit would let a sustained regression talk its way back
// under the threshold before the strikes run out.

#ifndef VINOLITE_SRC_GRAFT_DRIFT_H_
#define VINOLITE_SRC_GRAFT_DRIFT_H_

#include <cstdint>
#include <mutex>

#include "src/base/histogram.h"

namespace vino {

// Knobs for detection and the (opt-in) eject policy. Installed process-
// globally — grafts are process-wide entities and the detector runs below
// any particular kernel instance. VinoKernelConfig::eject_policy applies
// one at kernel construction; the default policy detects but never ejects.
struct DriftPolicy {
  bool detect = true;  // Evaluate windows and post kGraftDegraded.
  bool eject = false;  // Let graft points eject degraded grafts.

  uint32_t window_samples = 32;     // Tumbling-window size (aborts).
  uint64_t min_model_samples = 64;  // Fit must rest on ≥ this many aborts.
  double cost_ratio = 2.0;          // Window mean must exceed ratio×model…
  uint64_t min_excess_ns = 2'000;   // …and model + this absolute floor.
  uint32_t strike_windows = 2;      // Consecutive drifted windows to trip.
};

// Replaces the process-global policy (reads of the previous one stay valid
// forever; the slot leaks by design). Set at startup / test setup — not
// meant for concurrent flipping under load.
void SetGlobalDriftPolicy(const DriftPolicy& policy);
[[nodiscard]] const DriftPolicy& GlobalDriftPolicy();

// What one Record() decided (mostly: nothing yet — windows are tumbling).
struct DriftVerdict {
  bool evaluated = false;  // This sample completed a window.
  bool drifted = false;    // The completed window exceeded the thresholds.
  bool degraded = false;   // Strikes reached the policy limit.
  uint32_t strikes = 0;
  double window_mean_cost_ns = 0.0;
  double predicted_cost_ns = 0.0;  // Baseline the window was judged against.
};

// Per-graft detector state. Mutex-guarded: it is only touched on the abort
// path, which is µs-scale by construction (undo replay + lock release).
class DriftDetector {
 public:
  DriftDetector() = default;
  DriftDetector(const DriftDetector&) = delete;
  DriftDetector& operator=(const DriftDetector&) = delete;

  // Feeds one abort sample. `long_run` and `cost_hist` are the graft's
  // lifetime model and abort-cost histogram (both already include this
  // sample — the detector only reads their aggregates).
  DriftVerdict Record(const DriftPolicy& policy, const AbortCostModel& long_run,
                      const LatencyHistogram& cost_hist, uint64_t locks,
                      uint64_t undo_len, uint64_t cost_ns);

 private:
  std::mutex mutex_;
  uint64_t n_ = 0;  // Samples in the current (tumbling) window.
  uint64_t sum_locks_ = 0;
  uint64_t sum_undo_ = 0;
  uint64_t sum_cost_ = 0;
  uint32_t strikes_ = 0;
  double baseline_pred_ns_ = 0.0;  // Latched at the first strike.
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_DRIFT_H_
