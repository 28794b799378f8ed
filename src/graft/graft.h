// Graft descriptor: one loaded kernel extension instance.
//
// A graft bundles the code (a MiSFIT-instrumented program, or — for the
// measurement's "unsafe path" and for tests — a native C++ callback), the
// memory arena the code is confined to, the identity of the installing
// user, and the resource account its allocations are charged against
// (initially zero; the installer transfers limits or sponsors it, §3.2).

#ifndef VINOLITE_SRC_GRAFT_GRAFT_H_
#define VINOLITE_SRC_GRAFT_GRAFT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/graft/drift.h"
#include "src/resource/account.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/program.h"

namespace vino {

// Who installed the graft. Grafts run with the installing user's identity
// (§3.3: "A graft is run with the user identity of the process that
// installs it"); only privileged identities may touch restricted (global
// policy) graft points (§2.3).
struct GraftIdentity {
  uint64_t uid = 0;
  bool privileged = false;
};

class Graft {
 public:
  // Native graft: runs host C++ directly, with no SFI protection. This is
  // the paper's "unsafe path" and is only installable through the
  // privileged InstallNativeUnsafe API — never through the loader.
  using NativeFn =
      std::function<Result<uint64_t>(std::span<const uint64_t>, MemoryImage*)>;

  // Program-backed graft (the normal, safe case). `kernel_region_size`
  // sizes the image's simulated kernel region; the arena comes from the
  // program's sandbox_log2.
  Graft(std::string name, Program program, GraftIdentity owner,
        uint64_t kernel_region_size);

  // Native graft; gets a default 64 KiB arena for shared-buffer exchange.
  Graft(std::string name, NativeFn fn, GraftIdentity owner);

  Graft(const Graft&) = delete;
  Graft& operator=(const Graft&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_native() const { return native_fn_ != nullptr; }
  [[nodiscard]] const Program& program() const { return program_; }

  // True when the loader's sandbox verifier proved this graft's program
  // (src/sfi/verifier.h); such grafts carry the Tier-1 artifact, whose
  // accesses are not checked at run time. Always false for native grafts —
  // they have no program to prove.
  [[nodiscard]] bool verified() const {
    return !is_native() && program_.verified;
  }
  [[nodiscard]] const NativeFn& native_fn() const { return native_fn_; }
  [[nodiscard]] GraftIdentity owner() const { return owner_; }

  [[nodiscard]] MemoryImage& image() { return image_; }
  [[nodiscard]] ResourceAccount& account() { return account_; }

  // --- Statistics -----------------------------------------------------
  void CountInvocation() { invocations_.fetch_add(1, std::memory_order_relaxed); }
  void CountAbort() { aborts_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] uint64_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t aborts() const {
    return aborts_.load(std::memory_order_relaxed);
  }

  // Which execution tier actually ran each program invocation (from
  // RunOutcome::tier, so a Tier-1-eligible graft that fell back to the
  // interpreter is counted where it really ran). Native grafts never
  // count here — they have no tier.
  void CountTierRun(ExecTier tier) {
    tier_runs_[static_cast<size_t>(tier)].fetch_add(1,
                                                    std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t tier_runs(ExecTier tier) const {
    return tier_runs_[static_cast<size_t>(tier)].load(
        std::memory_order_relaxed);
  }

  // --- Flight-recorder attribution ------------------------------------
  // Process-unique id carried in trace records, so a merged timeline can
  // name the graft without chasing pointers into freed objects.
  [[nodiscard]] uint64_t trace_id() const { return trace_id_; }

  // One abort sample (§4.5 cost model): L locks held, G undo records
  // replayed, measured abort cost. Fed by the invocation wrapper when
  // tracing is enabled; Fit() gives this graft's own a + b·L + c·G line.
  // Also feeds the abort-cost histogram and the drift detector: sustained
  // drift above the fitted model marks the graft degraded and posts a
  // kGraftDegraded trace event (src/graft/drift.h).
  void RecordAbortCost(uint64_t locks, uint64_t undo_len, uint64_t cost_ns);
  [[nodiscard]] const AbortCostModel& abort_cost() const { return abort_cost_; }
  [[nodiscard]] const LatencyHistogram& abort_cost_hist() const {
    return abort_cost_hist_;
  }

  // Sticky: set by the drift detector; graft points eject degraded grafts
  // on their next invocation when the policy's `eject` is on.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

 private:
  static uint64_t NextTraceId();

  std::string name_;
  Program program_;
  NativeFn native_fn_;
  GraftIdentity owner_;
  MemoryImage image_;
  ResourceAccount account_;
  const uint64_t trace_id_ = NextTraceId();

  std::atomic<uint64_t> invocations_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> tier_runs_[kExecTierCount] = {};
  AbortCostModel abort_cost_;
  LatencyHistogram abort_cost_hist_;
  DriftDetector drift_;
  std::atomic<bool> degraded_{false};
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_GRAFT_H_
