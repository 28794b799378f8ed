// The graft execution engines' shared vocabulary: tiers, run options and
// run outcomes.
//
// One verified vISA program can be executed by more than one backend:
//
//   Tier 0  (src/sfi/vm.h)          — the classic switch interpreter. Runs
//                                     anything, instrumented or not, and
//                                     bounds-checks every access. The
//                                     reference the other tier is held to.
//   Tier 1  (src/sfi/threaded_vm.h) — direct-threaded dispatch over
//                                     load-time pre-decoded op streams
//                                     (computed goto), charging fuel and
//                                     polls per basic block, exactly as
//                                     Tier 0 would. Only runs programs
//                                     the load-time verifier proved safe;
//                                     the proof is what lets it drop the
//                                     per-iteration pc bounds check and the
//                                     per-access InBounds branch entirely.
//
// The verifier's proof is read in exactly one place: CompileThreaded, which
// GraftLoader::Load calls on every program that passes VerifySandbox. The
// artifact travels with the Program, and ThreadedVm runs it or — with no
// artifact — falls back to Tier 0. Both tiers keep the MiSFIT masking
// semantics and the Rule-7 kCheckedCallR abort contract byte-for-byte —
// tests/property_test.cc holds them to it differentially.

#ifndef VINOLITE_SRC_SFI_EXEC_ENGINE_H_
#define VINOLITE_SRC_SFI_EXEC_ENGINE_H_

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "src/base/status.h"

namespace vino {

enum class ExecTier : uint8_t {
  kTier0 = 0,  // Switch interpreter.
  kTier1 = 1,  // Direct-threaded pre-decoded dispatch.
};
inline constexpr size_t kExecTierCount = 2;

[[nodiscard]] std::string_view ExecTierName(ExecTier tier);

// Execution options. Deliberately a trivially-copyable POD: the graft
// invocation wrapper pre-builds one per graft point and reuses it for every
// invocation, so nothing here may require per-use construction (which rules
// out std::function — the abort predicate is a plain function pointer plus
// an opaque context word).
struct RunOptions {
  // Instruction budget; exhausting it returns kSfiFuelExhausted.
  uint64_t fuel = 100'000'000;

  // How often (in instructions) the abort predicate is polled.
  uint32_t poll_interval = 64;

  // If set and abort_requested(abort_ctx) returns true at a poll, execution
  // stops with kTxnAborted. Wired to the invoking transaction's abort flag
  // by the graft wrapper (which needs no context and passes nullptr).
  bool (*abort_requested)(void* ctx) = nullptr;
  void* abort_ctx = nullptr;

  // If non-null, receives a copy of all kNumRegisters registers as they
  // were when execution stopped (any exit path). A test/debug hook — the
  // differential tier test asserts register-file equality through it; the
  // graft wrapper leaves it null.
  uint64_t* final_regs = nullptr;
};
static_assert(std::is_trivially_copyable_v<RunOptions>,
              "RunOptions must stay POD so graft points can pin one per "
              "point and share it across concurrent invocations");

struct RunOutcome {
  Status status = Status::kOk;
  uint64_t ret = 0;           // r0 at halt.
  uint64_t instructions = 0;  // Instructions executed.
  ExecTier tier = ExecTier::kTier0;  // Which backend actually ran.
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_EXEC_ENGINE_H_
