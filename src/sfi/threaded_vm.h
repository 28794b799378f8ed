// Tier 1 of the graft execution engine: direct-threaded, block-charged
// dispatch.
//
// The Tier-0 interpreter pays, per instruction: a pc bounds test, a fuel
// test, an instruction-counter increment, a poll-countdown decrement, an
// operand fetch through the 16-byte encoded Instruction, and a switch whose
// range check and jump-table load the branch predictor shares across all 41
// opcodes. For a program the load-time verifier has proven safe, most of
// that is deletable:
//
//  * pc can never leave the program (VerifyProgram: every branch target is
//    in range and the last instruction is kHalt/kJmp), so the bounds test
//    goes;
//  * the instruction counter is derivable from fuel spent, so the separate
//    increment goes;
//  * fuel and the poll countdown are charged once per basic block, not per
//    instruction: a block op charges the block's length n in one test
//    (fuel >= n && until_poll > n) — true exactly when Tier 0 would neither
//    run out of fuel nor reach a poll inside the block — and branch
//    handlers run that test inline for their successor, so a loop
//    dispatches no separate block op;
//  * a kSandboxAddr followed by a load or store through the register it
//    just wrote is one fused op, one dispatch instead of two (it still
//    writes the sandbox register first);
//  * pre-decoding at load time resolves each opcode to the *address* of its
//    handler (GCC/Clang computed goto), so dispatch is one indirect jump
//    whose target the BTB predicts per-site instead of through one shared
//    switch.
//
// When the block test fails, the block runs on a second, checked stream —
// one op per source instruction, each charging one unit of fuel and one
// poll step exactly as Tier 0 does — and the next branch re-enters the fast
// stream. Instruction counts, the fuel-exhaustion point, the number and
// timing of abort-predicate calls, host-call order, registers and memory
// therefore stay bit-identical to Tier 0.
//
// What stays, byte-for-byte: MiSFIT masking semantics (kSandboxAddr, the
// reserved mask/base registers loaded from the image), the Rule-7
// kCheckedCallR runtime probe-and-abort contract, fuel accounting, and the
// abort-poll cadence including the poll_interval==0 clamp. The differential
// fuzz test in tests/property_test.cc holds the two tiers to identical
// registers, memory, host-call sequences, and abort reasons.
//
// Compilation happens once, in GraftLoader::Load, for every program whose
// sandbox proof succeeded — the dropped checks are exactly the ones the
// proof covers, so an unverified program has no Tier-1 form, and
// CompileThreaded is the only reader of that proof. On a toolchain without
// computed goto the artifact is absent and the graft runs Tier 0: slower,
// same results, never a load failure.

#ifndef VINOLITE_SRC_SFI_THREADED_VM_H_
#define VINOLITE_SRC_SFI_THREADED_VM_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/base/status.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/program.h"

// Direct threading needs GCC/Clang's labels-as-values extension. Elsewhere
// CompileThreaded returns nullptr and every program runs the Tier-0
// interpreter — a performance fallback, never a functional one.
#if defined(__GNUC__) || defined(__clang__)
#define VINO_HAVE_COMPUTED_GOTO 1
#else
#define VINO_HAVE_COMPUTED_GOTO 0
#endif

namespace vino {

// One pre-decoded op: 24 bytes, the handler address plus operands widened
// out of the packed encoding. What the fields mean depends on the handler:
//
//   instruction  rd/rs1/rs2/imm as in the source Instruction; for kCall,
//                imm is the host-function id.
//   branch       rs1/rs2 as in the source; imm is the address of the taken
//                target's block op, aux (an int32 bit pattern) the offset,
//                in ops, to the fall-through block op, 0 for kJmp. Both
//                streams: a branch always enters the fast stream.
//   block op     aux is n, the block's length in source instructions; imm
//                is the address of its leader's checked-stream op.
//   fused        rd/rs1/imm are the kSandboxAddr's; rt is the access's rd
//                (load) or rs2 (store); aux is the access's offset, an
//                int32 bit pattern. Sits in the kSandboxAddr's slot.
//
// Addresses rather than indices let a taken branch reach its target with
// one load and no base register; the op array never moves once built.
// No default member initializers: CompileThreaded allocates the streams
// uninitialized and writes every field of every op.
struct ThreadedOp {
  const void* handler;
  uint8_t rd;
  uint8_t rs1;
  uint8_t rs2;
  uint8_t rt;
  uint32_t aux;
  int64_t imm;
};
static_assert(sizeof(ThreadedOp) == 24,
              "ThreadedOp must stay 24 bytes: 8 ops per three cache lines");

// The Tier-1 artifact: two op streams in one exactly-sized allocation.
//
//   checked  code_size ops, index == pc. Each charges one unit of fuel and
//            one poll step, then runs its instruction.
//   fast     every basic block as a block op followed by one slot per
//            instruction. A kSandboxAddr whose access fuses holds the
//            fused op, which then steps over the access's (unreachable)
//            slot. Only block ops — and branches, inline — charge.
//
// Block leaders are the entry, every branch target, and every instruction
// after a branch, call or halt, so only a block's last op can leave it.
// Built once at load time, owned by the Program (shared_ptr — Program is
// copied into the Graft), immutable thereafter; concurrent invocations
// share it freely.
struct CompiledProgram {
  std::unique_ptr<ThreadedOp[]> ops;  // [checked stream][fast stream]
  size_t code_size = 0;
  size_t fast_size = 0;

  [[nodiscard]] std::span<const ThreadedOp> checked() const {
    return {ops.get(), code_size};
  }
  [[nodiscard]] std::span<const ThreadedOp> fast() const {
    return {ops.get() + code_size, fast_size};
  }
};

// What a compiled op does, recovered from its handler address. For tests
// and diagnostics; never consulted on the dispatch path.
enum class ThreadedOpKind : uint8_t {
  kUnknown = 0,  // Not a Tier-1 handler (or no computed goto).
  kChecked,      // Checked stream: charge one instruction, then run `op`.
  kInstruction,  // Fast stream: run `op`.
  kBlock,        // Fast stream: charge a block.
  kFused,        // Fast stream: kSandboxAddr, then `op` (a load or store).
};
struct ThreadedOpInfo {
  ThreadedOpKind kind = ThreadedOpKind::kUnknown;
  Op op = Op::kNop;
};
[[nodiscard]] ThreadedOpInfo DescribeThreadedOp(const ThreadedOp& op);

// Pre-decodes `program` for direct-threaded dispatch. Returns nullptr —
// never an error — when the program is not Tier-1 eligible: it must be
// instrumented, carry the load-time verifier's proof (Program::verified),
// be non-empty and at most kMaxThreadedInstructions long, and the build
// must support computed goto. Callers treat nullptr as "run Tier 0".
//
// The length cap equals the verifier's default max_instructions; it bounds
// the on-stack bitmap the compiler marks block leaders in.
inline constexpr size_t kMaxThreadedInstructions = size_t{1} << 16;
[[nodiscard]] std::shared_ptr<const CompiledProgram> CompileThreaded(
    const Program& program);

// The graft engine. Stateless like the Vm: Run is const and all execution
// state lives on its stack, so one instance per graft point serves any
// number of concurrent invocations. A program without a compiled artifact
// — unverified, or built without computed goto — falls back to the Tier-0
// interpreter (and the outcome reports kTier0).
class ThreadedVm final {
 public:
  explicit ThreadedVm(const HostCallTable* host) : host_(host) {}

  // Executes `program` with `args` in r0..r5, confined to `image`.
  // `identity` is passed to every host call (the installing user, §3.3).
  RunOutcome Run(const Program& program, MemoryImage* image,
                 std::span<const uint64_t> args, const RunOptions& options,
                 CallerIdentity identity = {}) const;

 private:
  const HostCallTable* host_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_THREADED_VM_H_
