// Load-time sandbox verifier: an abstract interpreter over the vISA.
//
// The MiSFIT instrumenter and the manifest it produces are *untrusted*.
// A graft arrives claiming "I am instrumented and I only call the ids in
// direct_call_ids" — historically the loader believed both claims: it
// link-checked the declared id list but never looked at the code's actual
// kCall targets, and the Vm executes kCall with no callable probe. A forged
// toolchain could therefore declare {read_block} and call anything.
//
// VerifySandbox re-derives the safety argument from the instruction stream
// alone, in the spirit of the eBPF verifier and the published proofs that
// SFI rewriters can be checked independently of the rewriter (MOAT;
// Sotoudeh & Yedidia). It propagates one abstract fact per register:
//
//   top                  -- any 64-bit value
//   const(c)             -- exactly c (from kLoadImm / folded arithmetic)
//   sandboxed(off)       -- a kSandboxAddr result plus at most `off` bytes:
//                           value is in [arena_base, arena_base +
//                           arena_size - 1 + off] for whatever image the
//                           program runs against
//
// across the CFG's basic blocks. Facts are kept only at block leaders (the
// entry, branch targets, and the instruction after a branch or halt): each
// block is analyzed by transferring one live state through its
// instructions, and its exit state is joined into its successors' leaders
// (equal consts survive, sandboxed offsets take the max, anything else goes
// to top), widening to top after a bounded number of refinements per
// leader so loops terminate. The facts are image-independent: "sandboxed"
// is defined by the mask/base registers, which the Vm loads from the
// *actual* image at entry and which verified code provably never writes.
//
// A program passes only if:
//  * it is instrumented and structurally valid (VerifyProgram);
//  * no reachable instruction writes the sandbox mask/base registers;
//  * every reachable load/store address is sandboxed(off) with
//    off + imm + width <= kSandboxGuardBytes — which the image's guard
//    zone makes safe without any runtime bounds check;
//  * every reachable kCall id is graft-callable AND declared in the
//    manifest (the manifest may no longer understate the call set);
//  * no reachable kCallR (the instrumenter rewrites them all). kCheckedCallR
//    keeps its runtime hash-table probe — the paper's Rule 7 semantics —
//    though provable constant targets are extracted for the report and can
//    optionally be refused outright.
//
// What passing buys: CompileThreaded builds the Tier-1 form, which has no
// per-access InBounds branch, and the instrumenter may elide kSandboxAddr on
// already-sandboxed-base + small-offset accesses, because this verifier —
// not the instrumentation pattern — is now the enforcement boundary.

#ifndef VINOLITE_SRC_SFI_VERIFIER_H_
#define VINOLITE_SRC_SFI_VERIFIER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/host.h"
#include "src/sfi/program.h"

namespace vino {

struct VerifierOptions {
  // If non-null, every reachable kCall id and every constant-target
  // kCheckedCallR id must be graft-callable here. Null skips callable
  // checks (offline audit of a program without its host table).
  const HostCallTable* host = nullptr;

  // Require every reachable kCall id to appear in the program's
  // direct_call_ids manifest. This is what closes the forged-manifest
  // hole: the declared list the link-time check consumes must cover the
  // code's true call set.
  bool require_declared_calls = true;

  // Also reject a kCheckedCallR whose target is a provable constant that
  // is not graft-callable. Off by default: the paper's contract (§3.3,
  // Rule 7) is that indirect calls are checked *at run time* — the probe
  // aborts the transaction — and tests/zoo programs exercise exactly that
  // abort path. Strict pipelines with a host table can opt in to refuse
  // grafts that provably abort.
  bool reject_constant_indirect_targets = false;

  // Widening threshold: once a block leader's in-state has been refined
  // this many times, further joins go straight to top so loop analysis
  // terminates.
  uint32_t max_visits_per_leader = 64;

  // Hard cap on instructions transferred (each pop of a block counts its
  // length) — a defense-in-depth bound; widening already forces
  // convergence far below it.
  uint64_t max_total_visits = uint64_t{1} << 22;

  // Largest program the verifier will analyze. The analysis keeps ~256
  // bytes of abstract state per block leader plus a few bytes per
  // instruction, and its time grows with length times loop refinements;
  // DecodeProgram admits up to 2^24 instructions, far past what a graft
  // needs.
  size_t max_instructions = size_t{1} << 16;
};

struct VerifierReport {
  // The failure taxonomy is part of the loader's public contract: call-set
  // violations (undeclared manifest calls, non-callable targets) fail with
  // kIllegalCall; sandbox/memory violations (sandbox-register writes,
  // underived addresses, guard-zone escapes, non-convergence) fail with
  // kVerifyFailed. The checked-in rejection corpus
  // (tests/corpus/loader_reject) asserts the exact status per attack
  // class, so moving a rejection between the two codes breaks fixtures.
  Status status = Status::kOk;

  // On failure: the pc of the offending instruction and a human-readable
  // reason for logs / vverify output.
  uint64_t fail_pc = 0;
  std::string reason;

  // The program's *true* direct-call-id set (reachable kCall targets),
  // sorted and de-duplicated — what the manifest should have said.
  std::vector<uint32_t> direct_call_ids;

  // Constant-target kCheckedCallR ids the analysis resolved statically.
  std::vector<uint32_t> const_indirect_ids;

  // Reachable kCheckedCallR sites whose target stays dynamic; these keep
  // their runtime callable probe.
  size_t dynamic_indirect_calls = 0;

  // Reachable memory accesses proven in-sandbox — exactly the InBounds
  // branches the Vm may delete for this program.
  size_t loads_proven = 0;
  size_t stores_proven = 0;

  size_t instructions_reached = 0;

  [[nodiscard]] bool ok() const { return IsOk(status); }
};

// Analyzes `program`. Deterministic: same program + options always yields
// the same verdict, so the loader and the offline vverify audit agree.
[[nodiscard]] VerifierReport VerifySandbox(const Program& program,
                                           const VerifierOptions& options = {});

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_VERIFIER_H_
