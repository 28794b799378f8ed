// Graft programs: a sequence of vISA instructions plus linking metadata.

#ifndef VINOLITE_SRC_SFI_PROGRAM_H_
#define VINOLITE_SRC_SFI_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/isa.h"

namespace vino {

struct CompiledProgram;  // src/sfi/threaded_vm.h

// A graft program. Produced by an assembler, transformed by the MiSFIT
// instrumenter, executed by the Vm.
struct Program {
  std::string name;
  std::vector<Instruction> code;

  // True once the MiSFIT pass has run. The loader refuses uninstrumented
  // programs (paper §2.1: "the kernel must determine whether a graft has
  // been processed ... by such a tool"); the *benchmarks* execute
  // uninstrumented copies directly to measure the unsafe path.
  bool instrumented = false;

  // log2 of the sandbox size the program was instrumented for. The sandbox
  // mask baked into the prologue only confines addresses if the runtime
  // region matches, so the loader checks this against the graft's arena.
  uint32_t sandbox_log2 = 0;

  // True once VerifySandbox (src/sfi/verifier.h) has proven the sandbox
  // invariants for this exact instruction stream. Deliberately NOT part of
  // the serialized container: a manifest cannot claim it, DecodeProgram
  // never sets it, and the loader only sets it on its own verifier's
  // verdict. CompileThreaded is its only reader: it builds the Tier-1 form,
  // which drops the per-access InBounds branch, only when it is set.
  bool verified = false;

  // The Tier-1 direct-threaded artifact (src/sfi/threaded_vm.h), built by
  // the loader after — and only after — the verifier's proof succeeds.
  // Like `verified`, never part of the serialized container; null means
  // "run Tier 0". Immutable once built; copies of the Program share it.
  std::shared_ptr<const CompiledProgram> compiled;

  // Host-function ids named by direct kCall instructions, collected during
  // assembly. The dynamic linker checks each against the graft-callable
  // list before loading (paper §3.3: direct calls are checked at link time).
  std::vector<uint32_t> direct_call_ids;
};

// Structural validation, run by the instrumenter and again by the loader:
//  * every opcode is defined (and instrumentation-only opcodes appear only
//    in instrumented programs),
//  * all register indices are in range,
//  * all branch targets land inside the program,
//  * the program is non-empty and ends in a reachable kHalt (structurally:
//    the last instruction is kHalt or kJmp).
[[nodiscard]] Status VerifyProgram(const Program& program);

// Deterministic byte serialization; the unit the code-signing scheme signs.
[[nodiscard]] std::vector<uint8_t> EncodeProgram(const Program& program);

// Length of EncodeProgram(program), without encoding it.
[[nodiscard]] size_t EncodedProgramSize(const Program& program);

// The one writer of the encoding, for consumers that stream it instead of
// holding it (the signing HMAC). Fills `buf` front to back and hands it to
// `flush(ctx, data, len)` each time it is full, then the remainder once at
// the end; fields may straddle two flushes. `buf` must not be empty.
// EncodeProgram passes one sized to the whole encoding, so its bytes are
// written in place and flushed once.
using EncodeFlushFn = void (*)(void* ctx, const uint8_t* data, size_t len);
void EncodeProgramChunks(const Program& program, std::span<uint8_t> buf,
                         EncodeFlushFn flush, void* ctx);

// Inverse of EncodeProgram. Fails with kBadGraft on malformed input.
[[nodiscard]] Result<Program> DecodeProgram(std::span<const uint8_t> bytes);

// Counts instructions by class; used by tests and the SFI overhead report.
struct ProgramProfile {
  size_t total = 0;
  size_t loads = 0;
  size_t stores = 0;
  size_t direct_calls = 0;
  size_t indirect_calls = 0;
  size_t sandbox_ops = 0;  // Instrumentation-inserted address ops.
};
[[nodiscard]] ProgramProfile ProfileProgram(const Program& program);

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_PROGRAM_H_
