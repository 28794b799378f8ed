// The graft virtual ISA.
//
// The paper's grafts are C++ compiled to i386 and rewritten by MiSFIT.
// We reproduce the *mechanism* on a small register-based virtual ISA:
// grafts are authored against this ISA (via the builder or text assembler),
// instrumented by our MiSFIT pass (src/sfi/misfit.h), and executed by the
// interpreter (src/sfi/vm.h). The unsafe/safe measurement paths of the paper
// map to executing a program before/after instrumentation.
//
// Register file: 16 general registers r0..r15.
//   r0        return value; also first argument slot.
//   r1..r5    argument slots 2..6.
//   r12..r15  RESERVED for the MiSFIT pass (sandbox mask, base, and scratch
//             address registers). Source programs that touch them are
//             rejected by the instrumenter — this is the classic Wahbe-style
//             dedicated-register argument that makes the sandbox jump-proof.
//
// Memory operands are 64-bit virtual addresses into a MemoryImage.
// Control flow targets are absolute instruction indices.

#ifndef VINOLITE_SRC_SFI_ISA_H_
#define VINOLITE_SRC_SFI_ISA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vino {

inline constexpr int kNumRegisters = 16;

// Registers reserved for instrumentation.
inline constexpr uint8_t kSandboxMaskReg = 12;
inline constexpr uint8_t kSandboxBaseReg = 13;
inline constexpr uint8_t kSandboxAddrReg = 14;
inline constexpr uint8_t kScratchReg = 15;
inline constexpr uint8_t kFirstReservedReg = 12;

// Maximum number of argument registers (r0..r5).
inline constexpr int kMaxArgs = 6;

// Guard zone after the graft arena (classic Wahbe-style SFI). Every
// MemoryImage allocates this many zeroed bytes beyond the arena's end, so a
// sandboxed base plus a small positive constant offset is still confined to
// image-owned memory without re-masking. This is what lets the instrumenter
// elide the kSandboxAddr op on `already-sandboxed base + small offset`
// accesses and lets the verifier prove them safe: for any access it admits,
//   max address = arena_base + (arena_size - 1) + offset + width
//               <= arena_base + arena_size + kSandboxGuardBytes
// which is inside the image by construction. Kernel memory sits *below* the
// arena, so guard spill can never touch kernel state.
inline constexpr uint64_t kSandboxGuardBytes = 8192;

enum class Op : uint8_t {
  kNop = 0,
  kHalt,     // Stop; r0 is the program's return value.

  // Data movement.
  kLoadImm,  // rd <- imm
  kMov,      // rd <- rs1

  // Register-register ALU.
  kAdd,   // rd <- rs1 + rs2
  kSub,   // rd <- rs1 - rs2
  kMul,   // rd <- rs1 * rs2
  kDivU,  // rd <- rs1 / rs2 (0 if rs2 == 0)
  kRemU,  // rd <- rs1 % rs2 (0 if rs2 == 0)
  kAnd,   // rd <- rs1 & rs2
  kOr,    // rd <- rs1 | rs2
  kXor,   // rd <- rs1 ^ rs2
  kShl,   // rd <- rs1 << (rs2 & 63)
  kShr,   // rd <- rs1 >> (rs2 & 63), logical
  kSar,   // rd <- rs1 >> (rs2 & 63), arithmetic

  // Register-immediate ALU.
  kAddI,  // rd <- rs1 + imm
  kMulI,  // rd <- rs1 * imm
  kAndI,  // rd <- rs1 & imm
  kOrI,   // rd <- rs1 | imm
  kXorI,  // rd <- rs1 ^ imm
  kShlI,  // rd <- rs1 << (imm & 63)
  kShrI,  // rd <- rs1 >> (imm & 63)

  // Memory. Effective address is rs1 + imm.
  kLd8,   // rd <- zx(mem8[ea])
  kLd16,  // rd <- zx(mem16[ea])
  kLd32,  // rd <- zx(mem32[ea])
  kLd64,  // rd <- mem64[ea]
  kSt8,   // mem8[ea] <- rs2
  kSt16,  // mem16[ea] <- rs2
  kSt32,  // mem32[ea] <- rs2
  kSt64,  // mem64[ea] <- rs2

  // Control flow. imm is an absolute instruction index.
  kJmp,   // pc <- imm
  kBeq,   // if rs1 == rs2: pc <- imm
  kBne,   // if rs1 != rs2
  kBltU,  // if rs1 <  rs2 (unsigned)
  kBgeU,  // if rs1 >= rs2 (unsigned)
  kBltS,  // if rs1 <  rs2 (signed)
  kBgeS,  // if rs1 >= rs2 (signed)

  // Host interface. Direct calls name a host function id in imm; the id set
  // is checked against the graft-callable list at link time (paper §3.3).
  // Indirect calls take the id from rs1 and, after instrumentation, are
  // checked against the callable hash table at run time.
  kCall,   // r0 <- host[imm](r0..r5)
  kCallR,  // r0 <- host[rs1](r0..r5)   -- rewritten by MiSFIT

  // Instrumentation-inserted opcodes. Source programs may not use these;
  // the instrumenter rejects programs that do (forgery attempt).
  kSandboxAddr,   // rd <- ((rs1 + imm) & rMask) | rBase
  kCheckedCallR,  // like kCallR, but probes the callable table first

  kOpCount,
};

// One decoded instruction. Fixed 16-byte layout keeps encode/decode trivial.
struct Instruction {
  Op op = Op::kNop;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int64_t imm = 0;

  bool operator==(const Instruction&) const = default;
};

// Mnemonic for diagnostics and the text assembler. Returns "?" if invalid.
[[nodiscard]] std::string_view OpName(Op op);

// Reverse lookup for the text assembler. Returns kOpCount if unknown.
[[nodiscard]] Op OpFromName(std::string_view name);

// Per-opcode class bits: one table read answers every classification
// question the toolchain, verifier, loader and compilers ask of an opcode.
enum OpClassBit : uint8_t {
  kOpReadsRs1 = 1 << 0,
  kOpReadsRs2 = 1 << 1,
  kOpWritesRd = 1 << 2,
  kOpLoad = 1 << 3,
  kOpStore = 1 << 4,
  kOpBranch = 1 << 5,  // Conditional branches and kJmp.
  kOpCall = 1 << 6,    // kCall, kCallR, kCheckedCallR.
};

// Indexed by the opcode's byte value. Entries past kOpCount are zero, so an
// undefined opcode (a hand-built or not yet validated instruction)
// classifies as nothing without a bounds check.
inline constexpr std::array<uint8_t, 256> kOpClass = [] {
  constexpr uint8_t r1 = kOpReadsRs1;
  constexpr uint8_t r2 = kOpReadsRs2;
  constexpr uint8_t rd = kOpWritesRd;
  constexpr uint8_t alu_rr = r1 | r2 | rd;
  constexpr uint8_t alu_ri = r1 | rd;
  constexpr uint8_t load = kOpLoad | r1 | rd;
  constexpr uint8_t store = kOpStore | r1 | r2;
  constexpr uint8_t cond = kOpBranch | r1 | r2;
  constexpr uint8_t rows[] = {
      /* kNop          */ 0,
      /* kHalt         */ 0,
      /* kLoadImm      */ rd,
      /* kMov          */ r1 | rd,
      /* kAdd..kSar    */ alu_rr, alu_rr, alu_rr, alu_rr, alu_rr, alu_rr,
      alu_rr, alu_rr, alu_rr, alu_rr, alu_rr,
      /* kAddI..kShrI  */ alu_ri, alu_ri, alu_ri, alu_ri, alu_ri, alu_ri,
      alu_ri,
      /* kLd8..kLd64   */ load, load, load, load,
      /* kSt8..kSt64   */ store, store, store, store,
      /* kJmp          */ kOpBranch,
      /* kBeq..kBgeS   */ cond, cond, cond, cond, cond, cond,
      /* kCall         */ kOpCall | rd,
      /* kCallR        */ kOpCall | r1 | rd,
      /* kSandboxAddr  */ r1 | rd,
      /* kCheckedCallR */ kOpCall | r1 | rd,
  };
  static_assert(sizeof(rows) == static_cast<size_t>(Op::kOpCount),
                "one row per opcode");
  std::array<uint8_t, 256> table{};
  for (size_t i = 0; i < sizeof(rows); ++i) {
    table[i] = rows[i];
  }
  return table;
}();

[[nodiscard]] constexpr uint8_t OpClassOf(Op op) {
  return kOpClass[static_cast<uint8_t>(op)];
}
[[nodiscard]] constexpr bool IsLoad(Op op) {
  return (OpClassOf(op) & kOpLoad) != 0;
}
[[nodiscard]] constexpr bool IsStore(Op op) {
  return (OpClassOf(op) & kOpStore) != 0;
}
[[nodiscard]] constexpr bool IsBranch(Op op) {
  return (OpClassOf(op) & kOpBranch) != 0;
}
[[nodiscard]] constexpr bool IsCall(Op op) {
  return (OpClassOf(op) & kOpCall) != 0;
}
[[nodiscard]] constexpr bool ReadsRs1(Op op) {
  return (OpClassOf(op) & kOpReadsRs1) != 0;
}
[[nodiscard]] constexpr bool ReadsRs2(Op op) {
  return (OpClassOf(op) & kOpReadsRs2) != 0;
}
[[nodiscard]] constexpr bool WritesRd(Op op) {
  return (OpClassOf(op) & kOpWritesRd) != 0;
}

// Spot checks that the rows above line up with the enum.
static_assert(ReadsRs1(Op::kMov) && WritesRd(Op::kMov) && !ReadsRs2(Op::kMov));
static_assert(IsLoad(Op::kLd64) && !IsStore(Op::kLd64) && WritesRd(Op::kLd64));
static_assert(IsStore(Op::kSt8) && ReadsRs2(Op::kSt8) && !WritesRd(Op::kSt8));
static_assert(IsBranch(Op::kJmp) && !ReadsRs1(Op::kJmp));
static_assert(IsBranch(Op::kBgeS) && ReadsRs2(Op::kBgeS) && !IsCall(Op::kBgeS));
static_assert(IsCall(Op::kCall) && !ReadsRs1(Op::kCall));
static_assert(IsCall(Op::kCheckedCallR) && ReadsRs1(Op::kCheckedCallR));
static_assert(!IsCall(Op::kSandboxAddr) && WritesRd(Op::kSandboxAddr));
static_assert(OpClassOf(Op::kOpCount) == 0);

// Width in bytes of a load/store opcode; 0 for non-memory opcodes.
// Inline: called once per interpreted memory access.
[[nodiscard]] constexpr uint64_t AccessWidth(Op op) {
  switch (op) {
    case Op::kLd8:
    case Op::kSt8:
      return 1;
    case Op::kLd16:
    case Op::kSt16:
      return 2;
    case Op::kLd32:
    case Op::kSt32:
      return 4;
    case Op::kLd64:
    case Op::kSt64:
      return 8;
    default:
      return 0;
  }
}

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_ISA_H_
