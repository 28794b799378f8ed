#include "src/sfi/verifier.h"

#include <algorithm>
#include <array>

#include "src/sfi/isa.h"

namespace vino {
namespace {

// One abstract register value. The lattice is
//   bottom < const(c), sandboxed(off) < top
// with sandboxed(a) <= sandboxed(b) when a <= b.
enum class Kind : uint8_t { kBottom = 0, kConst, kSandboxed, kTop };

struct AbsVal {
  Kind kind = Kind::kBottom;
  uint64_t v = 0;  // const: the value; sandboxed: max offset past the base.

  bool operator==(const AbsVal&) const = default;
};

constexpr AbsVal Top() { return {Kind::kTop, 0}; }
constexpr AbsVal Const(uint64_t c) { return {Kind::kConst, c}; }
constexpr AbsVal Sandboxed(uint64_t off) { return {Kind::kSandboxed, off}; }

AbsVal Join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == Kind::kBottom) {
    return b;
  }
  if (b.kind == Kind::kBottom) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a.kind == Kind::kSandboxed && b.kind == Kind::kSandboxed) {
    return Sandboxed(std::max(a.v, b.v));
  }
  return Top();
}

// sandboxed(off) + delta. Only small non-negative deltas keep the
// sandboxed fact; anything that could leave the guard zone goes to top.
// `delta` is the raw two's-complement immediate, so a negative imm shows
// up as a huge uint64 and falls to top — subtraction below the arena base
// is never admitted.
AbsVal AddToSandboxed(const AbsVal& s, uint64_t delta) {
  if (delta > kSandboxGuardBytes || s.v + delta > kSandboxGuardBytes) {
    return Top();
  }
  return Sandboxed(s.v + delta);
}

// Constant folding mirrors Vm::Run exactly — an abstract const feeding a
// sandboxed-offset addition must be the value the interpreter will compute.
uint64_t FoldBinary(Op op, uint64_t a, uint64_t b) {
  switch (op) {
    case Op::kAdd:
      return a + b;
    case Op::kSub:
      return a - b;
    case Op::kMul:
      return a * b;
    case Op::kDivU:
      return b == 0 ? 0 : a / b;
    case Op::kRemU:
      return b == 0 ? 0 : a % b;
    case Op::kAnd:
      return a & b;
    case Op::kOr:
      return a | b;
    case Op::kXor:
      return a ^ b;
    case Op::kShl:
      return a << (b & 63);
    case Op::kShr:
      return a >> (b & 63);
    case Op::kSar:
      return static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63));
    case Op::kMulI:
      return a * b;
    case Op::kAndI:
      return a & b;
    case Op::kOrI:
      return a | b;
    case Op::kXorI:
      return a ^ b;
    case Op::kShlI:
      return a << (b & 63);
    case Op::kShrI:
      return a >> (b & 63);
    default:
      return 0;
  }
}

struct State {
  std::array<AbsVal, kNumRegisters> regs{};

  bool operator==(const State&) const = default;
};

// Entry state. Argument registers hold caller data; r6..r11 are zeroed by
// the Vm and unreachable to callers. The reserved registers are top, NOT
// const: r12/r13 hold the image's mask/base at run time, and modeling
// them as a known constant would let `mov r1, r13` launder the arena base
// into the const domain and poison sandboxed-offset arithmetic.
State EntryState() {
  State s;
  for (int r = 0; r < kNumRegisters; ++r) {
    if (r < kMaxArgs || r >= kFirstReservedReg) {
      s.regs[static_cast<size_t>(r)] = Top();
    } else {
      s.regs[static_cast<size_t>(r)] = Const(0);
    }
  }
  return s;
}

void InsertSorted(std::vector<uint32_t>& ids, uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    ids.insert(it, id);
  }
}

// The CFG's basic blocks. Leaders are the entry, every branch target, and
// every instruction after a branch or kHalt, so control enters a block only
// at its first instruction and leaves only from its last.
struct Blocks {
  std::vector<uint32_t> start;     // Leader pc of each block, ascending.
  std::vector<uint32_t> block_of;  // pc -> its block; pc n -> block count.

  [[nodiscard]] uint32_t end(uint32_t b) const { return start[b + 1]; }
  [[nodiscard]] size_t size() const { return start.size() - 1; }
};

Blocks FindBlocks(const std::vector<Instruction>& code) {
  const auto n = static_cast<uint32_t>(code.size());
  Blocks blocks;
  blocks.block_of.assign(n + 1, 0);
  std::vector<uint32_t>& leader = blocks.block_of;  // Marks, then indices.
  leader[0] = 1;
  for (uint32_t pc = 0; pc < n; ++pc) {
    const Op op = code[pc].op;
    if (IsBranch(op)) {
      leader[static_cast<size_t>(code[pc].imm)] = 1;
    }
    if (IsBranch(op) || op == Op::kHalt) {
      leader[pc + 1] = 1;
    }
  }
  uint32_t b = 0;
  for (uint32_t pc = 0; pc < n; ++pc) {
    if (leader[pc] != 0) {
      blocks.start.push_back(pc);
      b = static_cast<uint32_t>(blocks.start.size() - 1);
    }
    leader[pc] = b;
  }
  blocks.start.push_back(n);
  leader[n] = static_cast<uint32_t>(blocks.size());
  return blocks;
}

// What one run of a block adds to the report.
struct BlockCounts {
  uint32_t dynamic_calls = 0;  // kCheckedCallR sites with a non-const target.
  uint32_t loads = 0;
  uint32_t stores = 0;
};

// A worklist analysis over basic blocks. Facts live only at block leaders:
// a popped block runs on one live State, transferred in place, and only its
// exit joins into successor leaders. Blocks are popped LIFO and a branch
// pushes its target before its fall-through, so blocks are analyzed in the
// same order, from the same states, as a per-instruction worklist would.
class Analyzer {
 public:
  Analyzer(const Program& program, const VerifierOptions& options)
      : program_(program), options_(options), blocks_(FindBlocks(program.code)) {}

  VerifierReport Run() {
    const size_t nblocks = blocks_.size();
    in_.assign(nblocks, State{});  // All-bottom: unreached.
    visits_.assign(nblocks, 0);
    in_work_.assign(nblocks, 0);
    reached_.assign(nblocks, 0);
    counts_.assign(nblocks, BlockCounts{});
    declared_.assign(program_.direct_call_ids.begin(),
                     program_.direct_call_ids.end());
    std::sort(declared_.begin(), declared_.end());

    in_[0] = EntryState();
    Push(0);

    uint64_t total_visits = 0;
    while (!work_.empty() && report_.ok()) {
      const uint32_t b = work_.back();
      work_.pop_back();
      in_work_[b] = 0;
      // One visit per instruction transferred, as if each were popped.
      total_visits += blocks_.end(b) - blocks_.start[b];
      if (total_visits > options_.max_total_visits) {
        Fail(blocks_.start[b], Status::kVerifyFailed,
             "analysis did not converge");
        break;
      }
      RunBlock(b);
    }

    if (report_.ok()) {
      Summarize();
    }
    return std::move(report_);
  }

 private:
  void Push(uint32_t b) {
    if (in_work_[b] == 0) {
      in_work_[b] = 1;
      work_.push_back(b);
    }
  }

  void Fail(uint64_t pc, Status status, std::string reason) {
    report_.status = status;
    report_.fail_pc = pc;
    report_.reason = std::move(reason);
  }

  // Joins `out` into the in-state of the block led by `pc`; re-enqueues
  // that block if anything weakened. Past the widening threshold, any
  // register still changing jumps to top.
  void Flow(uint32_t pc, const State& out) {
    const uint32_t b = blocks_.block_of[pc];
    State& in = in_[b];
    const bool widen = visits_[b] >= options_.max_visits_per_leader;
    bool changed = false;
    for (size_t r = 0; r < kNumRegisters; ++r) {
      AbsVal j = Join(in.regs[r], out.regs[r]);
      if (!(j == in.regs[r])) {
        if (widen) {
          j = Top();
        }
        if (!(j == in.regs[r])) {
          in.regs[r] = j;
          changed = true;
        }
      }
    }
    if (changed) {
      ++visits_[b];
      Push(b);
    }
  }

  void CheckMemory(uint32_t pc, const Instruction& ins, const State& s) {
    const AbsVal& addr = s.regs[ins.rs1];
    if (addr.kind != Kind::kSandboxed) {
      Fail(pc, Status::kVerifyFailed,
           "memory address not derived from a sandbox op");
      return;
    }
    const auto delta = static_cast<uint64_t>(ins.imm);
    const uint64_t width = AccessWidth(ins.op);
    if (delta > kSandboxGuardBytes ||
        addr.v + delta + width > kSandboxGuardBytes) {
      Fail(pc, Status::kVerifyFailed,
           "memory offset may escape the sandbox guard zone");
    }
  }

  void CheckCall(uint32_t pc, const Instruction& ins, const State& s) {
    if (ins.op == Op::kCallR) {
      // The instrumenter rewrites every kCallR to kCheckedCallR; one
      // surviving in "instrumented" code is forged toolchain output.
      Fail(pc, Status::kVerifyFailed,
           "unchecked indirect call in instrumented program");
      return;
    }
    if (ins.op == Op::kCall) {
      const auto id = static_cast<uint32_t>(ins.imm);
      InsertSorted(report_.direct_call_ids, id);
      if (options_.require_declared_calls &&
          !std::binary_search(declared_.begin(), declared_.end(), id)) {
        Fail(pc, Status::kIllegalCall,
             "direct call id not declared in the manifest");
        return;
      }
      if (options_.host != nullptr && !options_.host->IsCallable(id)) {
        Fail(pc, Status::kIllegalCall,
             "direct call to a non-graft-callable id");
      }
      return;
    }
    // kCheckedCallR: the runtime hash-table probe enforces safety either
    // way (§3.3, Rule 7). A provably constant target is extracted for the
    // report, and optionally refused outright when strictness is on.
    const AbsVal& target = s.regs[ins.rs1];
    if (target.kind == Kind::kConst) {
      const auto id = static_cast<uint32_t>(target.v);
      InsertSorted(report_.const_indirect_ids, id);
      if (options_.reject_constant_indirect_targets &&
          options_.host != nullptr && !options_.host->IsCallable(id)) {
        Fail(pc, Status::kIllegalCall,
             "indirect call with constant non-callable target");
      }
    }
  }

  // Runs block b from its leader's in-state, then flows its exit state to
  // its successors. The block's counts are overwritten on every run, so at
  // the fixpoint the dynamic kCheckedCallR count reflects the final
  // in-state.
  void RunBlock(uint32_t b) {
    State s = in_[b];
    BlockCounts counts;
    const uint32_t end = blocks_.end(b);
    for (uint32_t pc = blocks_.start[b]; pc < end; ++pc) {
      if (!Transfer(pc, s, &counts)) {
        return;
      }
    }
    reached_[b] = 1;
    counts_[b] = counts;

    // Successors. VerifyProgram already proved branch targets in range and
    // that the final instruction is kHalt or kJmp, so fallthrough from any
    // other block end is in range.
    const Instruction& last = program_.code[end - 1];
    if (last.op == Op::kHalt) {
      return;
    }
    if (last.op == Op::kJmp) {
      Flow(static_cast<uint32_t>(last.imm), s);
      return;
    }
    if (IsBranch(last.op)) {
      Flow(static_cast<uint32_t>(last.imm), s);
    }
    Flow(end, s);
  }

  // Applies instruction pc to `s` in place. Returns false (with report_
  // failed) if the instruction is unsafe in state `s`.
  bool Transfer(uint32_t pc, State& s, BlockCounts* counts) {
    const Instruction& ins = program_.code[pc];

    // The sandbox registers are sacred: the mask/base the Vm loads from
    // the image at entry must survive every path, or kSandboxAddr (and
    // everything this verifier proves from it) means nothing. The Vm
    // ignores rd on call opcodes and writes r0 instead, so calls are
    // exempt from the rd rule and handled below.
    if (WritesRd(ins.op) && !IsCall(ins.op) &&
        (ins.rd == kSandboxMaskReg || ins.rd == kSandboxBaseReg)) {
      Fail(pc, Status::kVerifyFailed, "program writes a sandbox register");
      return false;
    }

    switch (ins.op) {
      case Op::kNop:
      case Op::kHalt:
        break;

      case Op::kLoadImm:
        s.regs[ins.rd] = Const(static_cast<uint64_t>(ins.imm));
        break;
      case Op::kMov:
        s.regs[ins.rd] = s.regs[ins.rs1];
        break;

      case Op::kAdd: {
        const AbsVal a = s.regs[ins.rs1];
        const AbsVal b = s.regs[ins.rs2];
        if (a.kind == Kind::kConst && b.kind == Kind::kConst) {
          s.regs[ins.rd] = Const(a.v + b.v);
        } else if (a.kind == Kind::kSandboxed && b.kind == Kind::kConst) {
          s.regs[ins.rd] = AddToSandboxed(a, b.v);
        } else if (a.kind == Kind::kConst && b.kind == Kind::kSandboxed) {
          s.regs[ins.rd] = AddToSandboxed(b, a.v);
        } else {
          s.regs[ins.rd] = Top();
        }
        break;
      }
      case Op::kSub:
      case Op::kMul:
      case Op::kDivU:
      case Op::kRemU:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kSar: {
        const AbsVal a = s.regs[ins.rs1];
        const AbsVal b = s.regs[ins.rs2];
        s.regs[ins.rd] = a.kind == Kind::kConst && b.kind == Kind::kConst
                             ? Const(FoldBinary(ins.op, a.v, b.v))
                             : Top();
        break;
      }

      case Op::kAddI: {
        const AbsVal a = s.regs[ins.rs1];
        const auto imm = static_cast<uint64_t>(ins.imm);
        if (a.kind == Kind::kConst) {
          s.regs[ins.rd] = Const(a.v + imm);
        } else if (a.kind == Kind::kSandboxed) {
          s.regs[ins.rd] = AddToSandboxed(a, imm);
        } else {
          s.regs[ins.rd] = Top();
        }
        break;
      }
      case Op::kMulI:
      case Op::kAndI:
      case Op::kOrI:
      case Op::kXorI:
      case Op::kShlI:
      case Op::kShrI: {
        const AbsVal a = s.regs[ins.rs1];
        s.regs[ins.rd] =
            a.kind == Kind::kConst
                ? Const(FoldBinary(ins.op, a.v, static_cast<uint64_t>(ins.imm)))
                : Top();
        break;
      }

      case Op::kSandboxAddr:
        // ((rs1 + imm) & mask) | base is in [base, base + arena_size - 1]
        // for any operand value — that is the entire point of the op.
        s.regs[ins.rd] = Sandboxed(0);
        break;

      case Op::kLd8:
      case Op::kLd16:
      case Op::kLd32:
      case Op::kLd64:
        CheckMemory(pc, ins, s);
        if (!report_.ok()) {
          return false;
        }
        ++counts->loads;
        s.regs[ins.rd] = Top();
        break;
      case Op::kSt8:
      case Op::kSt16:
      case Op::kSt32:
      case Op::kSt64:
        CheckMemory(pc, ins, s);
        if (!report_.ok()) {
          return false;
        }
        ++counts->stores;
        break;

      case Op::kJmp:
      case Op::kBeq:
      case Op::kBne:
      case Op::kBltU:
      case Op::kBgeU:
      case Op::kBltS:
      case Op::kBgeS:
        break;

      case Op::kCall:
      case Op::kCallR:
      case Op::kCheckedCallR:
        CheckCall(pc, ins, s);
        if (!report_.ok()) {
          return false;
        }
        if (ins.op == Op::kCheckedCallR &&
            s.regs[ins.rs1].kind != Kind::kConst) {
          ++counts->dynamic_calls;
        }
        s.regs[0] = Top();  // Host functions write r0 only.
        break;

      default:
        Fail(pc, Status::kSfiBadOpcode, "undefined opcode");
        return false;
    }
    return true;
  }

  void Summarize() {
    for (uint32_t b = 0; b < blocks_.size(); ++b) {
      if (reached_[b] == 0) {
        continue;
      }
      report_.instructions_reached += blocks_.end(b) - blocks_.start[b];
      report_.dynamic_indirect_calls += counts_[b].dynamic_calls;
      report_.loads_proven += counts_[b].loads;
      report_.stores_proven += counts_[b].stores;
    }
  }

  const Program& program_;
  const VerifierOptions& options_;
  const Blocks blocks_;
  VerifierReport report_;

  // Per block.
  std::vector<State> in_;
  std::vector<uint32_t> visits_;
  std::vector<uint8_t> in_work_;
  std::vector<uint8_t> reached_;
  std::vector<BlockCounts> counts_;

  std::vector<uint32_t> work_;
  std::vector<uint32_t> declared_;
};

}  // namespace

VerifierReport VerifySandbox(const Program& program,
                             const VerifierOptions& options) {
  VerifierReport report;

  // The structural check comes first: it is linear and allocation-free,
  // and the loader relies on this function to return its Status.
  const Status structural = VerifyProgram(program);
  if (!IsOk(structural)) {
    report.status = structural;
    report.reason = "structural verification failed";
    return report;
  }
  if (program.code.size() > options.max_instructions) {
    report.status = Status::kVerifyFailed;
    report.reason = "program exceeds the verifier's instruction limit";
    return report;
  }
  if (!program.instrumented) {
    // The proof rests on the Vm initializing the mask/base registers,
    // which it only does for instrumented programs.
    report.status = Status::kNotInstrumented;
    report.reason = "program is not instrumented";
    return report;
  }

  return Analyzer(program, options).Run();
}

}  // namespace vino
