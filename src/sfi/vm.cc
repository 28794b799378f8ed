#include "src/sfi/vm.h"

#include <cstring>

namespace vino {
namespace {

// Copies the register file out on every exit path (RAII so early returns
// are covered). Only armed when RunOptions::final_regs is set — the
// differential tier test in tests/property_test.cc — so the hot path pays
// one predictable null test at exit.
struct FinalRegDump {
  uint64_t* dst;
  const uint64_t* src;
  ~FinalRegDump() {
    if (dst != nullptr) {
      std::memcpy(dst, src, sizeof(uint64_t) * kNumRegisters);
    }
  }
};

}  // namespace

RunOutcome Vm::Run(const Program& program, MemoryImage* image,
                   std::span<const uint64_t> args, const RunOptions& options,
                   CallerIdentity identity) const {
  if (program.code.empty()) {
    RunOutcome outcome;
    outcome.status = Status::kBadGraft;
    return outcome;
  }

  // poll_interval == 0 means "poll as often as possible", not "never":
  // without the clamp, the first `--until_poll` wraps to UINT32_MAX and
  // silently disables cross-thread abort polling for ~4B instructions.
  const uint32_t poll_interval =
      options.poll_interval == 0 ? 1 : options.poll_interval;

  // The register file must stay a non-escaping local of the dispatch loop:
  // as a caller-provided buffer the compiler would have to assume graft
  // stores through `mem` may alias it and spill/reload around every access.
  uint64_t regs[kNumRegisters] = {};
  const size_t argc = args.size() < kMaxArgs ? args.size() : kMaxArgs;
  for (size_t i = 0; i < argc; ++i) {
    regs[i] = args[i];
  }
  if (program.instrumented) {
    regs[kSandboxMaskReg] = image->arena_mask();
    regs[kSandboxBaseReg] = image->arena_base();
  }
  FinalRegDump reg_dump{options.final_regs, regs};

  RunOutcome outcome;
  uint8_t* const mem = image->data();
  const size_t code_size = program.code.size();
  uint64_t fuel = options.fuel;
  uint32_t until_poll = poll_interval;
  uint64_t pc = 0;
  while (true) {
    if (pc >= code_size) {
      outcome.status = Status::kBadGraft;  // Fell off the end.
      return outcome;
    }
    if (fuel == 0) {
      outcome.status = Status::kSfiFuelExhausted;
      return outcome;
    }
    --fuel;
    ++outcome.instructions;
    if (--until_poll == 0) {
      until_poll = poll_interval;
      if (options.abort_requested != nullptr &&
          options.abort_requested(options.abort_ctx)) {
        outcome.status = Status::kTxnAborted;
        return outcome;
      }
    }

    const Instruction& ins = program.code[pc];
    ++pc;

    switch (ins.op) {
      case Op::kNop:
        break;
      case Op::kHalt:
        outcome.ret = regs[0];
        outcome.status = Status::kOk;
        return outcome;

      case Op::kLoadImm:
        regs[ins.rd] = static_cast<uint64_t>(ins.imm);
        break;
      case Op::kMov:
        regs[ins.rd] = regs[ins.rs1];
        break;

      case Op::kAdd:
        regs[ins.rd] = regs[ins.rs1] + regs[ins.rs2];
        break;
      case Op::kSub:
        regs[ins.rd] = regs[ins.rs1] - regs[ins.rs2];
        break;
      case Op::kMul:
        regs[ins.rd] = regs[ins.rs1] * regs[ins.rs2];
        break;
      case Op::kDivU:
        regs[ins.rd] = regs[ins.rs2] == 0 ? 0 : regs[ins.rs1] / regs[ins.rs2];
        break;
      case Op::kRemU:
        regs[ins.rd] = regs[ins.rs2] == 0 ? 0 : regs[ins.rs1] % regs[ins.rs2];
        break;
      case Op::kAnd:
        regs[ins.rd] = regs[ins.rs1] & regs[ins.rs2];
        break;
      case Op::kOr:
        regs[ins.rd] = regs[ins.rs1] | regs[ins.rs2];
        break;
      case Op::kXor:
        regs[ins.rd] = regs[ins.rs1] ^ regs[ins.rs2];
        break;
      case Op::kShl:
        regs[ins.rd] = regs[ins.rs1] << (regs[ins.rs2] & 63);
        break;
      case Op::kShr:
        regs[ins.rd] = regs[ins.rs1] >> (regs[ins.rs2] & 63);
        break;
      case Op::kSar:
        regs[ins.rd] = static_cast<uint64_t>(static_cast<int64_t>(regs[ins.rs1]) >>
                                             (regs[ins.rs2] & 63));
        break;

      case Op::kAddI:
        regs[ins.rd] = regs[ins.rs1] + static_cast<uint64_t>(ins.imm);
        break;
      case Op::kMulI:
        regs[ins.rd] = regs[ins.rs1] * static_cast<uint64_t>(ins.imm);
        break;
      case Op::kAndI:
        regs[ins.rd] = regs[ins.rs1] & static_cast<uint64_t>(ins.imm);
        break;
      case Op::kOrI:
        regs[ins.rd] = regs[ins.rs1] | static_cast<uint64_t>(ins.imm);
        break;
      case Op::kXorI:
        regs[ins.rd] = regs[ins.rs1] ^ static_cast<uint64_t>(ins.imm);
        break;
      case Op::kShlI:
        regs[ins.rd] = regs[ins.rs1] << (static_cast<uint64_t>(ins.imm) & 63);
        break;
      case Op::kShrI:
        regs[ins.rd] = regs[ins.rs1] >> (static_cast<uint64_t>(ins.imm) & 63);
        break;

      case Op::kSandboxAddr:
        // The MiSFIT sandbox: force the address into the graft arena.
        regs[ins.rd] = ((regs[ins.rs1] + static_cast<uint64_t>(ins.imm)) &
                        regs[kSandboxMaskReg]) |
                       regs[kSandboxBaseReg];
        break;

      case Op::kLd8:
      case Op::kLd16:
      case Op::kLd32:
      case Op::kLd64: {
        const uint64_t addr = regs[ins.rs1] + static_cast<uint64_t>(ins.imm);
        // The load opcodes are contiguous and width-ordered, so the access
        // width is a shift — cheaper than a second switch on ins.op here in
        // the dispatch loop.
        static_assert(static_cast<int>(Op::kLd64) - static_cast<int>(Op::kLd8) == 3);
        const uint64_t width =
            uint64_t{1} << (static_cast<int>(ins.op) - static_cast<int>(Op::kLd8));
        if (!image->InBounds(addr, width)) {
          // In a real kernel this is a wild read that may fault or return
          // garbage; we surface it as a trap.
          outcome.status = Status::kSfiTrap;
          return outcome;
        }
        uint64_t v = 0;
        std::memcpy(&v, mem + addr, width);
        regs[ins.rd] = v;
        break;
      }
      case Op::kSt8:
      case Op::kSt16:
      case Op::kSt32:
      case Op::kSt64: {
        const uint64_t addr = regs[ins.rs1] + static_cast<uint64_t>(ins.imm);
        static_assert(static_cast<int>(Op::kSt64) - static_cast<int>(Op::kSt8) == 3);
        const uint64_t width =
            uint64_t{1} << (static_cast<int>(ins.op) - static_cast<int>(Op::kSt8));
        if (!image->InBounds(addr, width)) {
          outcome.status = Status::kSfiTrap;
          return outcome;
        }
        std::memcpy(mem + addr, &regs[ins.rs2], width);
        break;
      }

      case Op::kJmp:
        pc = static_cast<uint64_t>(ins.imm);
        break;
      case Op::kBeq:
        if (regs[ins.rs1] == regs[ins.rs2]) {
          pc = static_cast<uint64_t>(ins.imm);
        }
        break;
      case Op::kBne:
        if (regs[ins.rs1] != regs[ins.rs2]) {
          pc = static_cast<uint64_t>(ins.imm);
        }
        break;
      case Op::kBltU:
        if (regs[ins.rs1] < regs[ins.rs2]) {
          pc = static_cast<uint64_t>(ins.imm);
        }
        break;
      case Op::kBgeU:
        if (regs[ins.rs1] >= regs[ins.rs2]) {
          pc = static_cast<uint64_t>(ins.imm);
        }
        break;
      case Op::kBltS:
        if (static_cast<int64_t>(regs[ins.rs1]) < static_cast<int64_t>(regs[ins.rs2])) {
          pc = static_cast<uint64_t>(ins.imm);
        }
        break;
      case Op::kBgeS:
        if (static_cast<int64_t>(regs[ins.rs1]) >= static_cast<int64_t>(regs[ins.rs2])) {
          pc = static_cast<uint64_t>(ins.imm);
        }
        break;

      case Op::kCall:
      case Op::kCallR:
      case Op::kCheckedCallR: {
        uint32_t id = 0;
        if (ins.op == Op::kCall) {
          id = static_cast<uint32_t>(ins.imm);
        } else {
          id = static_cast<uint32_t>(regs[ins.rs1]);
        }
        // One probe serves both the callable check and the dispatch: the
        // entry's graft_callable bit mirrors callable-list membership, so
        // kCheckedCallR no longer pays a hash-table probe *and* a lookup.
        const HostCallTable::Entry* entry = host_->Lookup(id);
        if (ins.op == Op::kCheckedCallR &&
            (entry == nullptr || !entry->graft_callable)) {
          // Paper §3.3: "If the target function is not on the list, the
          // graft's transaction is aborted."
          outcome.status = Status::kSfiBadCall;
          return outcome;
        }
        if (entry == nullptr) {
          outcome.status = Status::kSfiTrap;  // Wild call.
          return outcome;
        }
        HostCallContext ctx;
        for (int i = 0; i < kMaxArgs; ++i) {
          ctx.args[static_cast<size_t>(i)] = regs[i];
        }
        ctx.image = image;
        ctx.identity = identity;
        Result<uint64_t> r = entry->fn(ctx);
        if (!r.ok()) {
          outcome.status = r.status();
          return outcome;
        }
        regs[0] = r.value();
        break;
      }

      default:
        outcome.status = Status::kSfiBadOpcode;
        return outcome;
    }
  }
}

}  // namespace vino
