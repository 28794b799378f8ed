#include "src/sfi/threaded_vm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>

#include "src/sfi/vm.h"

namespace vino {
namespace {

// Layout of the handler table ThreadedExec publishes.
constexpr size_t kNumOps = static_cast<size_t>(Op::kOpCount);
constexpr size_t kFastBase = 0;            // Fast stream, indexed by Op.
constexpr size_t kCheckedBase = kNumOps;   // Checked stream, indexed by Op.
constexpr size_t kBlockSlot = 2 * kNumOps;
constexpr size_t kFusedLoadBase = kBlockSlot + 1;   // kLd8..kLd64.
constexpr size_t kFusedStoreBase = kFusedLoadBase + 4;  // kSt8..kSt64.
constexpr size_t kNumHandlers = kFusedStoreBase + 4;

#if VINO_HAVE_COMPUTED_GOTO

// Branch targets and a block op's way back to the checked stream are held
// as op addresses in `imm`: following one is a single load, with no index
// arithmetic on the dispatch path. The op array never moves once built.
inline int64_t OpAddress(const ThreadedOp* op) {
  return static_cast<int64_t>(reinterpret_cast<intptr_t>(op));
}
inline const ThreadedOp* OpAt(int64_t address) {
  return reinterpret_cast<const ThreadedOp*>(static_cast<intptr_t>(address));
}

template <typename T>
inline uint64_t LoadAt(const uint8_t* mem, uint64_t addr) {
  T v;
  std::memcpy(&v, mem + addr, sizeof(v));
  return v;
}

template <typename T>
inline void StoreAt(uint8_t* mem, uint64_t addr, uint64_t value) {
  const T v = static_cast<T>(value);
  std::memcpy(mem + addr, &v, sizeof(v));
}

// What a host call needs besides the register file, kept in one stack
// object so the dispatch loop holds a frame address instead of three live
// values.
struct HostCallEnv {
  const HostCallTable* host;
  MemoryImage* image;
  CallerIdentity identity;
};

// Host call `id` with r0..r5 as arguments; on success the result lands in
// r0. Same contract as Tier 0's call path. Out of line so the call's
// plumbing does not compete with the dispatch loop for machine registers.
[[gnu::noinline]] Status HostCall(const HostCallEnv& env, uint32_t id,
                                  bool checked, uint64_t* regs) {
  const HostCallTable::Entry* entry = env.host->Lookup(id);
  if (checked && (entry == nullptr || !entry->graft_callable)) {
    // Paper §3.3 Rule 7: target not on the callable list → abort the
    // graft's transaction.
    return Status::kSfiBadCall;
  }
  if (entry == nullptr) {
    return Status::kSfiTrap;  // Wild call.
  }
  HostCallContext hctx;
  for (int i = 0; i < kMaxArgs; ++i) {
    hctx.args[static_cast<size_t>(i)] = regs[i];
  }
  hctx.image = env.image;
  hctx.identity = env.identity;
  Result<uint64_t> r = entry->fn(hctx);
  if (!r.ok()) {
    return r.status();
  }
  regs[0] = r.value();
  return Status::kOk;
}

// Every opcode's handler suffix, in Op enum order.
#define VINO_OPS(X)                                                        \
  X(nop) X(halt) X(loadimm) X(mov) X(add) X(sub) X(mul) X(divu) X(remu)    \
  X(and) X(or) X(xor) X(shl) X(shr) X(sar) X(addi) X(muli) X(andi) X(ori)  \
  X(xori) X(shli) X(shri) X(ld8) X(ld16) X(ld32) X(ld64) X(st8) X(st16)    \
  X(st32) X(st64) X(jmp) X(beq) X(bne) X(bltu) X(bgeu) X(blts) X(bges)     \
  X(call) X(callr) X(sandboxaddr) X(checkedcallr)

// The direct-threaded dispatch loop. Doubles as the handler-table oracle:
// called with `labels_out` non-null it only publishes the label array (the
// classic computed-goto bootstrap — label addresses exist only inside the
// function that declares them) and never touches the execution arguments.
//
// Dispatch is one fetch and one indirect jump; the charging lives in three
// places, and together they replicate the Tier-0 loop
// observable-for-observable:
//   * a block op charges its block's n instructions at once when
//     fuel >= n && until_poll > n, i.e. when Tier 0 would neither run dry
//     nor poll inside the block, and falls through into its first
//     instruction; otherwise it sends execution to the checked stream at
//     the block's leader;
//   * a branch runs that same test inline for the block it enters, so a
//     taken or untaken branch never dispatches a separate block op;
//   * a checked-stream op ticks exactly like Tier 0 — fuel test
//     (kSfiFuelExhausted), charge one unit, poll countdown; at zero, reset
//     and test the abort predicate (kTxnAborted), counting the charged but
//     unexecuted instruction as Tier 0 does — then runs the same handler
//     the fast stream uses. Its branches enter the fast stream again.
// Only a block's last instruction (halt, call, branch) can leave it, so a
// charged block always runs to its end. There is no pc bounds test: the
// verifier's structural proof (branch targets in range, terminal
// kHalt/kJmp) makes falling off either stream impossible. `instructions`
// is reconstructed from fuel spent at exit.
RunOutcome ThreadedExec(const CompiledProgram* cp, MemoryImage* image,
                        std::span<const uint64_t> args,
                        const RunOptions& options, uint32_t poll_interval,
                        const HostCallTable* host, CallerIdentity identity,
                        const void* const** labels_out) {
#define VINO_FAST_LABEL(name) &&h_##name,
#define VINO_CHECKED_LABEL(name) &&t_##name,
  static const void* const kLabels[] = {
      VINO_OPS(VINO_FAST_LABEL)           //
      VINO_OPS(VINO_CHECKED_LABEL)        //
      &&h_block,                          //
      &&h_sb_ld8, &&h_sb_ld16, &&h_sb_ld32, &&h_sb_ld64,
      &&h_sb_st8, &&h_sb_st16, &&h_sb_st32, &&h_sb_st64,
  };
#undef VINO_CHECKED_LABEL
#undef VINO_FAST_LABEL
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumHandlers,
                "handler table must cover every opcode, in enum order, "
                "for both streams");
  if (labels_out != nullptr) {
    *labels_out = kLabels;
    return RunOutcome{};
  }

  uint64_t regs[kNumRegisters] = {};
  const size_t argc = args.size() < kMaxArgs ? args.size() : kMaxArgs;
  for (size_t i = 0; i < argc; ++i) {
    regs[i] = args[i];
  }
  // Compiled programs are instrumented by construction (CompileThreaded
  // refuses anything else), so the sandbox registers are always live.
  regs[kSandboxMaskReg] = image->arena_mask();
  regs[kSandboxBaseReg] = image->arena_base();

  RunOutcome outcome;
  outcome.tier = ExecTier::kTier1;
  uint8_t* const mem = image->data();
  const HostCallEnv host_env{host, image, identity};
  // The op being executed; it starts on the fast stream's first block op.
  // Branch and block ops name their successors by address or by offset
  // from themselves, so no stream base has to stay live in a register.
  const ThreadedOp* op = cp->fast().data();
  uint64_t fuel = options.fuel;
  uint32_t until_poll = poll_interval;

#define VINO_DISPATCH() goto *op->handler
#define VINO_NEXT() \
  do {              \
    ++op;           \
    VINO_DISPATCH(); \
  } while (0)
  // A fused op also steps over its access's slot, which the fast stream
  // keeps so that every instruction has one.
#define VINO_SKIP_NEXT() \
  do {                   \
    op += 2;             \
    VINO_DISPATCH();     \
  } while (0)

  // Enter the block whose block op is `block_expr`: charge it whole, or
  // replay it on the checked stream.
#define VINO_ENTER(block_expr)                                     \
  do {                                                             \
    const ThreadedOp* const block = (block_expr);                  \
    const uint32_t n = block->aux;                                 \
    if (__builtin_expect(fuel >= n && until_poll > n, 1)) {        \
      fuel -= n;                                                   \
      until_poll -= n;                                             \
      op = block + 1;                                              \
    } else {                                                       \
      op = OpAt(block->imm);                                       \
    }                                                              \
    VINO_DISPATCH();                                               \
  } while (0)

#define VINO_BRANCH(cond) \
  VINO_ENTER((cond) ? OpAt(op->imm)                              \
                    : op + int64_t{static_cast<int32_t>(op->aux)})

#define VINO_TICK()                                      \
  do {                                                   \
    if (fuel == 0) goto exit_fuel;                       \
    --fuel;                                              \
    if (--until_poll == 0) {                             \
      until_poll = poll_interval;                        \
      if (options.abort_requested != nullptr &&          \
          options.abort_requested(options.abort_ctx)) {  \
        goto exit_abort;                                 \
      }                                                  \
    }                                                    \
  } while (0)

#define VINO_HOST_CALL(id_expr, checked_call)                           \
  do {                                                                  \
    const Status call_status =                                          \
        HostCall(host_env, (id_expr), (checked_call), regs);            \
    if (call_status != Status::kOk) {                                   \
      outcome.status = call_status;                                     \
      goto exit_done;                                                   \
    }                                                                   \
  } while (0)

  // The MiSFIT sandbox: force the address into the graft arena. Writes the
  // sandbox register and yields the masked address.
#define VINO_SANDBOX()                                                   \
  (regs[op->rd] = ((regs[op->rs1] + static_cast<uint64_t>(op->imm)) &    \
                   regs[kSandboxMaskReg]) |                              \
                  regs[kSandboxBaseReg])

  // A fused op's access address: its sandbox result plus the access offset.
#define VINO_FUSED_ADDR() \
  (VINO_SANDBOX() +       \
   static_cast<uint64_t>(int64_t{static_cast<int32_t>(op->aux)}))

  VINO_DISPATCH();  // The fast stream opens with the entry's block op.

h_block:
  VINO_ENTER(op);

h_nop:
  VINO_NEXT();
h_halt:
  outcome.ret = regs[0];
  outcome.status = Status::kOk;
  goto exit_done;

h_loadimm:
  regs[op->rd] = static_cast<uint64_t>(op->imm);
  VINO_NEXT();
h_mov:
  regs[op->rd] = regs[op->rs1];
  VINO_NEXT();

h_add:
  regs[op->rd] = regs[op->rs1] + regs[op->rs2];
  VINO_NEXT();
h_sub:
  regs[op->rd] = regs[op->rs1] - regs[op->rs2];
  VINO_NEXT();
h_mul:
  regs[op->rd] = regs[op->rs1] * regs[op->rs2];
  VINO_NEXT();
h_divu:
  regs[op->rd] = regs[op->rs2] == 0 ? 0 : regs[op->rs1] / regs[op->rs2];
  VINO_NEXT();
h_remu:
  regs[op->rd] = regs[op->rs2] == 0 ? 0 : regs[op->rs1] % regs[op->rs2];
  VINO_NEXT();
h_and:
  regs[op->rd] = regs[op->rs1] & regs[op->rs2];
  VINO_NEXT();
h_or:
  regs[op->rd] = regs[op->rs1] | regs[op->rs2];
  VINO_NEXT();
h_xor:
  regs[op->rd] = regs[op->rs1] ^ regs[op->rs2];
  VINO_NEXT();
h_shl:
  regs[op->rd] = regs[op->rs1] << (regs[op->rs2] & 63);
  VINO_NEXT();
h_shr:
  regs[op->rd] = regs[op->rs1] >> (regs[op->rs2] & 63);
  VINO_NEXT();
h_sar:
  regs[op->rd] = static_cast<uint64_t>(static_cast<int64_t>(regs[op->rs1]) >>
                                       (regs[op->rs2] & 63));
  VINO_NEXT();

h_addi:
  regs[op->rd] = regs[op->rs1] + static_cast<uint64_t>(op->imm);
  VINO_NEXT();
h_muli:
  regs[op->rd] = regs[op->rs1] * static_cast<uint64_t>(op->imm);
  VINO_NEXT();
h_andi:
  regs[op->rd] = regs[op->rs1] & static_cast<uint64_t>(op->imm);
  VINO_NEXT();
h_ori:
  regs[op->rd] = regs[op->rs1] | static_cast<uint64_t>(op->imm);
  VINO_NEXT();
h_xori:
  regs[op->rd] = regs[op->rs1] ^ static_cast<uint64_t>(op->imm);
  VINO_NEXT();
h_shli:
  regs[op->rd] = regs[op->rs1] << (static_cast<uint64_t>(op->imm) & 63);
  VINO_NEXT();
h_shri:
  regs[op->rd] = regs[op->rs1] >> (static_cast<uint64_t>(op->imm) & 63);
  VINO_NEXT();

  // Memory. No InBounds test: every reachable access carries the
  // verifier's in-sandbox proof — for Tier 1 that proof *is* the bounds
  // check. Width is baked into the handler, so no per-access width
  // computation either. Exact-width temporaries give loads the same
  // zero-extension as Tier 0's memcpy-into-zeroed-uint64.
#define VINO_ADDR() (regs[op->rs1] + static_cast<uint64_t>(op->imm))
h_ld8:
  regs[op->rd] = LoadAt<uint8_t>(mem, VINO_ADDR());
  VINO_NEXT();
h_ld16:
  regs[op->rd] = LoadAt<uint16_t>(mem, VINO_ADDR());
  VINO_NEXT();
h_ld32:
  regs[op->rd] = LoadAt<uint32_t>(mem, VINO_ADDR());
  VINO_NEXT();
h_ld64:
  regs[op->rd] = LoadAt<uint64_t>(mem, VINO_ADDR());
  VINO_NEXT();
h_st8:
  StoreAt<uint8_t>(mem, VINO_ADDR(), regs[op->rs2]);
  VINO_NEXT();
h_st16:
  StoreAt<uint16_t>(mem, VINO_ADDR(), regs[op->rs2]);
  VINO_NEXT();
h_st32:
  StoreAt<uint32_t>(mem, VINO_ADDR(), regs[op->rs2]);
  VINO_NEXT();
h_st64:
  StoreAt<uint64_t>(mem, VINO_ADDR(), regs[op->rs2]);
  VINO_NEXT();
#undef VINO_ADDR

  // Fused kSandboxAddr + access. The sandbox register is written first, so
  // an access whose rd/rs2 is that same register sees what the two-op
  // sequence would.
#define VINO_FUSED_LOAD(name, T)             \
  h_sb_##name : {                            \
    const uint64_t addr = VINO_FUSED_ADDR(); \
    regs[op->rt] = LoadAt<T>(mem, addr);     \
    VINO_SKIP_NEXT();                        \
  }
#define VINO_FUSED_STORE(name, T)              \
  h_sb_##name : {                              \
    const uint64_t addr = VINO_FUSED_ADDR();   \
    StoreAt<T>(mem, addr, regs[op->rt]);       \
    VINO_SKIP_NEXT();                          \
  }
  VINO_FUSED_LOAD(ld8, uint8_t)
  VINO_FUSED_LOAD(ld16, uint16_t)
  VINO_FUSED_LOAD(ld32, uint32_t)
  VINO_FUSED_LOAD(ld64, uint64_t)
  VINO_FUSED_STORE(st8, uint8_t)
  VINO_FUSED_STORE(st16, uint16_t)
  VINO_FUSED_STORE(st32, uint32_t)
  VINO_FUSED_STORE(st64, uint64_t)
#undef VINO_FUSED_STORE
#undef VINO_FUSED_LOAD

h_jmp:
  VINO_BRANCH(true);
h_beq:
  VINO_BRANCH(regs[op->rs1] == regs[op->rs2]);
h_bne:
  VINO_BRANCH(regs[op->rs1] != regs[op->rs2]);
h_bltu:
  VINO_BRANCH(regs[op->rs1] < regs[op->rs2]);
h_bgeu:
  VINO_BRANCH(regs[op->rs1] >= regs[op->rs2]);
h_blts:
  VINO_BRANCH(static_cast<int64_t>(regs[op->rs1]) <
              static_cast<int64_t>(regs[op->rs2]));
h_bges:
  VINO_BRANCH(static_cast<int64_t>(regs[op->rs1]) >=
              static_cast<int64_t>(regs[op->rs2]));

h_call:
  VINO_HOST_CALL(static_cast<uint32_t>(op->imm), false);
  VINO_NEXT();
h_callr:
  // A verified program has no *reachable* raw kCallR (the verifier rejects
  // them), but unreachable ones may survive in the stream; keep Tier-0
  // semantics in case a future caller compiles by other rules.
  VINO_HOST_CALL(static_cast<uint32_t>(regs[op->rs1]), false);
  VINO_NEXT();
h_checkedcallr:
  VINO_HOST_CALL(static_cast<uint32_t>(regs[op->rs1]), true);
  VINO_NEXT();

h_sandboxaddr:
  (void)VINO_SANDBOX();
  VINO_NEXT();

  // The checked stream: one trampoline per opcode, Tier 0's per-instruction
  // charge followed by the shared handler.
#define VINO_TRAMPOLINE(name) \
  t_##name:                   \
  VINO_TICK();                \
  goto h_##name;
  VINO_OPS(VINO_TRAMPOLINE)
#undef VINO_TRAMPOLINE

exit_fuel:
  outcome.status = Status::kSfiFuelExhausted;
  goto exit_done;
exit_abort:
  outcome.status = Status::kTxnAborted;
  goto exit_done;
exit_done:
  // One unit of fuel == one instruction, charged per block or per checked
  // op, so the count Tier 0 maintains per iteration falls out of the
  // arithmetic (the charged-but-not-executed instruction at an abort poll
  // is included, as in Tier 0).
  outcome.instructions = options.fuel - fuel;
  // Every exit funnels through here, so the final-register dump (armed
  // only by the differential tier test, as in Tier 0) needs no RAII guard
  // — which would pin the register file's address in a machine register
  // for the whole loop.
  if (options.final_regs != nullptr) {
    std::memcpy(options.final_regs, regs, sizeof(regs));
  }
  return outcome;

#undef VINO_FUSED_ADDR
#undef VINO_SANDBOX
#undef VINO_HOST_CALL
#undef VINO_TICK
#undef VINO_BRANCH
#undef VINO_ENTER
#undef VINO_SKIP_NEXT
#undef VINO_NEXT
#undef VINO_DISPATCH
}

#undef VINO_OPS

const void* const* HandlerTable() {
  static const void* const* const table = [] {
    const void* const* labels = nullptr;
    (void)ThreadedExec(nullptr, nullptr, {}, RunOptions{}, 0, nullptr, {},
                       &labels);
    return labels;
  }();
  return table;
}

// Per-opcode class bits for the compile loops, derived from isa.h's
// kOpClass: one table load classifies an opcode.
enum CompileClass : uint8_t {
  kEndsBlock = 1,  // Branch, call or halt: the next instruction leads.
  kIsBranch = 2,
  kIsAccess = 4,
  kIsLoad = 8,
  kIsSandbox = 16,
};
constexpr std::array<uint8_t, kNumOps> kCompileClass = [] {
  std::array<uint8_t, kNumOps> table{};
  for (size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    const bool branch = IsBranch(op);
    const bool load = IsLoad(op);
    const bool store = IsStore(op);
    table[i] = static_cast<uint8_t>(
        (branch || IsCall(op) || op == Op::kHalt ? kEndsBlock : 0) |
        (branch ? kIsBranch : 0) | (load || store ? kIsAccess : 0) |
        (load ? kIsLoad : 0) | (op == Op::kSandboxAddr ? kIsSandbox : 0));
  }
  return table;
}();
static_assert(kFusedStoreBase == kFusedLoadBase + 4 &&
                  Op::kSt8 == static_cast<Op>(static_cast<int>(Op::kLd8) + 4) &&
                  Op::kSt64 == static_cast<Op>(static_cast<int>(Op::kLd8) + 7),
              "fused handlers must mirror the kLd8..kSt64 order");

// The compile loop moves operands as one little-endian word laid out like
// ThreadedOp's rd, rs1, rs2, rt, aux: an Instruction's rd/rs1/rs2 sit right
// after its opcode, so one 4-byte load and a shift replace three byte moves.
static_assert(std::endian::native == std::endian::little);
static_assert(offsetof(Instruction, rd) == 1 &&
              offsetof(Instruction, rs1) == 2 &&
              offsetof(Instruction, rs2) == 3);
static_assert(offsetof(ThreadedOp, rs1) == offsetof(ThreadedOp, rd) + 1 &&
              offsetof(ThreadedOp, rs2) == offsetof(ThreadedOp, rd) + 2 &&
              offsetof(ThreadedOp, rt) == offsetof(ThreadedOp, rd) + 3 &&
              offsetof(ThreadedOp, aux) == offsetof(ThreadedOp, rd) + 4);

// rd | rs1 << 8 | rs2 << 16, with rt and aux zero.
inline uint64_t PackedOperands(const Instruction& ins) {
  uint32_t head;
  std::memcpy(&head, &ins, sizeof(head));
  return head >> 8;
}

inline void StoreOp(ThreadedOp* dst, const void* handler, uint64_t operands,
                    int64_t imm) {
  dst->handler = handler;
  std::memcpy(reinterpret_cast<unsigned char*>(dst) + offsetof(ThreadedOp, rd),
              &operands, sizeof(operands));
  dst->imm = imm;
}

// One bit per instruction, plus a spare word so the bit after the last
// instruction can be addressed: CompileThreaded's only scratch, kept on the
// stack. Clear(size) zeroes every word the compile loops touch.
struct PcBits {
  uint64_t words[kMaxThreadedInstructions / 64 + 1];

  void Clear(size_t size) { std::fill_n(words, size / 64 + 1, uint64_t{0}); }
  void Set(size_t pc) { words[pc / 64] |= uint64_t{1} << (pc % 64); }

  [[nodiscard]] bool Test(size_t pc) const {
    return ((words[pc / 64] >> (pc % 64)) & 1) != 0;
  }
  // Set bits strictly below pc within pc's word.
  [[nodiscard]] int CountInWordBelow(size_t pc) const {
    return std::popcount(words[pc / 64] & ((uint64_t{1} << (pc % 64)) - 1));
  }
  // The first set bit after pc; `size` when there is none (bits at and
  // past `size` must be clear).
  [[nodiscard]] size_t NextAfter(size_t pc, size_t size) const {
    size_t w = (pc + 1) / 64;
    uint64_t bits = words[w] & (~uint64_t{0} << ((pc + 1) % 64));
    while (bits == 0) {
      if (++w > size / 64) {
        return size;
      }
      bits = words[w];
    }
    return w * 64 + static_cast<size_t>(std::countr_zero(bits));
  }
};

#endif  // VINO_HAVE_COMPUTED_GOTO

}  // namespace

ThreadedOpInfo DescribeThreadedOp(const ThreadedOp& op) {
#if VINO_HAVE_COMPUTED_GOTO
  const void* const* labels = HandlerTable();
  for (size_t i = 0; i < kNumHandlers; ++i) {
    if (labels[i] != op.handler) {
      continue;
    }
    if (i < kCheckedBase) {
      return {ThreadedOpKind::kInstruction, static_cast<Op>(i - kFastBase)};
    }
    if (i < kBlockSlot) {
      return {ThreadedOpKind::kChecked, static_cast<Op>(i - kCheckedBase)};
    }
    if (i == kBlockSlot) {
      return {ThreadedOpKind::kBlock, Op::kNop};
    }
    return {ThreadedOpKind::kFused,
            static_cast<Op>(static_cast<size_t>(Op::kLd8) + i -
                            kFusedLoadBase)};
  }
#else
  (void)op;
#endif
  return {};
}

std::shared_ptr<const CompiledProgram> CompileThreaded(const Program& program) {
#if !VINO_HAVE_COMPUTED_GOTO
  (void)program;
  return nullptr;
#else
  // Tier-1 eligibility: the dropped checks are exactly the ones the
  // load-time proof covers, so no proof → no Tier-1 form.
  const std::span<const Instruction> code = program.code;
  const size_t size = code.size();
  if (!program.instrumented || !program.verified || size == 0 ||
      size > kMaxThreadedInstructions) {
    return nullptr;
  }
  const void* const* labels = HandlerTable();

  // Pass 1: validate, and mark block leaders — the entry, every branch
  // target, and whatever follows a branch, call or halt. VerifyProgram
  // already guarantees the operand checks for verified programs;
  // re-checking here keeps "compiled implies can't leave either stream" a
  // local property of this function rather than a cross-module trust
  // chain. Any violation downgrades to Tier 0, never UB.
  PcBits leaders;
  leaders.Clear(size);
  leaders.Set(0);
  for (size_t pc = 0; pc < size; ++pc) {
    const Instruction& ins = code[pc];
    if (static_cast<size_t>(ins.op) >= kNumOps ||
        (ins.rd | ins.rs1 | ins.rs2) >= kNumRegisters) {
      return nullptr;
    }
    const uint8_t cls = kCompileClass[static_cast<size_t>(ins.op)];
    if ((cls & kIsBranch) != 0) {
      if (ins.imm < 0 || static_cast<size_t>(ins.imm) >= size) {
        return nullptr;
      }
      leaders.Set(static_cast<size_t>(ins.imm));
    }
    if ((cls & kEndsBlock) != 0) {
      leaders.Set(pc + 1);
    }
  }
  const Op last = code.back().op;
  if (last != Op::kHalt && last != Op::kJmp) {
    return nullptr;  // No terminal instruction → pc could fall off the end.
  }
  leaders.words[size / 64] &= ~(uint64_t{1} << (size % 64));

  // Pass 2, per 64-instruction word: blocks_before[w] counts the leaders
  // before word w, which places any instruction's fast op in O(1).
  int32_t blocks_before[kMaxThreadedInstructions / 64 + 2];
  blocks_before[0] = 0;
  const size_t words = size / 64 + 1;
  for (size_t w = 0; w < words; ++w) {
    blocks_before[w + 1] = blocks_before[w] + std::popcount(leaders.words[w]);
  }

  // One allocation, exactly sized: the fast stream holds a block op per
  // leader and a slot per instruction.
  const size_t fast_size = size + static_cast<size_t>(blocks_before[words]);
  auto compiled = std::make_shared<CompiledProgram>();
  compiled->ops =
      std::make_unique_for_overwrite<ThreadedOp[]>(size + fast_size);
  compiled->code_size = size;
  compiled->fast_size = fast_size;
  ThreadedOp* const ops = compiled->ops.get();  // [checked][fast]
  // Leader t's block op: after every block op and instruction before t.
  const auto block_op_of = [=, &leaders, &blocks_before](size_t t) {
    return ops + size + t + blocks_before[t / 64] + leaders.CountInWordBelow(t);
  };

  // Pass 3: emit both streams. The checked op for pc goes to ops[pc], the
  // fast op to *fast. A kSandboxAddr followed, in its block, by a load or
  // store through the register it wrote (with an offset that fits aux)
  // becomes a fused op; the access keeps its now-unreachable slot, which
  // its own iteration fills. Operands move as one packed word
  // (PackedOperands). Branches in both streams aim at
  // fast-stream block ops: the taken target's and, for conditional
  // branches, the fall-through's, which in the fast stream is the very
  // next op. Block ops and branches are the rare cases; kept out of line,
  // they leave the hot loop its registers.
  const auto emit_block_op = [=, &leaders](size_t pc, ThreadedOp* at)
                                 __attribute__((noinline)) {
    StoreOp(at, labels[kBlockSlot],
            uint64_t{static_cast<uint32_t>(leaders.NextAfter(pc, size) - pc)}
                << 32,
            OpAddress(ops + pc));
  };
  const auto emit_branch = [=](size_t pc, ThreadedOp* at)
                               __attribute__((noinline)) {
    const Instruction& ins = code[pc];
    const size_t opcode = static_cast<size_t>(ins.op);
    const uint64_t operands = PackedOperands(ins);
    ThreadedOp* const target = block_op_of(static_cast<size_t>(ins.imm));
    // aux: the fall-through block op's offset; none for kJmp.
    const auto fall_through = [&](const ThreadedOp* from) {
      return ins.op == Op::kJmp
                 ? 0
                 : uint64_t{static_cast<uint32_t>(at + 1 - from)} << 32;
    };
    StoreOp(ops + pc, labels[kCheckedBase + opcode],
            operands | fall_through(ops + pc), OpAddress(target));
    StoreOp(at, labels[kFastBase + opcode], operands | fall_through(at),
            OpAddress(target));
  };
  ThreadedOp* fast = ops + size;
  for (size_t pc = 0; pc < size; ++pc, ++fast) {
    if (__builtin_expect(leaders.Test(pc), 0)) {
      emit_block_op(pc, fast);
      ++fast;
    }
    const Instruction& ins = code[pc];
    const size_t opcode = static_cast<size_t>(ins.op);
    if (__builtin_expect((kCompileClass[opcode] & kIsBranch) != 0, 0)) {
      emit_branch(pc, fast);
      continue;
    }
    const uint64_t operands = PackedOperands(ins);
    StoreOp(ops + pc, labels[kCheckedBase + opcode], operands, ins.imm);
    // The last instruction is a kHalt or kJmp, so a kSandboxAddr always
    // has a successor.
    if ((kCompileClass[opcode] & kIsSandbox) != 0 && !leaders.Test(pc + 1)) {
      const Instruction& access = code[pc + 1];
      const uint8_t access_cls = kCompileClass[static_cast<size_t>(access.op)];
      if ((access_cls & kIsAccess) != 0 && access.rs1 == ins.rd &&
          access.imm == int64_t{static_cast<int32_t>(access.imm)}) {
        // rt: the access's rd for a load, its rs2 for a store.
        const uint64_t rt =
            (access_cls & kIsLoad) != 0 ? access.rd : access.rs2;
        StoreOp(fast,
                labels[kFusedLoadBase + static_cast<size_t>(access.op) -
                       static_cast<size_t>(Op::kLd8)],
                operands | (rt << 24) |
                    (uint64_t{static_cast<uint32_t>(access.imm)} << 32),
                ins.imm);
        continue;
      }
    }
    StoreOp(fast, labels[kFastBase + opcode], operands, ins.imm);
  }
  return compiled;
#endif
}

RunOutcome ThreadedVm::Run(const Program& program, MemoryImage* image,
                           std::span<const uint64_t> args,
                           const RunOptions& options,
                           CallerIdentity identity) const {
  const CompiledProgram* compiled = program.compiled.get();
  // Fallback: no artifact (an unverified program, or a toolchain without
  // computed goto) → Tier 0. Never an error.
  if (compiled == nullptr || compiled->code_size != program.code.size()) {
    return Vm(host_).Run(program, image, args, options, identity);
  }
#if VINO_HAVE_COMPUTED_GOTO
  // Same poll_interval == 0 clamp as Vm::Run: "poll as often as possible",
  // not "never" (the countdown would otherwise wrap to ~4B instructions).
  const uint32_t poll_interval =
      options.poll_interval == 0 ? 1 : options.poll_interval;
  return ThreadedExec(compiled, image, args, options, poll_interval, host_,
                      identity, nullptr);
#else
  return Vm(host_).Run(program, image, args, options, identity);
#endif
}

}  // namespace vino
