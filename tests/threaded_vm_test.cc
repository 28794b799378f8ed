// The Tier-1 direct-threaded engine (src/sfi/threaded_vm.h):
//  * CompileThreaded's eligibility gate (instrumented + verified only) and
//    the fallback ladder (no artifact -> Tier 0, never an error);
//  * observable-for-observable parity with the Tier-0 interpreter across
//    ALU, memory, control flow, host calls, Rule-7 aborts, fuel
//    exhaustion, and the abort-poll cadence (including the poll_interval
//    == 0 clamp);
//  * concurrent invocations sharing one compiled artifact (the TSan stage
//    of tools/check.sh runs this binary).
// The randomized differential sweep lives in tests/property_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "src/sfi/assembler.h"
#include "src/sfi/isa.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

// The compiled artifact's structural invariants:
//  * the checked stream is 1:1 with the source (index == pc, same opcode);
//  * the fast stream is a sequence of blocks, each a block op naming its
//    leader's checked op and its length n, followed by one slot per
//    instruction; block lengths sum to the program length;
//  * a fused op sits in a kSandboxAddr's slot, with its access in the same
//    block;
//  * every branch, in either stream, lands on a fast-stream block op —
//    taken and (for conditional branches) fall-through alike.
// Returns the number of fused ops.
size_t ExpectStreamInvariants(const Program& program,
                              const CompiledProgram& compiled) {
  const std::span<const ThreadedOp> checked = compiled.checked();
  const std::span<const ThreadedOp> fast = compiled.fast();
  EXPECT_EQ(checked.size(), program.code.size());
  EXPECT_EQ(fast.data(), checked.data() + checked.size());
  // Indices below are into the one allocation holding [checked][fast].
  // Branch targets and a block op's leader are op addresses in imm; a
  // conditional branch's fall-through is an offset in aux.
  const ThreadedOp* const all = checked.data();
  const size_t total = checked.size() + fast.size();
  const auto index_of = [all](int64_t address) {
    return static_cast<size_t>(
        reinterpret_cast<const ThreadedOp*>(static_cast<intptr_t>(address)) -
        all);
  };
  const auto resolve = [](size_t at, int64_t offset) {
    return static_cast<size_t>(static_cast<int64_t>(at) + offset);
  };
  const auto is_fast_block = [&](size_t index) {
    return index >= checked.size() && index < total &&
           DescribeThreadedOp(all[index]).kind == ThreadedOpKind::kBlock;
  };
  const auto expect_branch_lands_on_blocks = [&](size_t at, Op opcode) {
    EXPECT_TRUE(is_fast_block(index_of(all[at].imm)))
        << "taken target of op " << at;
    if (opcode != Op::kJmp) {
      EXPECT_TRUE(is_fast_block(
          resolve(at, int64_t{static_cast<int32_t>(all[at].aux)})))
          << "fall-through target of op " << at;
    }
  };

  for (size_t pc = 0; pc < checked.size(); ++pc) {
    const ThreadedOpInfo info = DescribeThreadedOp(checked[pc]);
    EXPECT_EQ(info.kind, ThreadedOpKind::kChecked) << "pc " << pc;
    EXPECT_EQ(info.op, program.code[pc].op) << "pc " << pc;
    if (IsBranch(info.op)) {
      expect_branch_lands_on_blocks(pc, info.op);
    }
  }

  size_t pc = 0;
  size_t fused = 0;
  size_t at = checked.size();
  while (at < total && pc < program.code.size()) {
    const ThreadedOp& block = all[at];
    EXPECT_EQ(DescribeThreadedOp(block).kind, ThreadedOpKind::kBlock)
        << "op " << at << " should open the block of pc " << pc;
    EXPECT_EQ(index_of(block.imm), pc) << "block op " << at;
    EXPECT_GE(block.aux, 1u) << "block op " << at;
    const size_t end = pc + block.aux;
    ++at;
    for (; pc < end && at < total; ++pc, ++at) {
      const ThreadedOpInfo info = DescribeThreadedOp(all[at]);
      if (info.kind == ThreadedOpKind::kFused) {
        ++fused;
        EXPECT_EQ(program.code[pc].op, Op::kSandboxAddr) << "pc " << pc;
        EXPECT_LT(pc + 1, end) << "fused access leaves the block at " << pc;
        EXPECT_EQ(info.op, program.code[pc + 1].op) << "pc " << pc;
        continue;
      }
      EXPECT_EQ(info.kind, ThreadedOpKind::kInstruction) << "op " << at;
      EXPECT_EQ(info.op, program.code[pc].op) << "pc " << pc;
      if (IsBranch(info.op)) {
        expect_branch_lands_on_blocks(at, info.op);
      }
    }
  }
  EXPECT_EQ(pc, program.code.size()) << "block lengths must sum to the size";
  EXPECT_EQ(at, total) << "fast stream has ops past its last block";
  return fused;
}

// Instrument + verify + compile: the same pipeline the loader runs, so the
// program under test is a faithful Tier-1 citizen.
Program MakeTier1(const Program& raw, const HostCallTable* host = nullptr) {
  Result<Program> inst = Instrument(raw, MisfitOptions{16});
  EXPECT_TRUE(inst.ok());
  VerifierOptions voptions;
  voptions.host = host;
  const VerifierReport report = VerifySandbox(*inst, voptions);
  EXPECT_TRUE(report.ok()) << report.reason << " at pc " << report.fail_pc;
  Program p = *inst;
  p.verified = true;
  p.compiled = CompileThreaded(p);
  EXPECT_NE(p.compiled, nullptr);
  if (p.compiled != nullptr) {
    ExpectStreamInvariants(p, *p.compiled);
  }
  return p;
}

// Runs the same program+args on both tiers against identical fresh images
// and asserts every observable agrees. Returns the Tier-1 outcome.
RunOutcome AssertTierParity(const Program& tier1_program,
                            std::span<const uint64_t> args,
                            const RunOptions& base_options,
                            const HostCallTable* host) {
  Program tier0_program = tier1_program;
  tier0_program.compiled = nullptr;

  MemoryImage image0(8192, 16);
  MemoryImage image1(8192, 16);
  uint64_t regs0[kNumRegisters] = {};
  uint64_t regs1[kNumRegisters] = {};

  RunOptions options0 = base_options;
  options0.final_regs = regs0;
  RunOptions options1 = base_options;
  options1.final_regs = regs1;

  const Vm vm(host);
  const ThreadedVm tvm(host);
  const RunOutcome out0 = vm.Run(tier0_program, &image0, args, options0);
  const RunOutcome out1 = tvm.Run(tier1_program, &image1, args, options1);

  EXPECT_EQ(out1.status, out0.status);
  EXPECT_EQ(out1.ret, out0.ret);
  EXPECT_EQ(out1.instructions, out0.instructions);
  EXPECT_EQ(out0.tier, ExecTier::kTier0);
  EXPECT_EQ(out1.tier, ExecTier::kTier1);
  for (int i = 0; i < kNumRegisters; ++i) {
    EXPECT_EQ(regs1[i], regs0[i]) << "register r" << i << " diverged";
  }
  EXPECT_EQ(std::memcmp(image0.data(), image1.data(), image0.total_size()), 0)
      << "memory images diverged";
  return out1;
}

TEST(CompileThreadedTest, RequiresInstrumentedAndVerified) {
  Asm a("gate");
  a.LoadImm(R0, 7).Halt();
  Result<Program> raw = a.Finish();
  ASSERT_TRUE(raw.ok());

  // Uninstrumented: no Tier-1 form.
  EXPECT_EQ(CompileThreaded(*raw), nullptr);

  // Instrumented but unverified: still no Tier-1 form — the dropped checks
  // are exactly what the proof covers.
  Result<Program> inst = Instrument(*raw, MisfitOptions{16});
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(CompileThreaded(*inst), nullptr);

  // Verified: compiles, and the artifact has the two-stream shape.
  Program verified = *inst;
  ASSERT_TRUE(VerifySandbox(verified).ok());
  verified.verified = true;
  const auto compiled = CompileThreaded(verified);
  ASSERT_NE(compiled, nullptr);
  ExpectStreamInvariants(verified, *compiled);
}

TEST(CompileThreadedTest, EmptyProgramDoesNotCompile) {
  Program p;
  p.instrumented = true;
  p.verified = true;
  EXPECT_EQ(CompileThreaded(p), nullptr);
}

TEST(CompileThreadedTest, OversizedProgramDoesNotCompile) {
  // Past the length cap the compiler's on-stack scratch would overflow, so
  // the program stays on Tier 0 (the verifier's default cap is the same).
  Program p;
  p.instrumented = true;
  p.verified = true;
  p.code.assign(kMaxThreadedInstructions, Instruction{Op::kNop, 0, 0, 0, 0});
  p.code.back().op = Op::kHalt;
  EXPECT_NE(CompileThreaded(p), nullptr);
  p.code.back().op = Op::kNop;
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_EQ(CompileThreaded(p), nullptr);
}

TEST(ThreadedVmTest, FallsBackToTier0WithoutArtifact) {
  Asm a("fallback");
  a.LoadImm(R0, 41).AddI(R0, R0, 1).Halt();
  Result<Program> inst = Instrument(*a.Finish(), MisfitOptions{16});
  ASSERT_TRUE(inst.ok());
  Program p = *inst;
  ASSERT_TRUE(VerifySandbox(p).ok());
  p.verified = true;
  // Deliberately no CompileThreaded: the engine must run it anyway, on the
  // interpreter, and say so in the outcome.
  HostCallTable host;
  MemoryImage image(8192, 16);
  const ThreadedVm tvm(&host);
  const RunOutcome out = tvm.Run(p, &image, {}, RunOptions{});
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.ret, 42u);
  EXPECT_EQ(out.tier, ExecTier::kTier0);
}

TEST(ThreadedVmTest, AluAndMemoryParity) {
  HostCallTable host;
  Asm a("alu-mem");
  a.LoadImm(R1, 3);
  a.LoadImm(R2, 1000);
  for (int i = 0; i < 12; ++i) {
    a.Mul(R3, R1, R2);
    a.Sub(R3, R3, R1);
    a.ShrI(R4, R3, 2);
    a.St64(R2, R3, 64 + i * 8);
    a.Ld64(R5, R2, 64 + i * 8);
    a.Add(R0, R0, R5);
    a.St16(R2, R4, 512 + i * 2);
    a.Ld8(R6, R2, 512 + i * 2);
    a.Xor(R0, R0, R6);
  }
  a.Halt();
  const Program p = MakeTier1(*a.Finish(), &host);
  const uint64_t args[2] = {11, 22};
  const RunOutcome out = AssertTierParity(p, args, RunOptions{}, &host);
  EXPECT_EQ(out.status, Status::kOk);
}

TEST(ThreadedVmTest, ControlFlowAndDivByZeroParity) {
  HostCallTable host;
  Asm a("loops");
  auto top = a.NewLabel();
  auto out_label = a.NewLabel();
  a.LoadImm(R1, 50);   // Counter.
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 7);
  a.Bind(top);
  a.AddI(R1, R1, -1);
  a.Add(R0, R0, R1);
  a.DivU(R4, R0, R2);  // Division by zero -> 0, both tiers.
  a.RemU(R5, R0, R2);
  a.BltS(R1, R3, out_label);
  a.Jmp(top);
  a.Bind(out_label);
  a.Halt();
  const RunOutcome out =
      AssertTierParity(MakeTier1(*a.Finish(), &host), {}, RunOptions{}, &host);
  EXPECT_EQ(out.status, Status::kOk);
}

TEST(ThreadedVmTest, HostCallSequenceAndRule7Parity) {
  // Two recording host tables (one per tier) observe the *sequence* of
  // calls and their first argument; the sequences must be identical.
  struct Recorder {
    HostCallTable host;
    std::vector<uint64_t> calls;
    uint32_t ok_id = 0;
    uint32_t hostile_id = 0;
    Recorder() {
      ok_id = host.Register(
          "t.record",
          [this](HostCallContext& ctx) -> Result<uint64_t> {
            calls.push_back(ctx.args[0]);
            return ctx.args[0] * 2;
          },
          true);
      hostile_id = host.Register(
          "t.hostile",
          [](HostCallContext&) -> Result<uint64_t> { return 99ull; },
          /*graft_callable=*/false);
    }
  };
  Recorder rec0;
  Recorder rec1;
  ASSERT_EQ(rec0.ok_id, rec1.ok_id);
  ASSERT_EQ(rec0.hostile_id, rec1.hostile_id);

  // Calls the recorder three times (indirect, so instrumentation rewrites
  // to kCheckedCallR), then hits the non-callable id: Rule 7 abort.
  Asm a("caller");
  a.LoadImm(R1, rec0.ok_id);
  a.LoadImm(R0, 5);
  a.CallR(R1);
  a.CallR(R1);
  a.CallR(R1);
  a.LoadImm(R1, rec0.hostile_id);
  a.CallR(R1);  // kSfiBadCall on both tiers.
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish(), MisfitOptions{16});
  ASSERT_TRUE(inst.ok());
  Program p = *inst;
  VerifierOptions voptions;
  voptions.host = &rec0.host;
  ASSERT_TRUE(VerifySandbox(p, voptions).ok());
  p.verified = true;
  p.compiled = CompileThreaded(p);
  ASSERT_NE(p.compiled, nullptr);

  Program tier0 = p;
  tier0.compiled = nullptr;
  MemoryImage image0(8192, 16);
  MemoryImage image1(8192, 16);
  const RunOutcome out0 = Vm(&rec0.host).Run(tier0, &image0, {}, RunOptions{});
  const RunOutcome out1 =
      ThreadedVm(&rec1.host).Run(p, &image1, {}, RunOptions{});
  EXPECT_EQ(out0.status, Status::kSfiBadCall);
  EXPECT_EQ(out1.status, Status::kSfiBadCall);
  EXPECT_EQ(out1.instructions, out0.instructions);
  EXPECT_EQ(rec1.calls, rec0.calls);
  EXPECT_EQ(rec1.calls.size(), 3u);
  // r0 threads through the calls: 5 -> 10 -> 20 -> 40.
  EXPECT_EQ(rec1.calls.back(), 20u);
}

TEST(ThreadedVmTest, HostCallErrorStatusParity) {
  auto make_host = [](HostCallTable& host) {
    return host.Register(
        "t.fail",
        [](HostCallContext&) -> Result<uint64_t> {
          return Status::kLimitExceeded;
        },
        true);
  };
  HostCallTable host0;
  HostCallTable host1;
  const uint32_t id = make_host(host0);
  ASSERT_EQ(id, make_host(host1));

  Asm a("failer");
  a.LoadImm(R1, id);
  a.CallR(R1);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish(), MisfitOptions{16});
  ASSERT_TRUE(inst.ok());
  Program p = *inst;
  VerifierOptions voptions;
  voptions.host = &host0;
  ASSERT_TRUE(VerifySandbox(p, voptions).ok());
  p.verified = true;
  p.compiled = CompileThreaded(p);
  ASSERT_NE(p.compiled, nullptr);

  Program tier0 = p;
  tier0.compiled = nullptr;
  MemoryImage image0(8192, 16);
  MemoryImage image1(8192, 16);
  const RunOutcome out0 = Vm(&host0).Run(tier0, &image0, {}, RunOptions{});
  const RunOutcome out1 = ThreadedVm(&host1).Run(p, &image1, {}, RunOptions{});
  EXPECT_EQ(out0.status, Status::kLimitExceeded);
  EXPECT_EQ(out1.status, out0.status);
  EXPECT_EQ(out1.instructions, out0.instructions);
}

TEST(ThreadedVmTest, FuelExhaustionParity) {
  HostCallTable host;
  Asm a("spinner");
  auto top = a.NewLabel();
  a.LoadImm(R1, 1);
  a.Bind(top);
  a.Add(R2, R2, R1);
  a.Jmp(top);
  const Program p = MakeTier1(*a.Finish(), &host);

  for (const uint64_t fuel : {0ull, 1ull, 2ull, 97ull, 1000ull}) {
    RunOptions options;
    options.fuel = fuel;
    const RunOutcome out = AssertTierParity(p, {}, options, &host);
    EXPECT_EQ(out.status, Status::kSfiFuelExhausted) << "fuel=" << fuel;
    EXPECT_EQ(out.instructions, fuel) << "fuel=" << fuel;
  }
}

// Counting abort predicate: returns true after N polls, so the program
// stops mid-flight and the poll cadence itself becomes observable.
struct PollCounter {
  uint64_t polls = 0;
  uint64_t trip_after = 0;  // 0 = never trip.
  static bool Predicate(void* ctx) {
    auto* self = static_cast<PollCounter*>(ctx);
    ++self->polls;
    return self->trip_after != 0 && self->polls >= self->trip_after;
  }
};

TEST(ThreadedVmTest, AbortPollCadenceParity) {
  HostCallTable host;
  Asm a("pollee");
  auto top = a.NewLabel();
  a.LoadImm(R1, 1);
  a.Bind(top);
  a.Add(R2, R2, R1);
  a.Jmp(top);
  const Program p = MakeTier1(*a.Finish(), &host);
  Program tier0 = p;
  tier0.compiled = nullptr;

  for (const uint32_t interval : {1u, 7u, 64u}) {
    PollCounter c0;
    PollCounter c1;
    c0.trip_after = c1.trip_after = 5;
    RunOptions options;
    options.poll_interval = interval;
    options.abort_requested = &PollCounter::Predicate;

    MemoryImage image0(8192, 16);
    options.abort_ctx = &c0;
    const RunOutcome out0 = Vm(&host).Run(tier0, &image0, {}, options);
    MemoryImage image1(8192, 16);
    options.abort_ctx = &c1;
    const RunOutcome out1 = ThreadedVm(&host).Run(p, &image1, {}, options);

    EXPECT_EQ(out0.status, Status::kTxnAborted) << "interval=" << interval;
    EXPECT_EQ(out1.status, out0.status) << "interval=" << interval;
    EXPECT_EQ(out1.instructions, out0.instructions) << "interval=" << interval;
    EXPECT_EQ(c1.polls, c0.polls) << "interval=" << interval;
    EXPECT_EQ(c1.polls, 5u) << "interval=" << interval;
  }
}

// Block charging must be invisible: at every fuel budget from 1 to one
// past the run's length, and every poll interval from 1 to two past the
// longest block, Tier 1 stops where Tier 0 stops, with the same registers,
// memory, host-call sequence and abort-predicate calls. The loop body
// spans several blocks (a host call ends one), holds fused and elided
// accesses, and is re-entered from the checked stream whenever a block
// test fails.
TEST(ThreadedVmTest, BlockBoundaryParitySweep) {
  struct Recorder {
    HostCallTable host;
    std::vector<uint64_t> calls;
    uint32_t id = 0;
    Recorder() {
      id = host.Register(
          "t.record",
          [this](HostCallContext& ctx) -> Result<uint64_t> {
            calls.push_back(ctx.args[0]);
            return ctx.args[0] + 3;
          },
          true);
    }
  };
  Recorder rec0;
  Recorder rec1;
  ASSERT_EQ(rec0.id, rec1.id);

  Asm a("sweep");
  auto top = a.NewLabel();
  a.LoadImm(R1, 0);       // Counter.
  a.LoadImm(R2, 5);       // Iterations.
  a.LoadImm(R5, 0x40);
  a.LoadImm(R6, rec0.id);
  a.Bind(top);
  a.Add(R3, R1, R5);
  a.St64(R3, R1, 16);     // Sandboxed + fused.
  a.Ld64(R4, R3, 16);     // Mask elided: a plain access through r14.
  a.Xor(R0, R0, R4);
  a.Ld8(R7, R5, 3);       // Fused again.
  a.Add(R0, R0, R7);
  a.CallR(R6);            // Ends a block; r0 -> r0 + 3.
  a.AddI(R1, R1, 1);
  a.BltU(R1, R2, top);
  a.Halt();
  const Program p = MakeTier1(*a.Finish(), &rec0.host);
  Program tier0 = p;
  tier0.compiled = nullptr;

  EXPECT_EQ(ExpectStreamInvariants(p, *p.compiled), 2u);  // st64 and ld8.
  uint32_t longest_block = 0;
  for (const ThreadedOp& op : p.compiled->fast()) {
    if (DescribeThreadedOp(op).kind == ThreadedOpKind::kBlock) {
      longest_block = std::max(longest_block, op.aux);
    }
  }
  ASSERT_GE(longest_block, 4u);

  RunOutcome full;
  {
    MemoryImage image(8192, 16);
    full = Vm(&rec0.host).Run(tier0, &image, {}, RunOptions{});
    ASSERT_EQ(full.status, Status::kOk);
  }

  for (uint64_t fuel = 1; fuel <= full.instructions + 1; ++fuel) {
    for (uint32_t interval = 1; interval <= longest_block + 2; ++interval) {
      for (const uint64_t trip_after : {uint64_t{0}, uint64_t{2}}) {
        SCOPED_TRACE(testing::Message() << "fuel=" << fuel << " interval="
                                        << interval << " trip=" << trip_after);
        PollCounter c0;
        PollCounter c1;
        c0.trip_after = c1.trip_after = trip_after;
        rec0.calls.clear();
        rec1.calls.clear();
        uint64_t regs0[kNumRegisters] = {};
        uint64_t regs1[kNumRegisters] = {};
        RunOptions options;
        options.fuel = fuel;
        options.poll_interval = interval;
        options.abort_requested = &PollCounter::Predicate;

        MemoryImage image0(8192, 16);
        options.abort_ctx = &c0;
        options.final_regs = regs0;
        const RunOutcome out0 = Vm(&rec0.host).Run(tier0, &image0, {}, options);
        MemoryImage image1(8192, 16);
        options.abort_ctx = &c1;
        options.final_regs = regs1;
        const RunOutcome out1 =
            ThreadedVm(&rec1.host).Run(p, &image1, {}, options);

        EXPECT_EQ(out1.tier, ExecTier::kTier1);
        EXPECT_EQ(out1.status, out0.status);
        EXPECT_EQ(out1.instructions, out0.instructions);
        EXPECT_EQ(out1.ret, out0.ret);
        EXPECT_EQ(c1.polls, c0.polls);
        EXPECT_EQ(rec1.calls, rec0.calls);
        EXPECT_EQ(std::memcmp(regs0, regs1, sizeof(regs0)), 0);
        EXPECT_EQ(
            std::memcmp(image0.data(), image1.data(), image0.total_size()), 0);
        if (HasFailure()) {
          return;
        }
      }
    }
  }
}

// The fused op must write the sandbox register before the access reads or
// writes through it: a load whose rd is the sandbox op's destination ends
// with the loaded value, and a store whose rs2 is that destination stores
// the masked address. Hand-built (MiSFIT only ever sandboxes into r14) and
// verified, so it is a legitimate Tier-1 program.
TEST(ThreadedVmTest, FusedOpWriteOrder) {
  Program p;
  p.name = "fused-order";
  p.instrumented = true;
  p.sandbox_log2 = 16;
  p.code = {
      {Op::kLoadImm, 1, 0, 0, 128},
      {Op::kLoadImm, 3, 0, 0, 0xabcdef},
      {Op::kSandboxAddr, kSandboxAddrReg, 1, 0, 0},
      {Op::kSt64, 0, kSandboxAddrReg, 3, 0},   // mem[a] = 0xabcdef
      {Op::kSandboxAddr, 3, 1, 0, 0},
      {Op::kLd64, 3, 3, 0, 0},                 // rd == sandbox rd
      {Op::kSandboxAddr, 4, 1, 0, 8},
      {Op::kSt64, 0, 4, 4, 0},                 // rs2 == sandbox rd
      {Op::kSandboxAddr, 5, 1, 0, 8},
      {Op::kLd64, 0, 5, 0, 0},                 // r0 = the stored address
      {Op::kHalt, 0, 0, 0, 0},
  };
  const VerifierReport report = VerifySandbox(p);
  ASSERT_TRUE(report.ok()) << report.reason << " at pc " << report.fail_pc;
  p.verified = true;
  p.compiled = CompileThreaded(p);
  ASSERT_NE(p.compiled, nullptr);
  EXPECT_EQ(ExpectStreamInvariants(p, *p.compiled), 4u);

  HostCallTable host;
  uint64_t regs[kNumRegisters] = {};
  RunOptions options;
  options.final_regs = regs;
  const RunOutcome out = AssertTierParity(p, {}, options, &host);
  ASSERT_EQ(out.status, Status::kOk);
  MemoryImage image(8192, 16);
  (void)ThreadedVm(&host).Run(p, &image, {}, options);
  EXPECT_EQ(regs[3], 0xabcdefu);
  EXPECT_EQ(out.ret, regs[4]);
  EXPECT_EQ(regs[4], image.arena_base() + 136);
}

TEST(ThreadedVmTest, PollIntervalZeroClampsToEveryInstruction) {
  // The PR 6 regression: poll_interval == 0 means "poll constantly", not
  // "poll after ~4B instructions". Tier 1 must clamp exactly like Tier 0.
  HostCallTable host;
  Asm a("clampee");
  auto top = a.NewLabel();
  a.LoadImm(R1, 1);
  a.Bind(top);
  a.Add(R2, R2, R1);
  a.Jmp(top);
  const Program p = MakeTier1(*a.Finish(), &host);

  PollCounter counter;
  counter.trip_after = 3;
  RunOptions options;
  options.poll_interval = 0;
  options.abort_requested = &PollCounter::Predicate;
  options.abort_ctx = &counter;
  MemoryImage image(8192, 16);
  const RunOutcome out = ThreadedVm(&host).Run(p, &image, {}, options);
  EXPECT_EQ(out.status, Status::kTxnAborted);
  EXPECT_EQ(out.tier, ExecTier::kTier1);
  // Clamped to every instruction: tripped at the 3rd dispatch.
  EXPECT_EQ(out.instructions, 3u);
  EXPECT_EQ(counter.polls, 3u);
}

TEST(ThreadedVmTest, ConcurrentRunsShareOneCompiledArtifact) {
  // One compiled artifact, many threads, each with its own image — the
  // graft-point situation. An atomic stop flag doubles as the abort
  // predicate so the test also races abort delivery against dispatch
  // (the check.sh TSan stage runs this).
  HostCallTable host;
  Asm a("shared");
  auto top = a.NewLabel();
  a.LoadImm(R1, 1);
  a.Bind(top);
  a.Add(R2, R2, R1);
  a.St64(R3, R2, 128);
  a.Ld64(R4, R3, 128);
  a.Jmp(top);
  const Program p = MakeTier1(*a.Finish(), &host);

  std::atomic<bool> stop{false};
  auto predicate = [](void* ctx) {
    return static_cast<std::atomic<bool>*>(ctx)->load(
        std::memory_order_relaxed);
  };
  const ThreadedVm tvm(&host);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> aborted{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      MemoryImage image(8192, 16);
      RunOptions options;
      options.poll_interval = 8;
      options.abort_requested = predicate;
      options.abort_ctx = &stop;
      const RunOutcome out = tvm.Run(p, &image, {}, options);
      if (out.status == Status::kTxnAborted) {
        aborted.fetch_add(1, std::memory_order_relaxed);
      }
      EXPECT_EQ(out.tier, ExecTier::kTier1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(aborted.load(), kThreads);
}

TEST(ExecEngineTest, TierNames) {
  EXPECT_EQ(ExecTierName(ExecTier::kTier0), "tier0");
  EXPECT_EQ(ExecTierName(ExecTier::kTier1), "tier1");
}

}  // namespace
}  // namespace vino
