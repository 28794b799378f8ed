// Unit tests for the sfi module's static pieces: ISA metadata, program
// verification, encode/decode, the builder and text assemblers, and the
// callable hash table.

#include <gtest/gtest.h>

#include "src/sfi/assembler.h"
#include "src/sfi/callable_table.h"
#include "src/sfi/host.h"
#include "src/sfi/isa.h"
#include "src/sfi/program.h"

namespace vino {
namespace {

TEST(IsaTest, OpNameRoundTrip) {
  for (size_t i = 0; i < static_cast<size_t>(Op::kOpCount); ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(OpFromName(OpName(op)), op) << "op " << i;
  }
  EXPECT_EQ(OpFromName("bogus"), Op::kOpCount);
}

TEST(IsaTest, Classification) {
  EXPECT_TRUE(IsLoad(Op::kLd32));
  EXPECT_FALSE(IsLoad(Op::kSt32));
  EXPECT_TRUE(IsStore(Op::kSt8));
  EXPECT_TRUE(IsBranch(Op::kJmp));
  EXPECT_TRUE(IsBranch(Op::kBeq));
  EXPECT_FALSE(IsBranch(Op::kCall));
  EXPECT_TRUE(WritesRd(Op::kAdd));
  EXPECT_FALSE(WritesRd(Op::kSt64));
  EXPECT_TRUE(ReadsRs2(Op::kSt64));  // Store value register.
}

TEST(IsaTest, CallClassification) {
  EXPECT_TRUE(IsCall(Op::kCall));
  EXPECT_TRUE(IsCall(Op::kCallR));
  EXPECT_TRUE(IsCall(Op::kCheckedCallR));
  EXPECT_FALSE(IsCall(Op::kJmp));
  EXPECT_FALSE(IsCall(Op::kSandboxAddr));
}

TEST(IsaTest, AccessWidth) {
  EXPECT_EQ(AccessWidth(Op::kLd8), 1u);
  EXPECT_EQ(AccessWidth(Op::kSt16), 2u);
  EXPECT_EQ(AccessWidth(Op::kLd32), 4u);
  EXPECT_EQ(AccessWidth(Op::kSt64), 8u);
  EXPECT_EQ(AccessWidth(Op::kAdd), 0u);
}

TEST(VerifyTest, EmptyProgramRejected) {
  Program p;
  EXPECT_EQ(VerifyProgram(p), Status::kBadGraft);
}

TEST(VerifyTest, MustEndInHaltOrJmp) {
  Program p;
  p.code.push_back(Instruction{Op::kAdd, 1, 2, 3, 0});
  EXPECT_EQ(VerifyProgram(p), Status::kBadGraft);
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_EQ(VerifyProgram(p), Status::kOk);
}

TEST(VerifyTest, BranchTargetOutOfRange) {
  Program p;
  p.code.push_back(Instruction{Op::kJmp, 0, 0, 0, 5});
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_EQ(VerifyProgram(p), Status::kBadGraft);
  p.code[0].imm = -1;
  EXPECT_EQ(VerifyProgram(p), Status::kBadGraft);
  p.code[0].imm = 1;
  EXPECT_EQ(VerifyProgram(p), Status::kOk);
}

TEST(VerifyTest, InstrumentationOpsForbiddenInRawPrograms) {
  Program p;
  p.code.push_back(Instruction{Op::kSandboxAddr, 14, 1, 0, 0});
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_EQ(VerifyProgram(p), Status::kSfiBadOpcode);
  p.instrumented = true;
  EXPECT_EQ(VerifyProgram(p), Status::kOk);
}

TEST(VerifyTest, RegisterIndexOutOfRange) {
  Program p;
  p.code.push_back(Instruction{Op::kAdd, 16, 0, 0, 0});
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_EQ(VerifyProgram(p), Status::kBadGraft);
}

TEST(EncodeTest, RoundTrip) {
  Asm a("roundtrip");
  auto loop = a.NewLabel();
  a.LoadImm(R1, 10);
  a.LoadImm(R2, 0);
  a.Bind(loop);
  a.AddI(R2, R2, 3);
  a.AddI(R1, R1, -1);
  a.LoadImm(R3, 0);
  a.Bne(R1, R3, loop);
  a.Mov(R0, R2);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());

  const std::vector<uint8_t> bytes = EncodeProgram(*p);
  Result<Program> decoded = DecodeProgram(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, p->name);
  EXPECT_EQ(decoded->code, p->code);
  EXPECT_EQ(decoded->instrumented, p->instrumented);
  EXPECT_EQ(decoded->direct_call_ids, p->direct_call_ids);
}

TEST(EncodeTest, ChunkedWriterMatchesEncodeProgramAtEveryBufferSize) {
  // The streamed signing path and EncodeProgram share one writer; any
  // buffer size, including ones that split the name or an instruction,
  // yields the same bytes.
  Asm a(std::string(40, 'n'));
  for (int i = 0; i < 50; ++i) {
    a.AddI(R1, R1, -i);
  }
  a.Call(7);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const std::vector<uint8_t> whole = EncodeProgram(*p);
  ASSERT_EQ(whole.size(), EncodedProgramSize(*p));
  for (const size_t size : {size_t{1}, size_t{7}, size_t{12}, size_t{64},
                            size_t{100}, whole.size(), whole.size() + 9}) {
    std::vector<uint8_t> buf(size);
    std::vector<uint8_t> streamed;
    EncodeProgramChunks(
        *p, buf,
        [](void* ctx, const uint8_t* data, size_t len) {
          auto* out = static_cast<std::vector<uint8_t>*>(ctx);
          out->insert(out->end(), data, data + len);
        },
        &streamed);
    EXPECT_EQ(streamed, whole) << "buffer " << size;
  }
}

TEST(EncodeTest, TruncatedBytesRejected) {
  Asm a("t");
  a.LoadImm(R0, 1);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> bytes = EncodeProgram(*p);
  bytes.pop_back();
  EXPECT_FALSE(DecodeProgram(bytes).ok());
}

TEST(EncodeTest, BadMagicRejected) {
  std::vector<uint8_t> bytes(32, 0);
  EXPECT_FALSE(DecodeProgram(bytes).ok());
}

namespace {
void PatchU32(std::vector<uint8_t>& bytes, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[pos + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (i * 8));
  }
}
}  // namespace

TEST(EncodeTest, DecodeBombCountsRejected) {
  // A tiny container whose attacker-controlled counts claim huge tables
  // must be refused before any resize — decoding a 50-byte file may not
  // allocate megabytes. Layout: magic, version, instrumented, sandbox_log2,
  // name_len("t"), name, call_count, code_count, code...
  Asm a("t");
  a.LoadImm(R0, 1);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const std::vector<uint8_t> good = EncodeProgram(*p);
  ASSERT_TRUE(DecodeProgram(good).ok());
  const size_t call_count_pos = 16 + 4 + p->name.size();
  const size_t code_count_pos = call_count_pos + 4;

  // call_count far beyond the bytes present (and beyond the hard cap).
  std::vector<uint8_t> bomb = good;
  PatchU32(bomb, call_count_pos, 0xffffffffu);
  EXPECT_FALSE(DecodeProgram(bomb).ok());

  // call_count under the 2^20 hard cap but over the remaining-bytes bound.
  bomb = good;
  PatchU32(bomb, call_count_pos, 1u << 16);
  EXPECT_FALSE(DecodeProgram(bomb).ok());

  // code_count claiming 2^24 instructions in a two-instruction file.
  bomb = good;
  PatchU32(bomb, code_count_pos, 1u << 24);
  EXPECT_FALSE(DecodeProgram(bomb).ok());

  // code_count under the cap but over what the bytes can hold.
  bomb = good;
  PatchU32(bomb, code_count_pos, 1u << 12);
  EXPECT_FALSE(DecodeProgram(bomb).ok());
}

TEST(AsmTest, UnboundLabelFails) {
  Asm a("bad");
  auto l = a.NewLabel();
  a.Jmp(l);
  a.Halt();
  EXPECT_FALSE(a.Finish().ok());
}

TEST(AsmTest, DirectCallsRecorded) {
  Asm a("calls");
  a.Call(3).Call(7).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->direct_call_ids, (std::vector<uint32_t>{3, 7}));
}

TEST(ProfileTest, CountsClasses) {
  Asm a("profile");
  a.Ld32(R1, R2).St32(R2, R1).Call(1).CallR(R3).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const ProgramProfile prof = ProfileProgram(*p);
  EXPECT_EQ(prof.total, 5u);
  EXPECT_EQ(prof.loads, 1u);
  EXPECT_EQ(prof.stores, 1u);
  EXPECT_EQ(prof.direct_calls, 1u);
  EXPECT_EQ(prof.indirect_calls, 1u);
}

// --- Text assembler ----------------------------------------------------

TEST(TextAsmTest, BasicProgram) {
  const char* src = R"(
    ; compute 6 * 7
    loadi r1, 6
    loadi r2, 7
    mul r0, r1, r2
    halt
  )";
  Result<Program> p = Assemble(src, "mul6x7", nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->code.size(), 4u);
  EXPECT_EQ(p->code[2].op, Op::kMul);
}

TEST(TextAsmTest, LabelsAndBranches) {
  const char* src = R"(
    loadi r1, 5
    loadi r0, 0
    loop:
      add r0, r0, r1
      addi r1, r1, -1
      loadi r2, 0
      bne r1, r2, loop
    halt
  )";
  Result<Program> p = Assemble(src, "sum", nullptr);
  ASSERT_TRUE(p.ok());
  // The bne must point at the instruction after the label (index 2).
  EXPECT_EQ(p->code[5].op, Op::kBne);
  EXPECT_EQ(p->code[5].imm, 2);
}

TEST(TextAsmTest, HexImmediatesAndComments) {
  const char* src = "loadi r1, 0xff  # hex\nandi r0, r1, 0x0f\nhalt\n";
  Result<Program> p = Assemble(src, "hex", nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->code[0].imm, 255);
  EXPECT_EQ(p->code[1].imm, 15);
}

TEST(TextAsmTest, CallByName) {
  HostCallTable host;
  const uint32_t id = host.Register(
      "kernel.noop", [](HostCallContext&) -> Result<uint64_t> { return 0ull; },
      /*graft_callable=*/true);
  Result<Program> p = Assemble("call kernel.noop\nhalt\n", "callbyname", &host);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->code[0].imm, static_cast<int64_t>(id));
  EXPECT_EQ(p->direct_call_ids, std::vector<uint32_t>{id});
}

TEST(TextAsmTest, UnknownHostFunctionFails) {
  HostCallTable host;
  EXPECT_FALSE(Assemble("call no.such.fn\nhalt\n", "bad", &host).ok());
}

TEST(TextAsmTest, SyntaxErrors) {
  EXPECT_FALSE(Assemble("frobnicate r1\nhalt\n", "bad", nullptr).ok());
  EXPECT_FALSE(Assemble("loadi r99, 1\nhalt\n", "bad", nullptr).ok());
  EXPECT_FALSE(Assemble("jmp nowhere\nhalt\n", "bad", nullptr).ok());
  EXPECT_FALSE(Assemble("dup:\ndup:\nhalt\n", "bad", nullptr).ok());
  // Instrumentation mnemonics cannot be hand-written.
  EXPECT_FALSE(Assemble("sandbox r14, r1\nhalt\n", "bad", nullptr).ok());
}

// --- Callable table ------------------------------------------------------

TEST(CallableTableTest, InsertContainsRemove) {
  CallableTable table;
  EXPECT_FALSE(table.Contains(5));
  table.Insert(5);
  EXPECT_TRUE(table.Contains(5));
  EXPECT_EQ(table.size(), 1u);
  table.Insert(5);  // Duplicate is a no-op.
  EXPECT_EQ(table.size(), 1u);
  table.Remove(5);
  EXPECT_FALSE(table.Contains(5));
  table.Remove(5);  // Removing absent key is a no-op.
}

TEST(CallableTableTest, GrowsPastInitialCapacity) {
  CallableTable table(16);
  for (uint64_t i = 1; i <= 1000; ++i) {
    table.Insert(i);
  }
  EXPECT_EQ(table.size(), 1000u);
  for (uint64_t i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(table.Contains(i)) << i;
  }
  EXPECT_FALSE(table.Contains(1001));
}

TEST(CallableTableTest, TombstonesDoNotBreakProbing) {
  CallableTable table(16);
  for (uint64_t i = 1; i <= 8; ++i) {
    table.Insert(i);
  }
  for (uint64_t i = 1; i <= 8; i += 2) {
    table.Remove(i);
  }
  for (uint64_t i = 2; i <= 8; i += 2) {
    EXPECT_TRUE(table.Contains(i)) << i;
  }
  for (uint64_t i = 1; i <= 8; i += 2) {
    EXPECT_FALSE(table.Contains(i)) << i;
  }
  // Reinsert into tombstoned slots.
  for (uint64_t i = 1; i <= 8; i += 2) {
    table.Insert(i);
    EXPECT_TRUE(table.Contains(i));
  }
}

// --- Host table ----------------------------------------------------------

TEST(HostTableTest, RegisterAndLookup) {
  HostCallTable host;
  const uint32_t id1 = host.Register(
      "a", [](HostCallContext&) -> Result<uint64_t> { return 1ull; }, true);
  const uint32_t id2 = host.Register(
      "b", [](HostCallContext&) -> Result<uint64_t> { return 2ull; }, false);
  EXPECT_NE(id1, id2);
  EXPECT_NE(host.Lookup(id1), nullptr);
  EXPECT_EQ(host.Lookup(id1)->name, "a");
  EXPECT_TRUE(host.IsCallable(id1));
  EXPECT_FALSE(host.IsCallable(id2));  // Registered but not graft-callable.
  EXPECT_FALSE(host.IsCallable(9999));
  EXPECT_EQ(host.Lookup(0), nullptr);
  EXPECT_EQ(host.Lookup(9999), nullptr);
  ASSERT_TRUE(host.IdOf("b").ok());
  EXPECT_EQ(host.IdOf("b").value(), id2);
  EXPECT_FALSE(host.IdOf("c").ok());
}

}  // namespace
}  // namespace vino
