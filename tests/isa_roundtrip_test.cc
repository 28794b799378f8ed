// Systematic per-opcode coverage: every assemblable opcode is executed by
// the VM, disassembled, re-assembled, and encode/decode round-tripped.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "src/sfi/assembler.h"
#include "src/sfi/disasm.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

// One operand-shape exemplar per opcode (branches point at the final halt).
Instruction Exemplar(Op op, int64_t branch_target) {
  switch (op) {
    case Op::kNop:
    case Op::kHalt:
      return {op, 0, 0, 0, 0};
    case Op::kLoadImm:
      return {op, 1, 0, 0, -42};
    case Op::kMov:
      return {op, 1, 2, 0, 0};
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDivU:
    case Op::kRemU:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kSar:
      return {op, 1, 2, 3, 0};
    case Op::kAddI:
    case Op::kMulI:
    case Op::kAndI:
    case Op::kOrI:
    case Op::kXorI:
    case Op::kShlI:
    case Op::kShrI:
      return {op, 1, 2, 0, 5};
    case Op::kLd8:
    case Op::kLd16:
    case Op::kLd32:
    case Op::kLd64:
      return {op, 1, 2, 0, 8};
    case Op::kSt8:
    case Op::kSt16:
    case Op::kSt32:
    case Op::kSt64:
      return {op, 0, 2, 3, 8};
    case Op::kJmp:
      return {op, 0, 0, 0, branch_target};
    case Op::kBeq:
    case Op::kBne:
    case Op::kBltU:
    case Op::kBgeU:
    case Op::kBltS:
    case Op::kBgeS:
      return {op, 0, 1, 2, branch_target};
    case Op::kCall:
      return {op, 0, 0, 0, 1};
    case Op::kCallR:
      return {op, 0, 3, 0, 0};  // r3 holds the callable id (1).
    default:
      return {Op::kNop, 0, 0, 0, 0};
  }
}

bool Assemblable(Op op) {
  return op != Op::kSandboxAddr && op != Op::kCheckedCallR && op != Op::kOpCount;
}

class OpRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(OpRoundTripTest, DisassembleReassembleEncodeDecode) {
  const Op op = static_cast<Op>(GetParam());
  if (!Assemblable(op)) {
    GTEST_SKIP() << "instrumentation-only opcode";
  }

  HostCallTable host;
  host.Register("k.one", [](HostCallContext&) -> Result<uint64_t> { return 1ull; },
                true);

  // Program: setup registers with arena addresses, the exemplar, halt.
  MemoryImage image(4096, 16);
  Program p;
  p.name = "op-" + std::string(OpName(op));
  p.code.push_back(
      {Op::kLoadImm, 1, 0, 0, static_cast<int64_t>(image.arena_base())});
  p.code.push_back(
      {Op::kLoadImm, 2, 0, 0, static_cast<int64_t>(image.arena_base() + 64)});
  p.code.push_back({Op::kLoadImm, 3, 0, 0, 1});  // Also the callable id.
  const auto halt_index = static_cast<int64_t>(p.code.size() + 1);
  p.code.push_back(Exemplar(op, halt_index));
  p.code.push_back({Op::kHalt, 0, 0, 0, 0});
  ASSERT_EQ(VerifyProgram(p), Status::kOk);

  // Executes cleanly (r1/r2 hold in-arena addresses; call id 1 registered).
  Vm vm(&image, &host);
  EXPECT_EQ(vm.Run(p, {}, RunOptions{}).status, Status::kOk) << OpName(op);

  // Disassemble -> reassemble -> identical code.
  DisasmOptions options;
  options.host = &host;
  const std::string text = Disassemble(p, options);
  Result<Program> reassembled = Assemble(text, p.name, &host);
  ASSERT_TRUE(reassembled.ok()) << OpName(op) << "\n" << text;
  EXPECT_EQ(reassembled->code, p.code) << OpName(op) << "\n" << text;

  // Encode -> decode -> identical.
  Result<Program> decoded = DecodeProgram(EncodeProgram(p));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, p.code);
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpRoundTripTest,
                         ::testing::Range(0, static_cast<int>(Op::kOpCount)),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name(OpName(static_cast<Op>(param_info.param)));
                           for (char& c : name) {
                             if (c == '?' ) {
                               c = 'X';
                             }
                           }
                           return name;
                         });

// The op-class table in isa.h, checked against an independent hand-written
// listing of every opcode's operand use and class.
struct ExpectedClass {
  Op op;
  bool reads_rs1, reads_rs2, writes_rd, load, store, branch, call;
};

constexpr ExpectedClass kExpectedClasses[] = {
    // op               rs1    rs2    rd     load   store  branch call
    {Op::kNop,          false, false, false, false, false, false, false},
    {Op::kHalt,         false, false, false, false, false, false, false},
    {Op::kLoadImm,      false, false, true,  false, false, false, false},
    {Op::kMov,          true,  false, true,  false, false, false, false},
    {Op::kAdd,          true,  true,  true,  false, false, false, false},
    {Op::kSub,          true,  true,  true,  false, false, false, false},
    {Op::kMul,          true,  true,  true,  false, false, false, false},
    {Op::kDivU,         true,  true,  true,  false, false, false, false},
    {Op::kRemU,         true,  true,  true,  false, false, false, false},
    {Op::kAnd,          true,  true,  true,  false, false, false, false},
    {Op::kOr,           true,  true,  true,  false, false, false, false},
    {Op::kXor,          true,  true,  true,  false, false, false, false},
    {Op::kShl,          true,  true,  true,  false, false, false, false},
    {Op::kShr,          true,  true,  true,  false, false, false, false},
    {Op::kSar,          true,  true,  true,  false, false, false, false},
    {Op::kAddI,         true,  false, true,  false, false, false, false},
    {Op::kMulI,         true,  false, true,  false, false, false, false},
    {Op::kAndI,         true,  false, true,  false, false, false, false},
    {Op::kOrI,          true,  false, true,  false, false, false, false},
    {Op::kXorI,         true,  false, true,  false, false, false, false},
    {Op::kShlI,         true,  false, true,  false, false, false, false},
    {Op::kShrI,         true,  false, true,  false, false, false, false},
    {Op::kLd8,          true,  false, true,  true,  false, false, false},
    {Op::kLd16,         true,  false, true,  true,  false, false, false},
    {Op::kLd32,         true,  false, true,  true,  false, false, false},
    {Op::kLd64,         true,  false, true,  true,  false, false, false},
    {Op::kSt8,          true,  true,  false, false, true,  false, false},
    {Op::kSt16,         true,  true,  false, false, true,  false, false},
    {Op::kSt32,         true,  true,  false, false, true,  false, false},
    {Op::kSt64,         true,  true,  false, false, true,  false, false},
    {Op::kJmp,          false, false, false, false, false, true,  false},
    {Op::kBeq,          true,  true,  false, false, false, true,  false},
    {Op::kBne,          true,  true,  false, false, false, true,  false},
    {Op::kBltU,         true,  true,  false, false, false, true,  false},
    {Op::kBgeU,         true,  true,  false, false, false, true,  false},
    {Op::kBltS,         true,  true,  false, false, false, true,  false},
    {Op::kBgeS,         true,  true,  false, false, false, true,  false},
    {Op::kCall,         false, false, true,  false, false, false, true},
    {Op::kCallR,        true,  false, true,  false, false, false, true},
    {Op::kSandboxAddr,  true,  false, true,  false, false, false, false},
    {Op::kCheckedCallR, true,  false, true,  false, false, false, true},
};
static_assert(std::size(kExpectedClasses) ==
              static_cast<size_t>(Op::kOpCount));

TEST(OpClassTest, EveryOpcodeMatchesTheHandWrittenTable) {
  for (size_t i = 0; i < std::size(kExpectedClasses); ++i) {
    const ExpectedClass& e = kExpectedClasses[i];
    ASSERT_EQ(static_cast<size_t>(e.op), i) << "listing out of enum order";
    SCOPED_TRACE(std::string(OpName(e.op)));
    EXPECT_EQ(ReadsRs1(e.op), e.reads_rs1);
    EXPECT_EQ(ReadsRs2(e.op), e.reads_rs2);
    EXPECT_EQ(WritesRd(e.op), e.writes_rd);
    EXPECT_EQ(IsLoad(e.op), e.load);
    EXPECT_EQ(IsStore(e.op), e.store);
    EXPECT_EQ(IsBranch(e.op), e.branch);
    EXPECT_EQ(IsCall(e.op), e.call);
    // Only loads and stores have an access width.
    EXPECT_EQ(AccessWidth(e.op) != 0, e.load || e.store);
  }
}

TEST(OpClassTest, UndefinedOpcodesClassifyAsNothing) {
  for (int v = static_cast<int>(Op::kOpCount); v < 256; ++v) {
    const auto op = static_cast<Op>(v);
    EXPECT_EQ(OpClassOf(op), 0) << v;
    EXPECT_FALSE(IsBranch(op) || IsLoad(op) || IsStore(op) || IsCall(op) ||
                 ReadsRs1(op) || ReadsRs2(op) || WritesRd(op))
        << v;
  }
}

}  // namespace
}  // namespace vino
