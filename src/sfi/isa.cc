#include "src/sfi/isa.h"

#include <array>

namespace vino {
namespace {

constexpr std::array<std::string_view, static_cast<size_t>(Op::kOpCount)>
    kOpNames = {{
    /* kNop          */ "nop",
    /* kHalt         */ "halt",
    /* kLoadImm      */ "loadi",
    /* kMov          */ "mov",
    /* kAdd          */ "add",
    /* kSub          */ "sub",
    /* kMul          */ "mul",
    /* kDivU         */ "divu",
    /* kRemU         */ "remu",
    /* kAnd          */ "and",
    /* kOr           */ "or",
    /* kXor          */ "xor",
    /* kShl          */ "shl",
    /* kShr          */ "shr",
    /* kSar          */ "sar",
    /* kAddI         */ "addi",
    /* kMulI         */ "muli",
    /* kAndI         */ "andi",
    /* kOrI          */ "ori",
    /* kXorI         */ "xori",
    /* kShlI         */ "shli",
    /* kShrI         */ "shri",
    /* kLd8          */ "ld8",
    /* kLd16         */ "ld16",
    /* kLd32         */ "ld32",
    /* kLd64         */ "ld64",
    /* kSt8          */ "st8",
    /* kSt16         */ "st16",
    /* kSt32         */ "st32",
    /* kSt64         */ "st64",
    /* kJmp          */ "jmp",
    /* kBeq          */ "beq",
    /* kBne          */ "bne",
    /* kBltU         */ "bltu",
    /* kBgeU         */ "bgeu",
    /* kBltS         */ "blts",
    /* kBgeS         */ "bges",
    /* kCall         */ "call",
    /* kCallR        */ "callr",
    /* kSandboxAddr  */ "sandbox",
    /* kCheckedCallR */ "ccallr",
}};

}  // namespace

std::string_view OpName(Op op) {
  const auto i = static_cast<size_t>(op);
  if (i >= kOpNames.size()) {
    return "?";
  }
  return kOpNames[i];
}

Op OpFromName(std::string_view name) {
  for (size_t i = 0; i < kOpNames.size(); ++i) {
    if (kOpNames[i] == name) {
      return static_cast<Op>(i);
    }
  }
  return Op::kOpCount;
}

}  // namespace vino
