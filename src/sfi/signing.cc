#include "src/sfi/signing.h"

#include <algorithm>
#include <vector>

namespace vino {

namespace {
// "VGRF" + version 1.
constexpr uint8_t kGraftMagic[4] = {'V', 'G', 'R', 'F'};
constexpr uint8_t kGraftVersion = 1;
}  // namespace

std::vector<uint8_t> SerializeSignedGraft(const SignedGraft& graft) {
  const std::vector<uint8_t> program_bytes = EncodeProgram(graft.program);
  std::vector<uint8_t> out;
  out.reserve(5 + graft.signature.size() + program_bytes.size());
  out.insert(out.end(), std::begin(kGraftMagic), std::end(kGraftMagic));
  out.push_back(kGraftVersion);
  out.insert(out.end(), graft.signature.begin(), graft.signature.end());
  out.insert(out.end(), program_bytes.begin(), program_bytes.end());
  return out;
}

Result<SignedGraft> DeserializeSignedGraft(const std::vector<uint8_t>& bytes) {
  constexpr size_t kHeader = 5 + 32;
  if (bytes.size() < kHeader ||
      !std::equal(std::begin(kGraftMagic), std::end(kGraftMagic), bytes.begin()) ||
      bytes[4] != kGraftVersion) {
    return Status::kBadGraft;
  }
  SignedGraft out;
  std::copy(bytes.begin() + 5, bytes.begin() + 5 + 32, out.signature.begin());
  Result<Program> program =
      DecodeProgram(std::vector<uint8_t>(bytes.begin() + kHeader, bytes.end()));
  if (!program.ok()) {
    return program.status();
  }
  out.program = std::move(*program);
  return out;
}

Result<SignedGraft> SigningAuthority::Sign(Program program) const {
  if (!program.instrumented) {
    return Status::kNotInstrumented;
  }
  const Status verify = VerifyProgram(program);
  if (!IsOk(verify)) {
    return verify;
  }
  const std::vector<uint8_t> bytes = EncodeProgram(program);
  SignedGraft out;
  out.signature = key_.Mac(bytes.data(), bytes.size());
  out.program = std::move(program);
  return out;
}

bool SigningAuthority::Verify(const SignedGraft& graft) const {
  // Uninstrumented programs are refused before the HMAC is even computed:
  // a correctly-signed-but-uninstrumented container therefore reports
  // kBadSignature from the loader, never kNotInstrumented. The checked-in
  // rejection corpus (tests/corpus/loader_reject, not-instrumented-*)
  // pins this ordering; reordering these checks breaks those fixtures.
  if (!graft.program.instrumented) {
    return false;
  }
  const std::vector<uint8_t> bytes = EncodeProgram(graft.program);
  const Sha256Digest expected = key_.Mac(bytes.data(), bytes.size());
  // Constant-time comparison; not strictly needed in-process but cheap.
  uint8_t diff = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    diff = static_cast<uint8_t>(diff | (expected[i] ^ graft.signature[i]));
  }
  return diff == 0;
}

}  // namespace vino
