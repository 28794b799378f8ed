#include "src/sfi/signing.h"

#include <algorithm>
#include <span>
#include <vector>

namespace vino {

namespace {
// "VGRF" + version 1.
constexpr uint8_t kGraftMagic[4] = {'V', 'G', 'R', 'F'};
constexpr uint8_t kGraftVersion = 1;
}  // namespace

std::vector<uint8_t> SerializeSignedGraft(const SignedGraft& graft) {
  constexpr size_t kHeader = sizeof(kGraftMagic) + 1;
  std::vector<uint8_t> out(kHeader + graft.signature.size() +
                           EncodedProgramSize(graft.program));
  auto at = std::copy(std::begin(kGraftMagic), std::end(kGraftMagic),
                      out.begin());
  *at++ = kGraftVersion;
  at = std::copy(graft.signature.begin(), graft.signature.end(), at);
  EncodeProgramChunks(graft.program, std::span<uint8_t>(at, out.end()),
                      [](void*, const uint8_t*, size_t) {}, nullptr);
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
      DecodeProgram(std::span<const uint8_t>(bytes).subspan(kHeader));
  if (!program.ok()) {
    return program.status();
  }
  out.program = std::move(*program);
  return out;
}

Sha256Digest SigningAuthority::Digest(const Program& program) const {
  Sha256 inner = key_.Begin();
  // A multiple of the 64-byte SHA-256 block, and the key's pad block leaves
  // the context block-aligned, so every full flush hashes straight from
  // the buffer.
  uint8_t buf[64 * 64];
  EncodeProgramChunks(
      program, buf,
      [](void* ctx, const uint8_t* data, size_t len) {
        static_cast<Sha256*>(ctx)->Update(data, len);
      },
      &inner);
  return key_.End(inner);
}

Result<SignedGraft> SigningAuthority::Sign(Program program) const {
  if (!program.instrumented) {
    return Status::kNotInstrumented;
  }
  const Status verify = VerifyProgram(program);
  if (!IsOk(verify)) {
    return verify;
  }
  SignedGraft out;
  out.signature = Digest(program);
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
  const Sha256Digest expected = Digest(graft.program);
  // Constant-time comparison; not strictly needed in-process but cheap.
  uint8_t diff = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    diff = static_cast<uint8_t>(diff | (expected[i] ^ graft.signature[i]));
  }
  return diff == 0;
}

}  // namespace vino
