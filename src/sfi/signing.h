// Graft code signing.
//
// Paper §3.3: "MiSFIT computes a cryptographic digital signature of the graft
// and stores it with the compiled code. When VINO loads a graft it recomputes
// the checksum and compares it with the saved copy. If the two do not match
// the graft is not loaded."
//
// The SigningAuthority models the trusted MiSFIT toolchain: it signs only
// programs that are actually instrumented, with an HMAC-SHA256 keyed digest.
// The kernel's loader holds the same authority (shared secret) and verifies
// before linking — Rule 6 of Table 1 ("the kernel must not execute grafts
// that are not known to be safe").

#ifndef VINOLITE_SRC_SFI_SIGNING_H_
#define VINOLITE_SRC_SFI_SIGNING_H_

#include <string_view>
#include <vector>

#include "src/base/sha256.h"
#include "src/base/status.h"
#include "src/sfi/program.h"

namespace vino {

// An instrumented program plus the toolchain's signature over its encoding.
struct SignedGraft {
  Program program;
  Sha256Digest signature{};
};

// Container format for signed grafts at rest (what the paper's "stores it
// with the compiled code" implies): a small header, the 32-byte signature,
// then the encoded program. This is what the graftc/graftdump tools and any
// application shipping grafts to the kernel read and write.
[[nodiscard]] std::vector<uint8_t> SerializeSignedGraft(const SignedGraft& graft);
[[nodiscard]] Result<SignedGraft> DeserializeSignedGraft(
    const std::vector<uint8_t>& bytes);

class SigningAuthority {
 public:
  // The key's HMAC pad midstates are computed here, once.
  explicit SigningAuthority(std::string_view key) : key_(key) {}

  // Signs an instrumented program. Fails with kNotInstrumented for raw
  // programs — the authority never blesses unprotected code.
  [[nodiscard]] Result<SignedGraft> Sign(Program program) const;

  // Recomputes the digest from the program bytes and compares. Any bit flip
  // in the code, metadata, or claimed sandbox size invalidates it.
  [[nodiscard]] bool Verify(const SignedGraft& graft) const;

 private:
  // HMAC of the program's encoding, streamed through a fixed stack buffer:
  // the encoding is never materialized.
  [[nodiscard]] Sha256Digest Digest(const Program& program) const;

  HmacSha256Key key_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_SIGNING_H_
