// SHA-256 (FIPS 180-4), implemented from scratch for graft code signing.
//
// The paper (§3.3): "MiSFIT computes a cryptographic digital signature of the
// graft and stores it with the compiled code. When VINO loads a graft it
// recomputes the checksum and compares it with the saved copy."
// We reproduce that trust decision with SHA-256 plus a keyed (HMAC) variant
// so an attacker who can flip bits in a stored graft cannot also re-sign it.
//
// The block function is chosen once per process, by CPUID, the first time
// a block is hashed: the x86 SHA extensions (SHA-NI) when the CPU has them,
// else the portable C function, which is also the reference the tests hold
// SHA-NI to (src/base/sha256_blocks.h). No flag or environment variable
// changes the choice; both produce the same digest for every input.

#ifndef VINOLITE_SRC_BASE_SHA256_H_
#define VINOLITE_SRC_BASE_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace vino {

using Sha256Digest = std::array<uint8_t, 32>;

// Incremental SHA-256 context. Copyable: a copy taken mid-stream resumes
// from the same midstate (HmacSha256Key keeps its pad blocks this way).
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  [[nodiscard]] Sha256Digest Finish();

  // One-shot convenience.
  [[nodiscard]] static Sha256Digest Hash(const void* data, size_t len);
  [[nodiscard]] static Sha256Digest Hash(std::string_view s) {
    return Hash(s.data(), s.size());
  }

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// HMAC-SHA256 (RFC 2104) used as the signing primitive: the "signing
// authority" (our stand-in for a code-signing service) holds the key.
[[nodiscard]] Sha256Digest HmacSha256(std::string_view key, const void* data,
                                      size_t len);

// An HMAC-SHA256 key with its pad blocks already absorbed: construction
// hashes key^ipad and key^opad once, and each Mac() resumes from those two
// midstates instead of hashing both pad blocks again.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::string_view key);

  [[nodiscard]] Sha256Digest Mac(const void* data, size_t len) const;

  // Streaming form of Mac: Update() the context Begin() returns with the
  // message, in any number of pieces, then pass it to End().
  [[nodiscard]] Sha256 Begin() const { return inner_; }
  [[nodiscard]] Sha256Digest End(Sha256 inner) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

// Lowercase hex rendering for logs and error messages.
[[nodiscard]] std::string DigestHex(const Sha256Digest& d);

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_SHA256_H_
