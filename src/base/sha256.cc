#include "src/base/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/base/sha256_blocks.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define VINO_SHA256_X86 1
#endif

namespace vino {
namespace {

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Chosen once per process from CPUID; never from a flag or the environment.
Sha256BlocksFn Blocks() {
  static const Sha256BlocksFn fn =
      Sha256ShaNiAvailable() ? Sha256BlocksShaNi : Sha256BlocksPortable;
  return fn;
}

}  // namespace

void Sha256BlocksPortable(uint32_t state[8], const uint8_t* data,
                          size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef VINO_SHA256_X86

bool Sha256ShaNiAvailable() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_SSE4_1) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & bit_SHA) != 0;
}

// The SHA-NI instructions keep the working variables as two vectors,
// ABEF and CDGH, and run two rounds per sha256rnds2. Each 16-byte group g
// of the message schedule is one vector: groups 0-3 are the block itself,
// byte-swapped to big-endian words; group g >= 4 is
//   msg2(msg1(W[g-4], W[g-3]) + W[g-1]:W[g-2] >> 4 bytes, W[g-1]).
__attribute__((target("sha,sse4.1"))) void Sha256BlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        __m128i t = _mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]);
        t = _mm_add_epi32(t, _mm_alignr_epi8(msg[(g + 3) & 3],
                                             msg[(g + 2) & 3], 4));
        msg[g & 3] = _mm_sha256msg2_epu32(t, msg[(g + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(
          msg[g & 3],
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool Sha256ShaNiAvailable() { return false; }

void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* data, size_t blocks) {
  Sha256BlocksPortable(state, data, blocks);
}

#endif

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;

  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) {
      return;
    }
    Blocks()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input; only the tail is buffered.
  const size_t blocks = len / sizeof(buffer_);
  if (blocks > 0) {
    Blocks()(state_, p, blocks);
    p += blocks * sizeof(buffer_);
    len -= blocks * sizeof(buffer_);
  }
  std::memcpy(buffer_, p, len);
  buffer_len_ = len;
}

Sha256Digest Sha256::Finish() {
  // Pad: 0x80, zeros, 64-bit big-endian bit count. The length field must
  // start at byte 56 of the final block; if the 0x80 lands past 55 the
  // padding spills into one more block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    Blocks()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - i * 8));
  }
  Blocks()(state_, buffer_, 1);
  buffer_len_ = 0;

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i) * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[static_cast<size_t>(i) * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[static_cast<size_t>(i) * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[static_cast<size_t>(i) * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 ctx;
  ctx.Update(data, len);
  return ctx.Finish();
}

HmacSha256Key::HmacSha256Key(std::string_view key) {
  uint8_t k[64] = {};
  if (key.size() > sizeof(k)) {
    const Sha256Digest kd = Sha256::Hash(key);
    std::memcpy(k, kd.data(), kd.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }

  uint8_t ipad[64];
  uint8_t opad[64];
  for (size_t i = 0; i < sizeof(k); ++i) {
    ipad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }
  inner_.Update(ipad, sizeof(ipad));
  outer_.Update(opad, sizeof(opad));
}

Sha256Digest HmacSha256Key::Mac(const void* data, size_t len) const {
  Sha256 inner = Begin();
  inner.Update(data, len);
  return End(inner);
}

Sha256Digest HmacSha256Key::End(Sha256 inner) const {
  const Sha256Digest inner_digest = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

Sha256Digest HmacSha256(std::string_view key, const void* data, size_t len) {
  return HmacSha256Key(key).Mac(data, len);
}

std::string DigestHex(const Sha256Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(d.size() * 2);
  for (const uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace vino
