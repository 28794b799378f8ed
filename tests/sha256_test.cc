// SHA-256 / HMAC-SHA256 against FIPS 180-4 and RFC 4231 test vectors.
//
// Sha256 runs whichever block function CPUID picked for this process. The
// BlockFunctionTest suite below also runs each block function directly —
// the portable one everywhere, SHA-NI wherever the CPU has it — so both are
// checked against the vectors and against each other on every host.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sha256.h"
#include "src/base/sha256_blocks.h"

namespace vino {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.Update(chunk);
  }
  EXPECT_EQ(DigestHex(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (const char c : msg) {
    ctx.Update(&c, 1);
  }
  EXPECT_EQ(ctx.Finish(), Sha256::Hash(msg));
}

TEST(Sha256Test, ExactBlockBoundary) {
  const std::string msg(64, 'x');
  const std::string msg2(128, 'x');
  EXPECT_NE(DigestHex(Sha256::Hash(msg)), DigestHex(Sha256::Hash(msg2)));
  // 64-byte message (one full block) computes without error and reproduces.
  EXPECT_EQ(Sha256::Hash(msg), Sha256::Hash(msg));
}

TEST(Sha256Test, ResetReuses) {
  Sha256 ctx;
  ctx.Update("garbage");
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(DigestHex(ctx.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// RFC 4231 test case 1.
TEST(HmacSha256Test, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  const std::string data = "Hi There";
  EXPECT_EQ(DigestHex(HmacSha256(key, data.data(), data.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256Test, Rfc4231Case2) {
  const std::string data = "what do ya want for nothing?";
  EXPECT_EQ(DigestHex(HmacSha256("Jefe", data.data(), data.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
TEST(HmacSha256Test, Rfc4231Case3) {
  const std::string key(20, '\xaa');
  const std::string data(50, '\xdd');
  EXPECT_EQ(DigestHex(HmacSha256(key, data.data(), data.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size gets hashed.
TEST(HmacSha256Test, LongKeyIsHashed) {
  const std::string key(131, '\xaa');
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(DigestHex(HmacSha256(key, data.data(), data.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 7: long key and long data.
TEST(HmacSha256Test, Rfc4231Case7) {
  const std::string key(131, '\xaa');
  const std::string data =
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.";
  EXPECT_EQ(DigestHex(HmacSha256(key, data.data(), data.size())),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256Test, PrecomputedKeyMatchesOneShot) {
  const HmacSha256Key key("Jefe");
  const std::string data = "what do ya want for nothing?";
  EXPECT_EQ(key.Mac(data.data(), data.size()),
            HmacSha256("Jefe", data.data(), data.size()));
  // Mac is const and reusable: the pad midstates are not consumed.
  EXPECT_EQ(key.Mac(data.data(), data.size()),
            HmacSha256("Jefe", data.data(), data.size()));
}

TEST(HmacSha256Test, DifferentKeysDiffer) {
  const std::string data = "payload";
  EXPECT_NE(HmacSha256("key1", data.data(), data.size()),
            HmacSha256("key2", data.data(), data.size()));
}

// ---------------------------------------------------------------------------
// Each block function on its own.

// SHA-256 with padding done here, so only `blocks` is under test.
Sha256Digest HashWith(Sha256BlocksFn blocks, const void* data, size_t len) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t whole = len / 64;
  blocks(state, static_cast<const uint8_t*>(data), whole);
  uint8_t tail[128] = {};
  const size_t rest = len - whole * 64;
  std::memcpy(tail, static_cast<const uint8_t*>(data) + whole * 64, rest);
  tail[rest] = 0x80;
  const size_t tail_len = rest + 1 + 8 <= 64 ? 64 : 128;
  const uint64_t bits = static_cast<uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - static_cast<size_t>(i)] =
        static_cast<uint8_t>(bits >> (8 * i));
  }
  blocks(state, tail, tail_len / 64);
  Sha256Digest out;
  for (size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::string HexWith(Sha256BlocksFn blocks, const std::string& s) {
  return DigestHex(HashWith(blocks, s.data(), s.size()));
}

// RFC 2104 over HashWith.
std::string HmacWith(Sha256BlocksFn blocks, std::string key,
                     const std::string& data) {
  if (key.size() > 64) {
    const Sha256Digest kd = HashWith(blocks, key.data(), key.size());
    key.assign(kd.begin(), kd.end());
  }
  key.resize(64, '\0');
  std::string inner = key;
  std::string outer = key;
  for (size_t i = 0; i < 64; ++i) {
    inner[i] = static_cast<char>(inner[i] ^ 0x36);
    outer[i] = static_cast<char>(outer[i] ^ 0x5c);
  }
  const Sha256Digest id = HashWith(blocks, (inner + data).data(),
                                   inner.size() + data.size());
  outer.append(id.begin(), id.end());
  return HexWith(blocks, outer);
}

class BlockFunctionTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !Sha256ShaNiAvailable()) {
      GTEST_SKIP() << "this CPU has no SHA-NI";
    }
  }
  Sha256BlocksFn blocks() const {
    return GetParam() ? Sha256BlocksShaNi : Sha256BlocksPortable;
  }
};

TEST_P(BlockFunctionTest, Fips180Vectors) {
  EXPECT_EQ(HexWith(blocks(), ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexWith(blocks(), "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexWith(blocks(),
                    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(HexWith(blocks(), std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(BlockFunctionTest, Rfc4231Vectors) {
  EXPECT_EQ(HmacWith(blocks(), std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(HmacWith(blocks(), "Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(HmacWith(blocks(), std::string(20, '\xaa'), std::string(50, '\xdd')),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  EXPECT_EQ(HmacWith(blocks(), std::string(131, '\xaa'),
                     "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(
      HmacWith(blocks(), std::string(131, '\xaa'),
               "This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// Every length from empty to past 17 blocks, through the block function
// under test and through Sha256 fed in random pieces: one digest.
TEST_P(BlockFunctionTest, MatchesPortableAndIncrementalAtEveryLength) {
  Rng rng(0x5a256 + (GetParam() ? 1 : 0));
  std::vector<uint8_t> msg(1100);
  for (uint8_t& b : msg) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t len = 0; len <= msg.size(); ++len) {
    const Sha256Digest want = HashWith(Sha256BlocksPortable, msg.data(), len);
    ASSERT_EQ(HashWith(blocks(), msg.data(), len), want) << "len " << len;
    Sha256 ctx;
    size_t at = 0;
    while (at < len) {
      const size_t piece = std::min<size_t>(len - at, rng.Below(150));
      ctx.Update(msg.data() + at, piece);
      at += piece;
    }
    ASSERT_EQ(ctx.Finish(), want) << "len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Sha256, BlockFunctionTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "ShaNi" : "Portable";
                         });

}  // namespace
}  // namespace vino
