// Output checkers. Each reference is computed here, on the host, and does
// not come from the code under test:
//  * the stream cipher is re-derived byte by byte,
//  * an HTTP body is compared with the tenant's configured response,
//  * a graft result is re-computed by the Tier-0 interpreter on the
//    instrumented program, against a private image that sees the same call
//    sequence (so arena state carried between calls matches).

#ifndef VINOLITE_PERFBENCH_SRC_CHECKS_H_
#define VINOLITE_PERFBENCH_SRC_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/program.h"
#include "src/sfi/vm.h"

namespace perfbench {

// The rolling-XOR stream cipher of the file-stream workload: byte i of an
// 8 KB chunk is xored with the key byte and with i's low byte. Chunks start
// at 8 KB-aligned file offsets, so i's low byte is the file offset's.
inline constexpr uint8_t kCipherKey = 0x5c;

[[nodiscard]] inline uint8_t CipherByte(uint8_t plain, uint64_t file_offset) {
  return static_cast<uint8_t>(plain ^ kCipherKey ^ (file_offset & 0xff));
}

// True when `stored` is the cipher of `plain` for bytes starting at
// `file_offset`.
[[nodiscard]] inline bool CiphertextMatches(const uint8_t* plain,
                                            const uint8_t* stored, size_t n,
                                            uint64_t file_offset) {
  for (size_t i = 0; i < n; ++i) {
    if (stored[i] != CipherByte(plain[i], file_offset + i)) return false;
  }
  return true;
}

[[nodiscard]] inline bool HttpBodyMatches(std::string_view expected,
                                          std::string_view sent) {
  return expected == sent;
}

// Tier-0 reference for one loaded graft. Construct it with the
// instrumented program the toolchain produced (before the loader's
// verifier and Tier-1 compiler touched it); every Check() runs the same
// arguments on the reference and compares.
class TierReference {
 public:
  TierReference(const vino::Program& instrumented,
                const vino::HostCallTable* host, uint64_t kernel_size,
                uint64_t fuel)
      : program_(instrumented),
        image_(kernel_size, instrumented.sandbox_log2),
        vm_(host) {
    program_.verified = false;  // Run the checked Tier-0 loop.
    program_.compiled = nullptr;
    options_.fuel = fuel;
  }

  // True when the reference run on `args` halts cleanly with `observed`.
  bool Check(std::span<const uint64_t> args, uint64_t observed) {
    const vino::RunOutcome out = vm_.Run(program_, &image_, args, options_);
    return out.status == vino::Status::kOk && out.ret == observed;
  }

 private:
  vino::Program program_;
  vino::MemoryImage image_;
  vino::Vm vm_;
  vino::RunOptions options_;
};

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_CHECKS_H_
