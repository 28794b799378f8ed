// Internal: the SHA-256 block (compression) function, in two
// implementations. Sha256 (sha256.h) picks one per process; tests call both
// directly so each is checked on every host that can run it.

#ifndef VINOLITE_SRC_BASE_SHA256_BLOCKS_H_
#define VINOLITE_SRC_BASE_SHA256_BLOCKS_H_

#include <cstddef>
#include <cstdint>

namespace vino {

// Folds `blocks` consecutive 64-byte blocks at `data` into `state` (the
// eight FIPS 180-4 working words, host byte order).
using Sha256BlocksFn = void (*)(uint32_t state[8], const uint8_t* data,
                                size_t blocks);

// Portable C; the reference and the fallback.
void Sha256BlocksPortable(uint32_t state[8], const uint8_t* data,
                          size_t blocks);

// x86 SHA extensions (sha256rnds2 / sha256msg1 / sha256msg2). Call only
// when Sha256ShaNiAvailable(); on other architectures it is the portable
// function.
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);

// CPUID says this CPU has SHA-NI and SSE4.1. Always false off x86.
[[nodiscard]] bool Sha256ShaNiAvailable();

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_SHA256_BLOCKS_H_
