// Shared random-program generation for the fuzz suites.
//
// Three generators, promoted out of tests/property_test.cc so the property
// tests, the graftfuzz harness (src/fuzz/fuzz_harness.h), and the corpus
// builder all draw from one seed-deterministic source instead of three
// divergent copies:
//
//  * RandomProgram        — structurally valid source programs: forward
//                           control flow, optionally inside one bounded
//                           counted loop (always terminates), random ALU
//                           ops, loads/stores with arbitrary addresses,
//                           optionally indirect host calls (some aimed at a
//                           non-callable id, a guaranteed Rule-7 abort).
//                           Feed these to Instrument() for the real
//                           pipeline.
//  * RandomForgedProgram  — hand-marked "instrumented" instruction streams
//                           that never went through MiSFIT: mem-op bases
//                           sometimes sandboxed, sometimes raw, offsets
//                           straddling the guard boundary. These probe the
//                           load-time verifier's accept set directly.
//  * RandomBytes/FlipBits — byte soup and mutation for container-level
//                           fuzzing of DeserializeSignedGraft / Load.
//
// Plus the CI-widening knobs every per-seed suite shares:
//
//  * SeedsFromEnv / ItersFromEnv — VINO_FUZZ_SEEDS ("1,42,0xdead") and
//    VINO_FUZZ_ITERS override the compiled-in seed lists and per-seed trial
//    counts, so a nightly run can widen the sweep without a code change.
//  * DumpArtifact — when VINO_FUZZ_ARTIFACTS names a directory, failing
//    fuzz trials dump the offending program there as graftdump-style
//    disassembly, so a CI failure is debuggable from the log line alone.

#ifndef VINOLITE_SRC_FUZZ_PROGRAM_GEN_H_
#define VINOLITE_SRC_FUZZ_PROGRAM_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/sfi/program.h"

namespace vino {
namespace fuzz {

struct GenOptions {
  // Instructions before the final kHalt.
  int length = 30;

  // When ok_call_id is nonzero the op mix widens to include kDivU and
  // indirect host calls (LoadImm id; CallR), aimed at ok_call_id except
  // with hostile_call_chance, where the non-callable hostile_call_id is
  // used instead — after instrumentation that is a guaranteed Rule-7
  // abort. Zero reproduces the plain ALU/memory mix.
  uint32_t ok_call_id = 0;
  uint32_t hostile_call_id = 0;
  double hostile_call_chance = 0.1;

  // When nonzero, the random body runs this many times inside a counted
  // loop (r10 counts, so the body draws from r0..r9): the one backward
  // branch, bounded, so execution engines see re-entered blocks. Zero —
  // the default — emits exactly what it always has, keeping existing seeds
  // and corpora byte-identical.
  int loop_iterations = 0;
};

// A random but structurally valid source program. It terminates: control
// flow is forward-only except the optional counted loop. Deterministic in
// (rng state, options).
[[nodiscard]] Program RandomProgram(Rng& rng, const GenOptions& options = {});

struct ForgeOptions {
  uint32_t sandbox_log2 = 16;
  int min_length = 2;
  int max_length = 24;
  // Probability a memory op's base register is the sandbox address register
  // (maybe actually sandboxed) rather than a raw low register.
  double sandboxed_base_chance = 0.7;
};

// A forged "instrumented" stream that never saw MiSFIT: structurally valid,
// terminating, but with no instrumentation discipline — some accesses are
// properly sandboxed, some are wild, offsets straddle the guard boundary so
// both verifier verdicts occur. Probes VerifySandbox's accept set.
[[nodiscard]] Program RandomForgedProgram(Rng& rng,
                                          const ForgeOptions& options = {});

// Raw byte soup in [min_bytes, max_bytes], occasionally seeded with the
// signed-graft container magic so parsing gets past the first bytes.
[[nodiscard]] std::vector<uint8_t> RandomBytes(Rng& rng, size_t min_bytes,
                                               size_t max_bytes);

// Flips `flips` random bits in place (container mutation).
void FlipBits(Rng& rng, std::vector<uint8_t>& bytes, int flips);

// ---------------------------------------------------------------------------
// CI knobs.

// VINO_FUZZ_SEEDS: comma-separated seed list (decimal or 0x hex); empty or
// unset returns `defaults`. Malformed entries are skipped.
[[nodiscard]] std::vector<uint64_t> SeedsFromEnv(
    std::vector<uint64_t> defaults);

// VINO_FUZZ_ITERS: per-seed trial count override; unset/invalid returns
// `default_iters`.
[[nodiscard]] int ItersFromEnv(int default_iters);

// $VINO_FUZZ_ARTIFACTS, or "" when unset.
[[nodiscard]] std::string ArtifactsDir();

// Writes `<dir>/<label>-seed<seed>-trial<trial>.vasm` under ArtifactsDir()
// (or `dir_override` when non-empty): a graftdump-style header (name,
// instrumented bit, profile), `notes`, and the full disassembly. Returns
// the file path, or "" when no artifacts directory is configured or the
// write failed. Never throws; fuzz tests call this on the failure path.
std::string DumpArtifact(const std::string& label, uint64_t seed, int trial,
                         const Program& program, const std::string& notes = "",
                         const std::string& dir_override = "");

}  // namespace fuzz
}  // namespace vino

#endif  // VINOLITE_SRC_FUZZ_PROGRAM_GEN_H_
