// Graft programs the workloads install. They are fixed inputs of the
// benchmark, so they live here rather than being read from the examples:
// a change to an example must not change what the benchmark measures.

#ifndef VINOLITE_PERFBENCH_SRC_PROGRAMS_H_
#define VINOLITE_PERFBENCH_SRC_PROGRAMS_H_

#include <cstdint>
#include <string>

#include "src/sfi/host.h"
#include "src/sfi/program.h"

namespace perfbench {

// The four paper graft families (read-ahead, eviction, encryption,
// scheduling) as 4-40 instruction policy bodies.
inline constexpr int kFamilyCount = 4;
inline constexpr const char* kFamilyNames[kFamilyCount] = {
    "readahead", "evict", "encrypt", "sched"};

// Family grafts work in a 4 KB arena above the loader's 4 KB kernel region.
inline constexpr uint32_t kFamilyArenaLog2 = 12;
inline constexpr int64_t kFamilyArenaBase = 4096;

[[nodiscard]] vino::Program FamilyProgram(int family, const std::string& name);

// What a family graft returns for arguments (a0, a1): the host-side formula
// the serve-mixed checker compares against.
[[nodiscard]] uint64_t FamilyResult(int family, uint64_t a0, uint64_t a1);

// Misbehaving grafts.
[[nodiscard]] vino::Program SpinnerProgram(const std::string& name);
[[nodiscard]] vino::Program StrikerProgram(const std::string& name);
// Calls `alloc_id` for 1 MB, far over any tenant's memory limit.
[[nodiscard]] vino::Program MemHogProgram(const std::string& name,
                                          uint32_t alloc_id);
// Takes `locks` locks through `lock_id`, pushes `undo` undo records through
// `undo_id`, then spins until its fuel runs out.
[[nodiscard]] vino::Program LockUndoHogProgram(const std::string& name,
                                               uint32_t lock_id,
                                               uint32_t undo_id, int locks,
                                               int undo);

// The in-kernel HTTP handler: recv; if GET, send `response_len` bytes from
// arena+1024; close. With `hang`, it sends a partial reply and spins.
[[nodiscard]] vino::Program HttpProgram(const std::string& name,
                                        const vino::HostCallTable& host,
                                        int64_t response_len, bool hang);
inline constexpr uint64_t kHttpResponseOffset = 1024;

// Text sources for the file-stream grafts: the rolling-XOR stream cipher
// (see checks.h for its host-side reference) and the hint-driven
// read-ahead graft.
extern const char* const kCipherSource;
extern const char* const kReadaheadSource;

}  // namespace perfbench

#endif  // VINOLITE_PERFBENCH_SRC_PROGRAMS_H_
