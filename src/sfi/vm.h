// Tier 0 of the graft execution engine: an interpreter for vISA programs.
//
// Instrumented programs run with the sandbox mask/base registers initialized
// from the memory image's graft arena; their memory accesses cannot leave the
// arena. Uninstrumented programs (the paper's "unsafe path") access the whole
// image — including kernel memory — which is exactly the disaster the paper
// is about; tests use this to demonstrate corruption, benchmarks use it to
// price the MiSFIT overhead.
//
// Preemption (Table 1, Rule 1): the interpreter charges one unit of fuel per
// instruction and polls an abort predicate at a fixed cadence, so an
// infinitely looping graft is bounded and an asynchronous transaction abort
// (e.g. a lock time-out fired by another thread) takes effect promptly.
//
// This is the universal backend: it runs anything — uninstrumented,
// unverified, or verified — and checks every memory access against the
// image whatever the program claims, so Program::verified never changes
// what it does. It is the reference the Tier-1 direct-threaded backend
// (src/sfi/threaded_vm.h) is held to and the floor that backend falls back
// to. RunOptions/RunOutcome live in src/sfi/exec_engine.h.

#ifndef VINOLITE_SRC_SFI_VM_H_
#define VINOLITE_SRC_SFI_VM_H_

#include <cstdint>
#include <span>

#include "src/base/status.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/program.h"

namespace vino {

// The interpreter itself is stateless: all execution state (registers, pc,
// fuel) lives on Run's stack, and Run is const. A Vm can therefore be
// shared and entered concurrently from any number of threads.
class Vm final {
 public:
  // Host-pinned form: the image (and caller identity) vary per run and are
  // passed to Run — how ThreadedVm drives its Tier-0 fallback for whatever
  // graft (and thus arena image) the point currently holds.
  explicit Vm(const HostCallTable* host) : host_(host) {}

  // Image-pinned convenience form for tests/tools that run one program
  // against one image.
  Vm(MemoryImage* image, const HostCallTable* host) : image_(image), host_(host) {}

  // Executes `program` with `args` in r0..r5, confined to `image`.
  // `identity` is passed to every host call (the installing user, §3.3).
  // The program must pass VerifyProgram (callers that skip verification get
  // kSfiBadOpcode / kSfiTrap at runtime rather than UB).
  RunOutcome Run(const Program& program, MemoryImage* image,
                 std::span<const uint64_t> args, const RunOptions& options,
                 CallerIdentity identity = {}) const;

  // Image-pinned form over the constructor-supplied image.
  RunOutcome Run(const Program& program, std::span<const uint64_t> args,
                 const RunOptions& options = {}) const {
    return Run(program, image_, args, options);
  }

 private:
  MemoryImage* image_ = nullptr;
  const HostCallTable* host_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_VM_H_
