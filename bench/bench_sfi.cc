// §3.3 claims, as google-benchmark micros:
//  * "The cost of this protection is two to five cycles per load or store"
//    -> per-access cost delta between instrumented and raw programs.
//  * "our average cost is ten to fifteen cycles per indirect function call"
//    -> callable hash-table probe cost.
//  * code-signing cost (SHA-256 / HMAC) at load time.

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"
#include "src/base/rng.h"
#include "src/base/sha256.h"
#include "src/fuzz/program_gen.h"
#include "src/sfi/assembler.h"
#include "src/sfi/callable_table.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/signing.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

constexpr int kOps = 256;

Program LoadStoreProgram(bool instrumented, bool elide = false) {
  Asm a("dense");
  a.LoadImm(R1, 0);
  for (int i = 0; i < kOps; ++i) {
    a.Ld64(R2, R1, i * 8);
    a.St64(R1, R2, i * 8 + 4096);
  }
  a.Halt();
  Result<Program> p = a.Finish();
  if (!instrumented) {
    return *p;
  }
  MisfitOptions options{16};
  options.elide_redundant_masks = elide;
  return *Instrument(*p, options);
}

Program AluProgram() {
  Asm a("alu");
  a.LoadImm(R1, 1);
  for (int i = 0; i < kOps * 2; ++i) {
    a.Add(R2, R2, R1);
  }
  a.Halt();
  return *a.Finish();
}

void BM_VmAluOp(benchmark::State& state) {
  HostCallTable host;
  MemoryImage image(4096, 16);
  Vm vm(&image, &host);
  const Program p = AluProgram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(p, {}, RunOptions{}));
  }
  state.counters["ns/op"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kOps * 2,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_VmAluOp);

void BM_VmLoadStoreRaw(benchmark::State& state) {
  HostCallTable host;
  MemoryImage image(65536, 16);  // Big kernel region: raw offsets stay valid.
  Vm vm(&image, &host);
  const Program p = LoadStoreProgram(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(p, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreRaw);

void BM_VmLoadStoreInstrumented(benchmark::State& state) {
  // The delta vs. BM_VmLoadStoreRaw, divided by 2*kOps accesses, is the
  // per-access MiSFIT cost (the paper's 2-5 cycles). Elision off: this is
  // the paper's one-sandbox-per-access cost model, kept stable for
  // cross-revision comparison.
  HostCallTable host;
  MemoryImage image(65536, 16);
  Vm vm(&image, &host);
  const Program p = LoadStoreProgram(true, /*elide=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(p, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreInstrumented);

void BM_VmLoadStoreElided(benchmark::State& state) {
  // Verifier-backed mask elision: the same dense run keeps one kSandboxAddr
  // for all 2*kOps accesses instead of one each, but still pays the Vm's
  // per-access InBounds branch.
  HostCallTable host;
  MemoryImage image(65536, 16);
  Vm vm(&image, &host);
  const Program p = LoadStoreProgram(true, /*elide=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(p, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreElided);

// Execution-tier sweep over load/store density: kOps work instructions, of
// which range(0) percent are memory accesses (Ld64/St64 pairs sandboxed by
// MiSFIT, masks elided, program verified), run on tier range(1): tier 0 is
// the checked Vm, tier 1 the verified fast path. The Tier-1 direct-threaded
// engine's win grows with memory-op density because each access drops the
// interpreter's operand re-decode, its bounds check and the shared-switch
// misprediction; the PR acceptance gate reads the 50%-density pair.
Program DensityProgram(int density_pct) {
  Asm a("density");
  a.LoadImm(R1, 0);
  a.LoadImm(R2, 1);
  int emitted_mem = 0;
  for (int i = 0; i < kOps; ++i) {
    // Emit a memory op when running behind the requested density.
    if (emitted_mem * 100 < density_pct * (i + 1)) {
      if (i % 2 == 0) {
        a.Ld64(R3, R1, (i % 64) * 8);
      } else {
        a.St64(R1, R3, (i % 64) * 8 + 4096);
      }
      ++emitted_mem;
    } else if (i % 3 == 0) {
      a.Add(R4, R4, R2);
    } else if (i % 3 == 1) {
      a.Xor(R5, R5, R4);
    } else {
      a.ShrI(R6, R5, 1);
    }
  }
  a.Halt();
  MisfitOptions options{16};
  options.elide_redundant_masks = true;
  return *Instrument(*a.Finish(), options);
}

void BM_TierDensity(benchmark::State& state) {
  const int density = static_cast<int>(state.range(0));
  const int tier = static_cast<int>(state.range(1));
  HostCallTable host;
  MemoryImage image(65536, 16);
  Program p = DensityProgram(density);
  if (!VerifySandbox(p).ok()) {
    state.SkipWithError("bench program failed verification");
    return;
  }
  p.verified = true;
  if (tier == 1) {
    p.compiled = CompileThreaded(p);
    if (p.compiled == nullptr) {
      state.SkipWithError("tier-1 compile unavailable");
      return;
    }
  }
  // With no artifact (tier 0), ThreadedVm runs the checked Vm.
  const ThreadedVm engine(&host);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(p, &image, {}, RunOptions{}));
  }
  state.counters["ns/ins"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kOps,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TierDensity)
    ->ArgNames({"memops_pct", "tier"})
    ->ArgsProduct({{0, 25, 50}, {0, 1}});

// The encryption graft of the paper's worst-case SFI row (Table 6): a
// rolling-XOR stream cipher over one 8 KB chunk, MiSFIT-masked, verified,
// run on tier range(0). This is the body the file-stream workload spends
// its time in: an 11-instruction loop block whose two accesses each follow
// their own kSandboxAddr, so it prices Tier 1's per-block charging and
// sandbox+access fusion directly.
constexpr int64_t kCipherChunk = 8192;

Program StreamCipherProgram() {
  // r0 = in, r1 = out, r2 = byte count.
  Asm a("cipher");
  auto loop = a.NewLabel();
  auto done = a.NewLabel();
  a.LoadImm(R4, 0);
  a.LoadImm(R5, 0x5c);
  a.Bind(loop);
  a.BgeU(R4, R2, done);
  a.Add(R6, R0, R4);
  a.Ld8(R7, R6);
  a.Xor(R7, R7, R5);
  a.AndI(R8, R4, 0xff);
  a.Xor(R7, R7, R8);
  a.Add(R6, R1, R4);
  a.St8(R6, R7);
  a.AddI(R4, R4, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.LoadImm(R0, 0);
  a.Halt();
  return *Instrument(*a.Finish(), MisfitOptions{16});
}

void BM_TierStreamCipher(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  HostCallTable host;
  MemoryImage image(4096, 16);
  Program p = StreamCipherProgram();
  if (!VerifySandbox(p).ok()) {
    state.SkipWithError("bench program failed verification");
    return;
  }
  p.verified = true;
  const uint64_t args[3] = {image.arena_base(),
                            image.arena_base() + kCipherChunk,
                            static_cast<uint64_t>(kCipherChunk)};
  if (tier == 1) {
    p.compiled = CompileThreaded(p);
    if (p.compiled == nullptr) {
      state.SkipWithError("tier-1 compile unavailable");
      return;
    }
  }
  // With no artifact (tier 0), ThreadedVm runs the checked Vm.
  const ThreadedVm engine(&host);
  uint64_t instructions = 0;
  for (auto _ : state) {
    const RunOutcome out = engine.Run(p, &image, args, RunOptions{}, {});
    instructions = out.instructions;
    benchmark::DoNotOptimize(out);
  }
  state.counters["ins"] = static_cast<double>(instructions);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kCipherChunk);
}
BENCHMARK(BM_TierStreamCipher)->ArgName("tier")->Arg(0)->Arg(1);

// The largest graft class the graft-churn workload loads: a 3000-instruction
// RandomProgram, about 4.2k instructions after instrumentation. Each stage
// of its load path has a row below: instrument, sign + verify the
// signature, verify the sandbox, compile for Tier 1.
Program R3000Source() {
  Rng rng(3000);
  fuzz::GenOptions gen;
  gen.length = 3000;
  return fuzz::RandomProgram(rng, gen);
}

Program R3000Program() { return *Instrument(R3000Source(), MisfitOptions{16}); }

void BM_Instrument_R3000(benchmark::State& state) {
  const Program source = R3000Source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Instrument(source, MisfitOptions{16}));
  }
  state.counters["ins"] = static_cast<double>(source.code.size());
}
BENCHMARK(BM_Instrument_R3000);

void BM_CompileThreaded_R3000(benchmark::State& state) {
  Program p = R3000Program();
  p.verified = VerifySandbox(p).ok();
  if (!p.verified) {
    state.SkipWithError("r3000 program failed verification");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileThreaded(p));
  }
  state.counters["ins"] = static_cast<double>(p.code.size());
}
BENCHMARK(BM_CompileThreaded_R3000);

void VerifySandboxOf(benchmark::State& state, const Program& p) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifySandbox(p));
  }
  state.counters["ins"] = static_cast<double>(p.code.size());
}

void BM_VerifySandbox(benchmark::State& state) {
  // Load-time cost of the proof itself (a one-time charge per load,
  // amortized over every run of the graft).
  VerifySandboxOf(state, LoadStoreProgram(true, /*elide=*/true));
}
BENCHMARK(BM_VerifySandbox);

void BM_VerifySandbox_R3000(benchmark::State& state) {
  VerifySandboxOf(state, R3000Program());
}
BENCHMARK(BM_VerifySandbox_R3000);

void BM_CallableTableProbeHit(benchmark::State& state) {
  CallableTable table;
  for (uint64_t i = 1; i <= 64; ++i) {
    table.Insert(i * 977);
  }
  uint64_t key = 977;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Contains(key));
    key = (key % (64 * 977)) + 977;
  }
}
BENCHMARK(BM_CallableTableProbeHit);

void BM_CallableTableProbeMiss(benchmark::State& state) {
  CallableTable table;
  for (uint64_t i = 1; i <= 64; ++i) {
    table.Insert(i * 977);
  }
  uint64_t key = 13;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Contains(key));
    key += 2;  // Odd keys: never multiples of 977*? (mostly misses).
  }
}
BENCHMARK(BM_CallableTableProbeMiss);

void BM_IndirectCallChecked(benchmark::State& state) {
  // Full checked indirect host call from inside the VM.
  HostCallTable host;
  const uint32_t id = host.Register(
      "k.noop", [](HostCallContext&) -> Result<uint64_t> { return 0ull; }, true);
  MemoryImage image(4096, 16);
  Vm vm(&image, &host);
  Asm a("ccall");
  a.LoadImm(R1, id);
  for (int i = 0; i < 64; ++i) {
    a.CallR(R1);
  }
  a.Halt();
  const Program p = *Instrument(*a.Finish(), MisfitOptions{16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(p, {}, RunOptions{}));
  }
}
BENCHMARK(BM_IndirectCallChecked);

void BM_MisfitInstrumentation(benchmark::State& state) {
  // Tool-side cost: rewriting a 512-instruction program.
  const Program p = LoadStoreProgram(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Instrument(p, MisfitOptions{16}));
  }
}
BENCHMARK(BM_MisfitInstrumentation);

void Sha256Of(benchmark::State& state, size_t bytes) {
  std::vector<uint8_t> data(bytes, 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void BM_Sha256_8K(benchmark::State& state) { Sha256Of(state, 8192); }
BENCHMARK(BM_Sha256_8K);

// About the encoded size of an r3000 graft: what one signature costs.
void BM_Sha256_48K(benchmark::State& state) { Sha256Of(state, 48 * 1024); }
BENCHMARK(BM_Sha256_48K);

void SignAndVerifyOf(benchmark::State& state, const Program& p) {
  SigningAuthority authority("bench-key");
  for (auto _ : state) {
    Result<SignedGraft> sg = authority.Sign(p);
    benchmark::DoNotOptimize(authority.Verify(*sg));
  }
  state.counters["ins"] = static_cast<double>(p.code.size());
}

void BM_SignAndVerify(benchmark::State& state) {
  SignAndVerifyOf(state, *Instrument(LoadStoreProgram(false), MisfitOptions{16}));
}
BENCHMARK(BM_SignAndVerify);

void BM_SignAndVerify_R3000(benchmark::State& state) {
  SignAndVerifyOf(state, R3000Program());
}
BENCHMARK(BM_SignAndVerify_R3000);

}  // namespace
}  // namespace vino

int main(int argc, char** argv) { return vino::RunGbenchMain(argc, argv); }
