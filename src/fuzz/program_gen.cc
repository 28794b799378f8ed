#include "src/fuzz/program_gen.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/sfi/assembler.h"
#include "src/sfi/disasm.h"
#include "src/sfi/isa.h"

namespace vino {
namespace fuzz {

Program RandomProgram(Rng& rng, const GenOptions& options) {
  Asm a("fuzz");
  const bool looped = options.loop_iterations > 0;
  const uint64_t body_regs = looped ? 10 : 12;  // r10 is the loop counter.
  const auto r = [&rng, body_regs] {
    return Reg{static_cast<uint8_t>(rng.Below(body_regs))};
  };
  auto top = a.NewLabel();
  if (looped) {
    a.LoadImm(R10, 0);
    a.Bind(top);
  }
  for (int i = 0; i < options.length; ++i) {
    if (options.ok_call_id == 0) {
      // Plain ALU/memory mix (the SandboxFuzzTest distribution).
      switch (rng.Below(10)) {
        case 0:
          a.LoadImm(r(), static_cast<int64_t>(rng.Next()));
          break;
        case 1:
          a.Add(r(), r(), r());
          break;
        case 2:
          a.Sub(r(), r(), r());
          break;
        case 3:
          a.Mul(r(), r(), r());
          break;
        case 4:
          a.Xor(r(), r(), r());
          break;
        case 5:
          a.ShrI(r(), r(), static_cast<int64_t>(rng.Below(63)));
          break;
        case 6:
          a.Ld64(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        case 7:
          a.St64(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        case 8:
          a.Ld8(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        default:
          a.St16(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
      }
    } else {
      // Widened mix with kDivU and indirect host calls (the TierFuzzTest
      // distribution): mostly the ok id, occasionally the non-callable
      // hostile id — a guaranteed Rule-7 abort once instrumented.
      switch (rng.Below(12)) {
        case 0:
          a.LoadImm(r(), static_cast<int64_t>(rng.Next()));
          break;
        case 1:
          a.Add(r(), r(), r());
          break;
        case 2:
          a.Mul(r(), r(), r());
          break;
        case 3:
          a.DivU(r(), r(), r());
          break;
        case 4:
          a.Xor(r(), r(), r());
          break;
        case 5:
          a.ShrI(r(), r(), static_cast<int64_t>(rng.Below(63)));
          break;
        case 6:
          a.Ld64(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        case 7:
          a.St64(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        case 8:
          a.Ld8(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        case 9:
          a.St16(r(), r(), static_cast<int64_t>(rng.Below(1 << 16)));
          break;
        default: {
          const uint32_t id = rng.Chance(options.hostile_call_chance)
                                  ? options.hostile_call_id
                                  : options.ok_call_id;
          a.LoadImm(R11, id);
          a.CallR(R11);
          break;
        }
      }
    }
  }
  if (looped) {
    // r11 is free here: the body only ever loads call ids into it.
    a.AddI(R10, R10, 1);
    a.LoadImm(R11, options.loop_iterations);
    a.BltU(R10, R11, top);
  }
  a.Halt();
  Result<Program> p = a.Finish();
  // Generated programs are structurally valid by construction; a Finish
  // failure would be a generator bug, surfaced as an empty program the
  // caller's VerifyProgram/Instrument step refuses loudly.
  return p.ok() ? *p : Program{};
}

Program RandomForgedProgram(Rng& rng, const ForgeOptions& options) {
  Program p;
  p.name = "forged-fuzz";
  p.instrumented = true;
  p.sandbox_log2 = options.sandbox_log2;
  const auto len = static_cast<int>(rng.Range(
      static_cast<uint64_t>(options.min_length),
      static_cast<uint64_t>(options.max_length)));
  const auto low = [&rng] { return static_cast<uint8_t>(rng.Below(12)); };
  for (int i = 0; i < len; ++i) {
    // Mem-op bases are r14 (maybe sandboxed) or a random low register;
    // offsets straddle the guard boundary so both verdicts occur.
    const uint8_t base =
        rng.Chance(options.sandboxed_base_chance) ? kSandboxAddrReg : low();
    const auto off = static_cast<int64_t>(rng.Below(2 * kSandboxGuardBytes));
    Instruction ins{};
    switch (rng.Below(10)) {
      case 0:
        ins = {Op::kLoadImm, low(), 0, 0, static_cast<int64_t>(rng.Next())};
        break;
      case 1:
        ins = {Op::kAdd, low(), low(), low(), 0};
        break;
      case 2:
        ins = {Op::kSub, low(), low(), low(), 0};
        break;
      case 3:
        ins = {Op::kXor, low(), low(), low(), 0};
        break;
      case 4:
        ins = {Op::kAddI, low(), low(), 0, static_cast<int64_t>(rng.Below(4096))};
        break;
      case 5:
        ins = {Op::kSandboxAddr, kSandboxAddrReg, low(), 0, 0};
        break;
      case 6:
        ins = {Op::kLd64, low(), base, 0, off};
        break;
      case 7:
        ins = {Op::kSt64, 0, base, low(), off};
        break;
      case 8:
        ins = {Op::kMov, low(), rng.Chance(0.2) ? kSandboxBaseReg : low(), 0, 0};
        break;
      default:
        // Forward branch only, so accepted programs terminate.
        ins = {Op::kBeq, 0, low(), low(),
               static_cast<int64_t>(i + 1 +
                                    rng.Below(static_cast<uint64_t>(len - i)))};
        break;
    }
    p.code.push_back(ins);
  }
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  return p;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t min_bytes, size_t max_bytes) {
  const size_t n = rng.Range(min_bytes, max_bytes);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Half the soup starts with the container magic ("VGRF" + version 1) so
  // parsing gets past the header and exercises the program decoder too.
  if (out.size() >= 5 && rng.Chance(0.5)) {
    out[0] = 'V';
    out[1] = 'G';
    out[2] = 'R';
    out[3] = 'F';
    out[4] = 1;
  }
  return out;
}

void FlipBits(Rng& rng, std::vector<uint8_t>& bytes, int flips) {
  if (bytes.empty()) {
    return;
  }
  for (int i = 0; i < flips; ++i) {
    bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
  }
}

std::vector<uint64_t> SeedsFromEnv(std::vector<uint64_t> defaults) {
  const char* env = std::getenv("VINO_FUZZ_SEEDS");
  if (env == nullptr || env[0] == '\0') {
    return defaults;
  }
  std::vector<uint64_t> seeds;
  std::stringstream ss(env);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      continue;
    }
    char* end = nullptr;
    const uint64_t v = std::strtoull(item.c_str(), &end, 0);
    if (end != item.c_str() && *end == '\0') {
      seeds.push_back(v);
    }
  }
  return seeds.empty() ? defaults : seeds;
}

int ItersFromEnv(int default_iters) {
  const char* env = std::getenv("VINO_FUZZ_ITERS");
  if (env == nullptr || env[0] == '\0') {
    return default_iters;
  }
  char* end = nullptr;
  const long v = std::strtol(env, &end, 0);
  if (end == env || *end != '\0' || v <= 0 || v > 10'000'000) {
    return default_iters;
  }
  return static_cast<int>(v);
}

std::string ArtifactsDir() {
  const char* env = std::getenv("VINO_FUZZ_ARTIFACTS");
  return env != nullptr ? std::string(env) : std::string();
}

std::string DumpArtifact(const std::string& label, uint64_t seed, int trial,
                         const Program& program, const std::string& notes,
                         const std::string& dir_override) {
  const std::string dir = dir_override.empty() ? ArtifactsDir() : dir_override;
  if (dir.empty()) {
    return {};
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return {};
  }
  std::ostringstream name;
  name << label << "-seed" << seed << "-trial" << trial << ".vasm";
  const std::string path = (std::filesystem::path(dir) / name.str()).string();

  std::ostringstream out;
  out << "; fuzz artifact: " << label << " seed=" << seed
      << " trial=" << trial << "\n";
  out << "; graft:        " << program.name << "\n";
  out << "; instrumented: " << (program.instrumented ? "yes" : "NO")
      << " (sandbox 2^" << program.sandbox_log2 << ")\n";
  const ProgramProfile profile = ProfileProgram(program);
  out << "; profile:      " << profile.total << " instructions, "
      << profile.loads << " loads, " << profile.stores << " stores, "
      << profile.direct_calls << " direct calls, " << profile.indirect_calls
      << " indirect calls, " << profile.sandbox_ops << " sandbox ops\n";
  if (!notes.empty()) {
    out << "; " << notes << "\n";
  }
  DisasmOptions disasm;
  disasm.line_numbers = true;
  out << Disassemble(program, disasm);

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    return {};
  }
  f << out.str();
  return path;
}

}  // namespace fuzz
}  // namespace vino
