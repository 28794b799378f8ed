// Golden verifier reports: VerifySandbox's full report over a fixed input
// set must match tests/golden/verifier_reports.txt line for line.
//
// The inputs are every checked-in loader-rejection fixture that decodes,
// seeded RandomPrograms after instrumentation (plain, looped, and with
// indirect host calls, the last under both indirect-target policies), and
// seeded RandomForgedPrograms with and without a host table, plus forged
// programs rewritten to carry call sites and a back edge. Each line
// pins status, fail_pc, reason, the true direct-call set, the constant
// indirect ids, the dynamic indirect call count, the proven loads and
// stores, and the instructions reached, so a change to how the analysis
// walks the CFG cannot silently move a verdict, a failure point or a count.
//
// On a mismatch the test writes the full actual dump next to the test
// binary (verifier_reports.actual.txt); after an intended change to the
// verifier's output, review the diff and copy that file over the golden.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/program_gen.h"
#include "src/sfi/host.h"
#include "src/sfi/isa.h"
#include "src/sfi/misfit.h"
#include "src/sfi/signing.h"
#include "src/sfi/verifier.h"

namespace vino {
namespace {

std::string Ids(const std::vector<uint32_t>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(ids[i]);
  }
  return out + "]";
}

std::string Line(const std::string& label, const VerifierReport& r) {
  std::ostringstream out;
  out << label << " status=" << StatusName(r.status) << " fail_pc=" << r.fail_pc
      << " calls=" << Ids(r.direct_call_ids)
      << " const=" << Ids(r.const_indirect_ids)
      << " dyn=" << r.dynamic_indirect_calls << " loads=" << r.loads_proven
      << " stores=" << r.stores_proven << " reached=" << r.instructions_reached
      << " reason=\"" << r.reason << "\"";
  return out.str();
}

// Derived forged classes, so the golden also pins dynamic and constant
// indirect calls, direct calls against the manifest, and loop refinement.
Program WithCalls(Program p, uint32_t ok_id, bool declare) {
  for (Instruction& ins : p.code) {
    if (ins.op == Op::kSub) {
      ins = Instruction{Op::kCheckedCallR, 0, ins.rs1, 0, 0};
    } else if (ins.op == Op::kXor) {
      ins = Instruction{Op::kCall, 0, 0, 0, ok_id};
    }
  }
  if (declare) {
    p.direct_call_ids = {ok_id};
  }
  return p;
}

// Sandboxes r14 first, then replaces the final kHalt with a jump back to
// `target` (0 is the new kSandboxAddr, 1 the old entry).
Program WithBackEdge(Program p, uint64_t target) {
  for (Instruction& ins : p.code) {
    if (IsBranch(ins.op)) {
      ++ins.imm;
    }
  }
  p.code.insert(p.code.begin(),
                Instruction{Op::kSandboxAddr, kSandboxAddrReg, 1, 0, 0});
  p.code.back() = Instruction{Op::kJmp, 0, 0, 0, static_cast<int64_t>(target)};
  return p;
}

std::vector<std::string> DumpReports() {
  std::vector<std::string> lines;

  // Every corpus fixture whose container decodes, with the corpus host.
  HostCallTable corpus_host;
  fuzz::RegisterCorpusHost(corpus_host, nullptr, nullptr);
  VerifierOptions corpus_options;
  corpus_options.host = &corpus_host;
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(VINO_CORPUS_DIR)) {
    if (entry.path().extension() == ".corpus") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    Result<fuzz::CorpusFixture> fixture = fuzz::ParseCorpusFile(path);
    if (!fixture.ok()) {
      continue;
    }
    Result<SignedGraft> graft = DeserializeSignedGraft(fixture->bytes);
    if (!graft.ok()) {
      continue;
    }
    lines.push_back(Line("corpus/" + fixture->name,
                         VerifySandbox(graft->program, corpus_options)));
  }

  // Instrumented RandomPrograms against a host with one callable and one
  // non-callable id.
  HostCallTable host;
  const uint32_t ok_id = host.Register(
      "golden.ok", [](HostCallContext&) -> Result<uint64_t> { return 1ull; },
      true);
  const uint32_t hostile_id = host.Register(
      "golden.hostile",
      [](HostCallContext&) -> Result<uint64_t> { return 2ull; }, false);
  VerifierOptions options;
  options.host = &host;
  VerifierOptions strict = options;
  strict.reject_constant_indirect_targets = true;

  const int kLengths[] = {5, 30, 300, 3000};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const int length = kLengths[seed % 4];
    for (int variant = 0; variant < 3; ++variant) {
      fuzz::GenOptions gen;
      gen.length = length;
      const char* kind = "plain";
      if (variant == 1) {
        gen.loop_iterations = 1 + static_cast<int>(seed % 7);
        kind = "looped";
      } else if (variant == 2) {
        gen.ok_call_id = ok_id;
        gen.hostile_call_id = hostile_id;
        gen.hostile_call_chance = 0.3;
        gen.loop_iterations = seed % 2 == 0 ? 3 : 0;
        kind = "calls";
      }
      Rng rng(seed * 7919 + static_cast<uint64_t>(variant));
      Result<Program> inst =
          Instrument(fuzz::RandomProgram(rng, gen), MisfitOptions{16});
      const std::string label = std::string("random/") + kind + "/seed" +
                                std::to_string(seed) + "/len" +
                                std::to_string(length);
      if (!inst.ok()) {
        lines.push_back(label + " instrument=" +
                        std::string(StatusName(inst.status())));
        continue;
      }
      lines.push_back(Line(label, VerifySandbox(*inst, options)));
      if (variant == 2) {
        lines.push_back(Line(label + "/strict", VerifySandbox(*inst, strict)));
      }
    }
  }

  // Forged streams: with the host table, and audited without one.
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    fuzz::ForgeOptions forge;
    forge.max_length = seed % 5 == 0 ? 64 : 24;
    const Program p = fuzz::RandomForgedProgram(rng, forge);
    const std::string label = "forged/seed" + std::to_string(seed);
    lines.push_back(Line(label, VerifySandbox(p, options)));
    if (seed % 10 == 0) {
      lines.push_back(Line(label + "/nohost", VerifySandbox(p)));
    }
  }

  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed + 100000);
    fuzz::ForgeOptions forge;
    forge.sandboxed_base_chance = 0.95;
    forge.max_length = 40;
    const Program p = fuzz::RandomForgedProgram(rng, forge);
    const std::string label = "forged/seed" + std::to_string(seed);
    lines.push_back(Line(label + "/calls",
                         VerifySandbox(WithCalls(p, ok_id, seed % 3 != 0),
                                       options)));
    const uint64_t targets[] = {0, 1, (p.code.size() + 1) / 2};
    const uint64_t target = targets[seed % 3];
    lines.push_back(Line(label + "/loop" + std::to_string(target),
                         VerifySandbox(WithBackEdge(p, target), options)));
    lines.push_back(
        Line(label + "/loop-calls" + std::to_string(target),
             VerifySandbox(WithBackEdge(WithCalls(p, ok_id, true), target),
                           options)));
  }
  return lines;
}

TEST(VerifierGoldenTest, ReportsMatchTheGoldenFile) {
  std::vector<std::string> expected;
  {
    std::ifstream in(VINO_VERIFIER_GOLDEN);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') {
        expected.push_back(line);
      }
    }
  }
  const std::vector<std::string> actual = DumpReports();
  if (actual != expected) {
    std::ofstream out("verifier_reports.actual.txt");
    out << "# VerifySandbox reports; see tests/verifier_golden_test.cc.\n";
    for (const std::string& line : actual) {
      out << line << "\n";
    }
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "golden " << VINO_VERIFIER_GOLDEN << " has a different input set";
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "line " << i + 1;
  }
}

}  // namespace
}  // namespace vino
