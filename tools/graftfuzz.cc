// graftfuzz: the adversarial survive-and-eject fuzzer.
//
// Drives generated vISA programs — toolchain-valid, forged-but-signed, and
// raw byte soup — through a live VinoKernel's full load → verify → install
// → invoke → abort/eject lifecycle (src/fuzz/fuzz_harness.h) and holds the
// kernel to the survival invariants. Exit status 0 means every campaign
// completed with zero anomalies.
//
//   graftfuzz --smoke                 fixed-seed CI budget (the check.sh gate)
//   graftfuzz --seeds 1,2,3           explicit campaign seeds
//   graftfuzz --programs N            programs per campaign (default 200)
//   graftfuzz --spool PATH            spool base path (default: a temp file
//                                     per campaign; "none" disables)
//   graftfuzz --artifacts DIR         write reproducer bundles under DIR
//   graftfuzz --inject ghost-waiter   re-introduce the PR-9 lockmgr seed bug
//   graftfuzz --inject mask-hole      re-introduce the PR-6 verifier seed bug
//   graftfuzz --emit-corpus DIR       write the loader-rejection corpus and
//                                     exit (tests/corpus maintenance)
//
// VINO_FUZZ_SEEDS / VINO_FUZZ_ITERS override seeds/--programs when the
// flags are absent; VINO_FUZZ_ARTIFACTS is the default bundle directory.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/status.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/fuzz_harness.h"
#include "src/fuzz/program_gen.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: graftfuzz [--smoke] [--seeds S1,S2,..] [--programs N]\n"
               "                 [--spool PATH|none] [--artifacts DIR]\n"
               "                 [--inject ghost-waiter|mask-hole]\n"
               "                 [--emit-corpus DIR]\n");
}

std::vector<uint64_t> ParseSeeds(const std::string& arg) {
  std::vector<uint64_t> seeds;
  size_t pos = 0;
  while (pos < arg.size()) {
    const size_t comma = arg.find(',', pos);
    const std::string item =
        arg.substr(pos, comma == std::string::npos ? arg.size() - pos
                                                   : comma - pos);
    if (!item.empty()) {
      char* end = nullptr;
      const uint64_t v = std::strtoull(item.c_str(), &end, 0);
      if (end != item.c_str() && *end == '\0') {
        seeds.push_back(v);
      }
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return seeds;
}

std::string DefaultSpoolPath(uint64_t seed) {
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / ("graftfuzz-spool-" + std::to_string(::getpid()) + "-" +
                 std::to_string(seed) + ".bin"))
      .string();
}

}  // namespace

int main(int argc, char** argv) {
  using vino::fuzz::FuzzOptions;
  using vino::fuzz::FuzzReport;
  // Every forged program's rejection and every ejection is expected here;
  // anomalies are reported on stdout, not through the log.
  vino::Logger::Instance().SetMinLevel(vino::LogLevel::kError);

  std::vector<uint64_t> seeds;
  int programs = -1;
  std::string spool_arg;
  std::string artifacts = vino::fuzz::ArtifactsDir();
  std::string emit_corpus_dir;
  vino::fuzz::FaultInjection inject;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--seeds") {
      seeds = ParseSeeds(next());
    } else if (arg == "--programs") {
      programs = std::atoi(next());
    } else if (arg == "--spool") {
      spool_arg = next();
    } else if (arg == "--artifacts") {
      artifacts = next();
    } else if (arg == "--inject") {
      const std::string what = next();
      if (what == "ghost-waiter") {
        inject.lockmgr_ghost_waiter = true;
      } else if (what == "mask-hole") {
        inject.verifier_mask_write_hole = true;
      } else {
        std::fprintf(stderr, "graftfuzz: unknown injection '%s'\n",
                     what.c_str());
        return 2;
      }
    } else if (arg == "--emit-corpus") {
      emit_corpus_dir = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "graftfuzz: unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (!emit_corpus_dir.empty()) {
    std::string error;
    (void)vino::fuzz::BuildCorpus(&error);
    if (!error.empty()) {
      std::fprintf(stderr, "graftfuzz: corpus self-check failed: %s\n",
                   error.c_str());
      return 1;
    }
    const vino::Status s = vino::fuzz::WriteCorpus(emit_corpus_dir);
    if (!vino::IsOk(s)) {
      std::fprintf(stderr, "graftfuzz: corpus emission failed: %.*s\n",
                   static_cast<int>(vino::StatusName(s).size()),
                   vino::StatusName(s).data());
      return 1;
    }
    std::printf("corpus written to %s\n", emit_corpus_dir.c_str());
    return 0;
  }

  // --smoke: the CI budget. Three fixed seeds x 700 programs = 2100
  // generated programs per run, deterministic, every accepted program
  // compared on both tiers. Explicit flags still win.
  if (smoke) {
    if (seeds.empty()) {
      seeds = {0x5eed1, 0x5eed2, 0x5eed3};
    }
    if (programs < 0) {
      programs = 700;
    }
  }
  if (seeds.empty()) {
    seeds = vino::fuzz::SeedsFromEnv({1});
  }
  if (programs < 0) {
    programs = vino::fuzz::ItersFromEnv(200);
  }

  int total_programs = 0;
  int total_anomalies = 0;
  for (const uint64_t seed : seeds) {
    FuzzOptions options;
    options.seed = seed;
    options.programs = programs;
    options.artifacts_dir = artifacts;
    options.inject = inject;
    std::string spool_path;
    if (spool_arg == "none") {
      // Spool invariants disabled.
    } else if (!spool_arg.empty()) {
      spool_path = spool_arg + "." + std::to_string(seed);
    } else {
      spool_path = DefaultSpoolPath(seed);
    }
    options.spool_path = spool_path;

    std::printf("== campaign seed=%llu programs=%d ==\n",
                static_cast<unsigned long long>(seed), programs);
    const FuzzReport report = vino::fuzz::RunFuzz(options);
    std::fputs(vino::fuzz::RenderReport(report).c_str(), stdout);
    total_programs += report.programs;
    total_anomalies += static_cast<int>(report.anomalies.size());

    // Default (per-run temp) spools are scratch; keep user-named ones.
    if (spool_arg.empty() && !spool_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(spool_path, ec);
    }
  }

  std::printf("total: %d programs across %zu campaigns, %d anomalies\n",
              total_programs, seeds.size(), total_anomalies);
  return total_anomalies == 0 ? 0 : 1;
}
