// The survive-and-eject harness has to prove two things about itself:
//
//  1. It stays green on a clean kernel: a full campaign across all three
//     program classes ends with zero anomalies, non-vacuously (each class
//     was exercised, both tiers compared, the spool replayed).
//  2. It catches real regressions and names the guilty subsystem: the two
//     deliberately re-introduced seed bugs — the PR-9 lockmgr ghost waiter
//     and the PR-6 verifier mask-write hole — must each surface as exactly
//     one anomaly, triaged to lockmgr and verifier respectively, with a
//     complete reproducer bundle on disk.
//
// Plus direct unit coverage of the Triage() attribution rules on synthetic
// spool replays.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/base/trace.h"
#include "src/fuzz/fuzz_harness.h"

namespace vino {
namespace {

fuzz::FuzzOptions BaseOptions(const std::string& tag, uint64_t seed,
                              int programs) {
  fuzz::FuzzOptions options;
  options.seed = seed;
  options.programs = programs;
  const std::filesystem::path tmp = ::testing::TempDir();
  options.spool_path = (tmp / ("fuzz-harness-" + tag + "-spool.bin")).string();
  options.artifacts_dir = (tmp / ("fuzz-harness-" + tag + "-art")).string();
  return options;
}

TEST(FuzzHarnessTest, CleanKernelSurvivesACampaign) {
  const fuzz::FuzzReport report = fuzz::RunFuzz(BaseOptions("clean", 1, 80));
  for (const fuzz::Anomaly& a : report.anomalies) {
    ADD_FAILURE() << fuzz::AnomalyKindName(a.kind) << " -> "
                  << fuzz::SubsystemName(a.subsystem) << ": " << a.detail;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.programs, 80);
  // Not vacuous: every class drew, abort/eject fired, tiers were compared,
  // events flowed, and the spool replayed records.
  EXPECT_GT(report.valid_accepted, 0);
  EXPECT_GT(report.valid_aborted, 0);
  EXPECT_GT(report.forged_rejected, 0);
  EXPECT_GT(report.soup_rejected, 0);
  EXPECT_GT(report.tier1_checked, 0);
  EXPECT_GT(report.invocations, 0u);
  EXPECT_GT(report.events_dispatched, 0u);
  EXPECT_GT(report.spool_records, 0u);
}

TEST(FuzzHarnessTest, GhostWaiterInjectionIsCaughtAndTriagedToLockMgr) {
  // Re-introduce the PR-9 seed bug: a timed-out waiter that never calls
  // CancelWait, stranding a ghost entry the release path later promotes.
  fuzz::FuzzOptions options = BaseOptions("ghost", 7, 60);
  options.inject.lockmgr_ghost_waiter = true;
  const fuzz::FuzzReport report = fuzz::RunFuzz(options);

  ASSERT_EQ(report.anomalies.size(), 1u)
      << "the injection must produce exactly one anomaly";
  const fuzz::Anomaly& a = report.anomalies[0];
  EXPECT_EQ(a.kind, fuzz::AnomalyKind::kLockNotDrained);
  EXPECT_EQ(a.subsystem, fuzz::Subsystem::kLockMgr);
  EXPECT_EQ(a.seed, 7u);

  // The reproducer bundle is on disk with the repro recipe and the replayed
  // spool tail the triage read.
  ASSERT_FALSE(a.bundle_dir.empty());
  const std::filesystem::path bundle(a.bundle_dir);
  EXPECT_TRUE(std::filesystem::exists(bundle / "repro.txt"));
  EXPECT_TRUE(std::filesystem::exists(bundle / "spool_tail.txt"));
}

TEST(FuzzHarnessTest, MaskWriteHoleInjectionIsCaughtAndTriagedToVerifier) {
  // Re-introduce the PR-6 seed bug: a forged program that rewrites the
  // sandbox mask register, installed with a claimed proof and compiled for
  // Tier 1, which runs it with every bounds check deleted.
  fuzz::FuzzOptions options = BaseOptions("mask", 7, 60);
  options.inject.verifier_mask_write_hole = true;
  const fuzz::FuzzReport report = fuzz::RunFuzz(options);

  ASSERT_EQ(report.anomalies.size(), 1u)
      << "the injection must produce exactly one anomaly";
  const fuzz::Anomaly& a = report.anomalies[0];
  EXPECT_EQ(a.kind, fuzz::AnomalyKind::kKernelCorruption);
  EXPECT_EQ(a.subsystem, fuzz::Subsystem::kVerifier);
  EXPECT_EQ(a.seed, 7u);

  // The bundle carries the offending program itself: container bytes plus
  // a graftdump-style disassembly.
  ASSERT_FALSE(a.bundle_dir.empty());
  const std::filesystem::path bundle(a.bundle_dir);
  EXPECT_TRUE(std::filesystem::exists(bundle / "repro.txt"));
  EXPECT_TRUE(std::filesystem::exists(bundle / "program.graft"));
  bool has_disasm = false;
  for (const auto& entry : std::filesystem::directory_iterator(bundle)) {
    has_disasm |= entry.path().extension() == ".vasm";
  }
  EXPECT_TRUE(has_disasm) << "no .vasm disassembly in " << a.bundle_dir;
}

// ---------------------------------------------------------------------------
// Triage() attribution rules on synthetic spool replays.

trace::TaggedRecord Rec(trace::Event event, uint64_t a) {
  trace::TaggedRecord out{};
  out.record.event = static_cast<uint16_t>(event);
  out.record.a = a;
  return out;
}

TEST(TriageTest, CorruptionAndValidRejectionPointAtTheVerifier) {
  fuzz::TriageInput input;
  input.kind = fuzz::AnomalyKind::kKernelCorruption;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kVerifier);
  input.kind = fuzz::AnomalyKind::kValidRejected;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kVerifier);
}

TEST(TriageTest, LockLeakNeedsAMatchingLockRecordInTheReplay) {
  fuzz::TriageInput input;
  input.kind = fuzz::AnomalyKind::kLockNotDrained;
  input.lock_resource = 0x1234;
  // No trace of the resource: unattributable.
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kUnknown);
  EXPECT_EQ(fuzz::Triage(input, {Rec(trace::Event::kLockAcquire, 0x9999)}),
            fuzz::Subsystem::kUnknown);
  // Either lock event for the leaked id pins the lock manager.
  EXPECT_EQ(fuzz::Triage(input, {Rec(trace::Event::kLockAcquire, 0x1234)}),
            fuzz::Subsystem::kLockMgr);
  EXPECT_EQ(fuzz::Triage(input, {Rec(trace::Event::kLockContend, 0x1234)}),
            fuzz::Subsystem::kLockMgr);
}

TEST(TriageTest, MissedEjectionSplitsOnTierAgreementAndEjectRecords) {
  fuzz::TriageInput input;
  input.kind = fuzz::AnomalyKind::kMissedEjection;
  input.graft_trace_id = 0x42;

  // Tiers disagreed on the same program: the backend is the culprit.
  input.ran_tier1 = true;
  input.tier0_agrees = false;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kTierBackend);

  // Tiers agree and no kGraftEjected record: the eject never posted.
  input.tier0_agrees = true;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kTxn);

  // An eject record for this graft disproves "missed" — inconclusive.
  EXPECT_EQ(fuzz::Triage(input, {Rec(trace::Event::kGraftEjected, 0x42)}),
            fuzz::Subsystem::kUnknown);
  // ...but an eject record for a *different* graft proves nothing.
  EXPECT_EQ(fuzz::Triage(input, {Rec(trace::Event::kGraftEjected, 0x43)}),
            fuzz::Subsystem::kTxn);
}

TEST(TriageTest, RemainingKindsMapDirectly) {
  fuzz::TriageInput input;
  input.kind = fuzz::AnomalyKind::kTierDivergence;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kTierBackend);
  input.kind = fuzz::AnomalyKind::kTxnImbalance;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kTxn);
  input.kind = fuzz::AnomalyKind::kLostEvents;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kTxn);
  input.kind = fuzz::AnomalyKind::kSpoolLoss;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kSpool);
  input.kind = fuzz::AnomalyKind::kServingFailure;
  EXPECT_EQ(fuzz::Triage(input, {}), fuzz::Subsystem::kUnknown);
}

}  // namespace
}  // namespace vino
