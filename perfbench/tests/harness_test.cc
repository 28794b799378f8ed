// Tests of the benchmark's own logic: the percentile rule, self time, the
// rate ladder, and the output checkers.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/checks.h"
#include "src/kernel/kernel.h"
#include "src/ladder.h"
#include "src/programs.h"
#include "src/sfi/misfit.h"
#include "src/stats.h"
#include "src/trace.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileRule, SmallSetFallsBackToASupportedPercentile) {
  // 50 samples: even p90 leaves only five beyond it, so only the median.
  std::vector<double> v = Iota(50);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 50u);
  EXPECT_DOUBLE_EQ(s.p50, 25);
  EXPECT_DOUBLE_EQ(s.p99_q, 0.5);
  EXPECT_DOUBLE_EQ(s.p99, 25);

  // 100 samples: p90 leaves exactly ten beyond it.
  std::vector<double> w = Iota(100);
  const Summary t = Summarize(w);
  EXPECT_DOUBLE_EQ(t.p99_q, 0.90);
  EXPECT_DOUBLE_EQ(t.p99, 90);
  EXPECT_DOUBLE_EQ(t.tail_q, 0.90);
}

TEST(PercentileRule, LargeSetReportsP99AndHigherTail) {
  std::vector<double> v = Iota(1000);
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.p99_q, 0.99);
  EXPECT_DOUBLE_EQ(s.p99, 990);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);  // p99.9 would leave one sample.

  std::vector<double> big = Iota(20000);
  const Summary b = Summarize(big);
  EXPECT_DOUBLE_EQ(b.p99, 19800);
  EXPECT_DOUBLE_EQ(b.tail_q, 0.999);
  EXPECT_DOUBLE_EQ(b.tail, 19980);
  EXPECT_DOUBLE_EQ(b.p50, 10000);
}

TEST(PercentileRule, NearestRankRoundsUp) {
  const std::vector<double> seven = Iota(7);
  EXPECT_DOUBLE_EQ(Percentile(seven, 0.5), 4);  // rank ceil(3.5) = 4
  EXPECT_DOUBLE_EQ(Percentile(seven, 0.9), 7);  // rank ceil(6.3) = 7
  EXPECT_DOUBLE_EQ(Percentile(seven, 0.0), 1);
}

TEST(PercentileRule, EmptyAndMedian) {
  std::vector<double> none;
  EXPECT_EQ(Summarize(none).n, 0u);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileRule, MedianWindowP99IgnoresOneBadWindow) {
  // Three windows of 1000 samples; the middle one has a stalled tail.
  std::vector<int64_t> at;
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      at.push_back(w * 100 + i % 100);
      v.push_back(w == 1 && i > 900 ? 1e6 : i);
    }
  }
  EXPECT_DOUBLE_EQ(MedianWindowP99(at, v, 100), 990);
  // Windows too small for a p99 fall back to the p99 of all samples.
  EXPECT_DOUBLE_EQ(MedianWindowP99(at, v, 10), 1e6);
}

TEST(SelfTime, NestedChildren) {
  SpanRecorder r;
  const int32_t root = r.Add({"root", -1, 1, 0, 100});
  const int32_t a = r.Add({"a", root, 1, 10, 50});
  r.Add({"a.inner", a, 1, 20, 30});
  r.Add({"b", root, 1, 60, 90});
  const std::vector<int64_t> self = SelfTimes(r.spans());
  EXPECT_EQ(self[0], 100 - 40 - 30);
  EXPECT_EQ(self[1], 40 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenAreMerged) {
  SpanRecorder r;
  const int32_t root = r.Add({"root", -1, 7, 0, 100});
  r.Add({"x", root, 7, 10, 40});
  r.Add({"y", root, 7, 30, 60});  // Overlaps x: union is [10, 60).
  r.Add({"z", root, 7, 90, 120});  // Overhangs the parent: counts [90, 100).
  r.Add({"w", root, 7, 15, 20});  // Inside x.
  const std::vector<int64_t> self = SelfTimes(r.spans());
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(SelfTime, TabulateGroupsByName) {
  SpanRecorder r;
  const int32_t root = r.Add({"op", -1, 1, 0, 10});
  r.Add({"call", root, 1, 2, 6});
  const int32_t root2 = r.Add({"op", -1, 2, 20, 40});
  r.Add({"call", root2, 2, 20, 30});
  const SpanTable t = Tabulate({&r});
  EXPECT_EQ(t.self_ns.at("op"), (std::vector<double>{6, 10}));
  EXPECT_EQ(t.duration_ns.at("call"), (std::vector<double>{4, 10}));
  EXPECT_TRUE(t.is_root.at("op"));
  EXPECT_FALSE(t.is_root.at("call"));
}

TEST(Ladder, BacklogGrowth) {
  EXPECT_FALSE(BacklogGrowing({0, 1, 0, 2, 1, 0, 1, 3, 0, 1}));
  std::vector<uint32_t> rising;
  for (uint32_t i = 0; i < 100; ++i) rising.push_back(i);
  EXPECT_TRUE(BacklogGrowing(rising));
  EXPECT_FALSE(BacklogGrowing({}));
}

TEST(Ladder, SelectsLastPassingStepFromTheBottom) {
  const double limit = 1000;
  std::vector<LadderStep> steps = {
      {10'000, 100, 5000, false},
      {20'000, 200, 5000, false},
      {30'000, 900, 5000, false},
      {40'000, 5000, 5000, false},  // Over the limit.
      {50'000, 300, 5000, false},   // Passes, but above a failure.
  };
  EXPECT_DOUBLE_EQ(SelectMaxRate(steps, limit), 30'000);

  // A step under the limit but with a growing backlog fails.
  steps[2].backlog_growing = true;
  EXPECT_DOUBLE_EQ(SelectMaxRate(steps, limit), 20'000);

  steps[0].p99_us = 2000;
  EXPECT_DOUBLE_EQ(SelectMaxRate(steps, limit), 0);
  EXPECT_DOUBLE_EQ(SelectMaxRate({}, limit), 0);
}

TEST(Checkers, CipherCatchesOneFlippedByte) {
  std::vector<uint8_t> plain(8192), stored(8192);
  for (size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<uint8_t>(i * 37 + 11);
    stored[i] = CipherByte(plain[i], 16384 + i);
  }
  EXPECT_TRUE(CiphertextMatches(plain.data(), stored.data(), 8192, 16384));
  for (const size_t at : {0, 1, 4242, 4243, 8191}) {
    stored[at] ^= 0x01;
    EXPECT_FALSE(CiphertextMatches(plain.data(), stored.data(), 8192, 16384))
        << "flipped byte " << at;
    stored[at] ^= 0x01;
  }
}

// The host-side cipher must model the graft the workload installs: write
// through the real stream graft and compare the stored bytes.
TEST(Checkers, CipherReferenceMatchesTheStreamGraft) {
  vino::VinoKernel kernel;
  vino::Result<vino::FileId> file = kernel.fs().CreateFile("f", 4 * 8192);
  ASSERT_TRUE(file.ok());
  vino::Result<vino::OpenFile*> open = kernel.fs().Open(*file);
  ASSERT_TRUE(open.ok());
  vino::Result<std::shared_ptr<vino::Graft>> cipher =
      kernel.LoadGraftFromSource(kCipherSource, "cipher", {7, false});
  ASSERT_TRUE(cipher.ok());
  ASSERT_EQ(kernel.loader().InstallFunction((*open)->stream_point().name(),
                                            *cipher),
            vino::Status::kOk);
  std::vector<uint8_t> plain(8192);
  for (size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<uint8_t>(i * 13 + 1);
  ASSERT_TRUE((*open)->WriteBytes(8192, plain.size(), plain.data()).ok());
  for (uint64_t at = 8192; at < 16384; at += 4096) {
    vino::Result<vino::BlockId> block = kernel.fs().BlockFor(*file, at);
    ASSERT_TRUE(block.ok());
    EXPECT_TRUE(CiphertextMatches(plain.data() + (at - 8192),
                                  kernel.fs().BlockData(*block), 4096, at));
  }
}

TEST(Checkers, HttpCatchesWrongBody) {
  const std::string body = "HTTP/1.0 200 OK\r\n\r\ntenant 7";
  EXPECT_TRUE(HttpBodyMatches(body, body));
  EXPECT_FALSE(HttpBodyMatches(body, "HTTP/1.0 200 OK\r\n\r\ntenant 8"));
  EXPECT_FALSE(HttpBodyMatches(body, ""));
}

TEST(Checkers, TierReferenceCatchesTierMismatch) {
  vino::VinoKernel kernel;
  vino::Result<vino::Program> inst = vino::Instrument(
      FamilyProgram(1, "evict"), vino::MisfitOptions{kFamilyArenaLog2});
  ASSERT_TRUE(inst.ok());
  vino::Result<vino::SignedGraft> sg = kernel.toolchain().Sign(*inst);
  ASSERT_TRUE(sg.ok());
  vino::Result<std::shared_ptr<vino::Graft>> graft =
      kernel.loader().Load(*sg, {vino::GraftIdentity{5, false}, nullptr});
  ASSERT_TRUE(graft.ok());
  vino::FunctionGraftPoint point(
      "test.evict", [](std::span<const uint64_t>) { return 99ull; },
      vino::FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(),
      &kernel.ns());
  ASSERT_EQ(point.Replace(*graft), vino::Status::kOk);

  TierReference ref(*inst, &kernel.host(), 4096, 1'000'000);
  const uint64_t args[2] = {1234, 5};
  const uint64_t observed = point.Invoke(args);
  EXPECT_EQ((*graft)->tier_runs(vino::ExecTier::kTier1), 1u);
  EXPECT_EQ(observed, FamilyResult(1, 1234, 5));
  EXPECT_TRUE(ref.Check(args, observed));
  EXPECT_FALSE(ref.Check(args, observed + 1));
}

}  // namespace
}  // namespace perfbench
