// Spool robustness: the format round-trips, and every way a spool file can
// be damaged — zero-length, bad header, truncated tail, flipped payload bit
// — yields a clean partial parse with a status, never a crash. Plus the
// SpoolDrainer end-to-end path and its adaptive cadence policy.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/base/trace.h"
#include "src/base/trace_spool.h"

namespace vino {
namespace {

trace::TaggedRecord MakeRecord(uint64_t seq, uint64_t os_id = 7) {
  trace::TaggedRecord tagged;
  tagged.record.time_ns = 1000 + seq;
  tagged.record.event = static_cast<uint16_t>(trace::Event::kLockAcquire);
  tagged.record.tag = 3;
  tagged.record.a32 = static_cast<uint32_t>(seq);
  tagged.record.a = seq;
  tagged.record.b = seq ^ 0xABCDu;
  tagged.os_id = os_id;
  tagged.seq = seq;
  return tagged;
}

class TraceSpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "vino_spool_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(::getpid()) + ".bin";
    trace::ResetForTest();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    trace::SetEnabled(false);
    trace::ResetForTest();
  }
  std::string path_;
};

TEST_F(TraceSpoolTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 (IEEE) check value.
  EXPECT_EQ(spool::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(spool::Crc32("", 0), 0u);
}

TEST_F(TraceSpoolTest, WriterReaderRoundTrip) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 10; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  writer.set_lost_total(5);
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 10; i < 13; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  writer.set_lost_total(9);
  ASSERT_EQ(writer.Close(), Status::kOk);
  EXPECT_EQ(writer.records_written(), 13u);
  EXPECT_EQ(writer.batches_written(), 3u);  // Two data batches + trailer.

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kOk);
  ASSERT_EQ(records.size(), 13u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].os_id, 7u);
    EXPECT_EQ(records[i].record.a, i);
    EXPECT_EQ(records[i].record.b, i ^ 0xABCDu);
    EXPECT_EQ(records[i].record.time_ns, 1000 + i);
  }
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.corrupt_batches, 0u);
  EXPECT_EQ(stats.lost_total, 9u);  // The trailer carries the final counter.
  EXPECT_TRUE(stats.closed);
  EXPECT_FALSE(stats.truncated);
}

TEST_F(TraceSpoolTest, ZeroLengthFileIsCleanError) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolTruncated);
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.batches, 0u);
}

TEST_F(TraceSpoolTest, BadFileHeaderIsCleanError) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[32] = "definitely not a spool header..";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);

  std::vector<trace::TaggedRecord> records;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records), Status::kSpoolCorrupt);
  EXPECT_TRUE(records.empty());
}

TEST_F(TraceSpoolTest, MissingFileIsCleanError) {
  std::vector<trace::TaggedRecord> records;
  EXPECT_EQ(spool::ReadSpoolChain(path_ + ".nope", records), Status::kNotFound);
  EXPECT_TRUE(records.empty());
}

TEST_F(TraceSpoolTest, TruncatedTailYieldsCompleteBatchesOnly) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 6; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 6; i < 10; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  const uint64_t full_bytes = writer.bytes_written();

  // Cut into the second data batch's payload: everything after the first
  // batch must be withheld, everything before it delivered.
  const uint64_t keep = sizeof(spool::FileHeader) +
                        sizeof(spool::BatchHeader) +
                        6 * sizeof(trace::TaggedRecord) +
                        sizeof(spool::BatchHeader) + 10;
  ASSERT_LT(keep, full_bytes);
  ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(keep)), 0);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolTruncated);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.back().seq, 5u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_FALSE(stats.closed);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.corrupt_batches, 0u);
}

TEST_F(TraceSpoolTest, CorruptBatchCrcIsSkippedNotFatal) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 4; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 4; i < 9; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 9; i < 12; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);

  // Flip one byte inside the SECOND (middle) batch's payload.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f,
                       static_cast<long>(sizeof(spool::FileHeader) +
                                         sizeof(spool::BatchHeader) +
                                         4 * sizeof(trace::TaggedRecord) +
                                         sizeof(spool::BatchHeader) + 5),
                       SEEK_SET),
            0);
  const uint8_t evil = 0xFF;
  ASSERT_EQ(std::fwrite(&evil, 1, 1, f), 1u);
  std::fclose(f);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  // One flipped bit costs one batch: the batches on either side and the
  // trailer still parse, and the overall status reports the corruption.
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kSpoolCorrupt);
  EXPECT_EQ(stats.corrupt_batches, 1u);
  EXPECT_EQ(stats.batches, 3u);  // First and third data batch + trailer.
  EXPECT_TRUE(stats.closed);
  // Exactly the bad batch's records (seq 4..8) are gone; its neighbours
  // arrive whole and in order.
  std::vector<uint64_t> seqs;
  for (const auto& r : records) {
    seqs.push_back(r.seq);
  }
  EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 1, 2, 3, 9, 10, 11}));
  EXPECT_EQ(records[4].record.b, 9u ^ 0xABCDu);
}

TEST_F(TraceSpoolTest, FollowerDeliversBatchesIncrementally) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 5; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);

  spool::SpoolFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_FALSE(follower.closed());

  // Nothing new: a poll is a no-op, not an error.
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 5u);

  for (uint64_t i = 5; i < 8; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 8u);
  EXPECT_TRUE(follower.closed());
  EXPECT_EQ(records.back().seq, 7u);
}

TEST_F(TraceSpoolTest, DrainerSpoolsPostedRecordsEndToEnd) {
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  for (uint64_t i = 0; i < 100; ++i) {
    trace::Post(trace::Event::kResourceCharge, 0, 0, i, i * 2);
  }
  drainer->DrainNow();
  for (uint64_t i = 100; i < 150; ++i) {
    trace::Post(trace::Event::kResourceCharge, 0, 0, i, i * 2);
  }
  drainer->Stop();  // Final drain + trailer.

  const spool::SpoolDrainer::Stats stats = drainer->stats();
  EXPECT_EQ(stats.records, 150u);
  EXPECT_EQ(stats.lost_total, 0u);
  EXPECT_EQ(stats.writer_status, Status::kOk);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats read_stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &read_stats), Status::kOk);
  EXPECT_TRUE(read_stats.closed);
  ASSERT_EQ(records.size(), 150u);
  // Exactly-once, in per-thread order: seq is dense and the payload matches.
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].record.a, i);
    EXPECT_EQ(records[i].record.b, i * 2);
  }
}

TEST_F(TraceSpoolTest, DrainerReportsWrapLossInBatches) {
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  // The background thread must not drain before we wrap: park it at a huge
  // interval and drive drains by hand.
  options.min_interval_us = 10'000'000;
  options.max_interval_us = 10'000'000;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  const uint64_t total = trace::kRingRecords + 500;
  for (uint64_t i = 0; i < total; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, i, 0);
  }
  drainer->Stop();

  EXPECT_GE(drainer->stats().lost_total, 500u);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats read_stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &read_stats), Status::kOk);
  // The spool says exactly how much history it is missing.
  EXPECT_GE(read_stats.lost_total, 500u);
  EXPECT_EQ(read_stats.records + read_stats.lost_total, total);
  // What survived is the most recent window, in order.
  EXPECT_EQ(records.back().record.a, total - 1);
}

TEST_F(TraceSpoolTest, DrainerCadenceAdaptsToOccupancy) {
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  // Intervals long enough that the background thread never drains on its
  // own during the test: every adaptation step below is ours.
  options.min_interval_us = 10'000'000;
  options.max_interval_us = 80'000'000;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  // Idle rings: each drain doubles the sleep until it parks at max.
  drainer->DrainNow();
  drainer->DrainNow();
  drainer->DrainNow();
  drainer->DrainNow();
  EXPECT_EQ(drainer->stats().interval_us, 80'000'000u);

  // A burst past the hot threshold (≥ 50% of ring capacity pending) makes
  // the next drain halve the sleep again.
  for (uint64_t i = 0; i < trace::kRingRecords * 3 / 4; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, i, 0);
  }
  drainer->DrainNow();
  EXPECT_EQ(drainer->stats().interval_us, 40'000'000u);
  EXPECT_GE(drainer->stats().last_occupancy_permille, 500u);
  drainer->Stop();
}

TEST_F(TraceSpoolTest, StartRejectsBadOptions) {
  spool::SpoolDrainer::Options options;  // Empty path.
  EXPECT_FALSE(spool::SpoolDrainer::Start(options).ok());
  options.path = "/nonexistent-dir-xyz/spool.bin";
  EXPECT_FALSE(spool::SpoolDrainer::Start(options).ok());
  options.path = path_;
  options.min_interval_us = 0;
  EXPECT_FALSE(spool::SpoolDrainer::Start(options).ok());
}

TEST_F(TraceSpoolTest, FollowerOpenIsRetryableBeforeFirstData) {
  // Tailing a kernel that has not started yet: Open keeps failing softly
  // until the file's header lands, then succeeds — it must never wedge into
  // kAlreadyExists (graftstat's attach loop retries it).
  spool::SpoolFollower follower;
  EXPECT_EQ(follower.Open(path_), Status::kNotFound);
  EXPECT_EQ(follower.Open(path_), Status::kNotFound);

  // The writer has created the file but its header has not landed yet.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_EQ(follower.Open(path_), Status::kSpoolTruncated);

  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  writer.OnRecord(MakeRecord(0));
  ASSERT_EQ(writer.Commit(), Status::kOk);
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 1u);
  ASSERT_EQ(writer.Close(), Status::kOk);
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
}

TEST_F(TraceSpoolTest, FollowerReopensWhenFileRotatedAwayUnderneath) {
  // The --follow regression: a spool renamed away mid-tail (think
  // logrotate) used to park the reader on its stale fd forever. The reader
  // notices the displacement, finishes the old file, and re-reads the new
  // one; the restarted stream's batch_seq reset is reported as a sequence
  // gap, not silently merged.
  spool::SpoolWriter writer1;
  ASSERT_EQ(writer1.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 4; ++i) {
    writer1.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer1.Commit(), Status::kOk);
  ASSERT_EQ(writer1.Commit(), Status::kOk);  // No-op, keeps file unclosed.

  spool::SpoolFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  ASSERT_EQ(records.size(), 4u);

  // Rotate the file away and start a new stream at the same path.
  const std::string moved = path_ + ".old";
  ASSERT_EQ(std::rename(path_.c_str(), moved.c_str()), 0);
  spool::SpoolWriter writer2;
  ASSERT_EQ(writer2.Open(path_), Status::kOk);
  for (uint64_t i = 100; i < 103; ++i) {
    writer2.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer2.Close(), Status::kOk);

  // One poll cycle: detect displacement, reopen, drain the new file.
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[4].seq, 100u);
  EXPECT_GE(follower.stats().seq_gaps, 1u);  // The seq-0 restart.
  EXPECT_EQ(follower.stats().records, 7u);   // Both files, one ledger.
  std::remove(moved.c_str());
}

TEST_F(TraceSpoolTest, FollowerReopensWhenFileTruncatedUnderneath) {
  spool::SpoolWriter writer1;
  ASSERT_EQ(writer1.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 5; ++i) {
    writer1.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer1.Commit(), Status::kOk);

  spool::SpoolFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  ASSERT_EQ(records.size(), 5u);

  // A restarted writer truncates the same path (same inode, shorter file):
  // st_size < consumed offset is the displacement signal.
  spool::SpoolWriter writer2;
  ASSERT_EQ(writer2.Open(path_), Status::kOk);
  writer2.OnRecord(MakeRecord(200));
  ASSERT_EQ(writer2.Close(), Status::kOk);

  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.back().seq, 200u);
}

TEST_F(TraceSpoolTest, DrainerVersusWritersAccountingStaysLossless) {
  // Drainer-vs-writers stress (TSan covers this test via tools/check.sh):
  // everything four posting threads produce is either delivered through
  // the spool or counted in lost_total — never silently dropped.
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trace::Post(trace::Event::kResourceCharge,
                    static_cast<uint16_t>(t), 0, i, i);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  drainer->Stop();

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kOk);
  EXPECT_TRUE(stats.closed);
  EXPECT_EQ(stats.seq_gaps, 0u);
  // The lossless ledger: delivered + lost == posted.
  EXPECT_EQ(stats.records + stats.lost_total, kThreads * kPerThread);
  EXPECT_EQ(records.size(), stats.records);
  EXPECT_EQ(drainer->stats().records, stats.records);
}

TEST_F(TraceSpoolTest, EnvSpoolDirDerivesOnePlainFilePerKernel) {
  // (check.sh runs the whole suite with VINO_SPOOL set — park it.)
  const char* spool_dir = std::getenv("VINO_SPOOL");
  const std::string saved = spool_dir != nullptr ? spool_dir : "";
  ::unsetenv("VINO_SPOOL");
  spool::SpoolDrainer::Options plain;
  EXPECT_FALSE(spool::DeriveEnvSpoolOptions(&plain));  // No env, no path.

  spool::SpoolDrainer::Options explicit_path;
  explicit_path.path = path_;
  EXPECT_TRUE(spool::DeriveEnvSpoolOptions(&explicit_path));
  EXPECT_EQ(explicit_path.path, path_);  // An explicit path wins.

  ::setenv("VINO_SPOOL", "/spool-dir", 1);
  spool::SpoolDrainer::Options a;
  spool::SpoolDrainer::Options b;
  ASSERT_TRUE(spool::DeriveEnvSpoolOptions(&a));
  ASSERT_TRUE(spool::DeriveEnvSpoolOptions(&b));
  const std::string prefix =
      "/spool-dir/vspool." + std::to_string(::getpid()) + ".";
  EXPECT_TRUE(a.path.starts_with(prefix) && a.path.ends_with(".bin"))
      << a.path;
  EXPECT_TRUE(b.path.starts_with(prefix) && b.path.ends_with(".bin"))
      << b.path;
  EXPECT_NE(a.path, b.path);  // One file per kernel.

  ::unsetenv("VINO_SPOOL");
  if (spool_dir != nullptr) {
    ::setenv("VINO_SPOOL", saved.c_str(), 1);
  }
}

}  // namespace
}  // namespace vino
