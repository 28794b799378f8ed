// Continuous trace spooling: the flight recorder, made durable.
//
// The per-thread rings (src/base/trace.h) keep only the most recent ~4096
// records per thread — enough to explain the last abort, not enough to
// attribute costs over a long deployment (ROADMAP: "long traced runs
// wrap"). This layer closes that gap with three pieces:
//
//  1. A versioned, CRC-checked, length-prefixed binary *spool format*:
//     a 16-byte file header followed by self-describing batches of
//     TaggedRecords. Batches carry a monotonic sequence number and the
//     drainer's cumulative loss counter, so a reader always knows how much
//     history it is missing, and a torn tail or a flipped bit costs one
//     batch, never the file.
//  2. SpoolWriter / SpoolFollower: the durable TraceSink and its reader.
//     The writer is steady-state allocation-free (fixed batch buffer,
//     raw fd writes); the reader tolerates truncated tails, corrupt
//     batches, and empty files — partial parse with a status, never a
//     crash — and can tail a live file (`graftstat --follow`).
//  3. SpoolDrainer: a background thread owned by VinoKernel that
//     periodically DrainInto()s the rings through a DrainCursor into a
//     SpoolWriter. Cadence is adaptive: drain-time ring occupancy above
//     the hot threshold halves the sleep (down to min), occupancy below
//     the cold threshold doubles it (up to max) — bursty workloads get
//     drained before rings wrap, idle ones cost one cheap scan per max
//     interval. Writers never see the drainer: they keep posting with
//     relaxed stores; all coordination is the rings' existing lock-free
//     snapshot protocol.
//
// Format (all fields native-endian; record_bytes pins the layout):
//
//   FileHeader  { magic "VINOSPL1", version u32, record_bytes u32 }
//   Batch*      { BatchHeader, TaggedRecord[record_count] }
//   BatchHeader { magic "BTCH", flags u32, batch_seq u64, lost_total u64,
//                 record_count u32, payload_crc u32 }
//
// A batch with kBatchFlagClose set is the writer's trailer: the spool was
// closed cleanly and a follower may stop waiting for more. Any other flag
// bit is ignored, so a batch with an unknown flag reads like any other.

#ifndef VINOLITE_SRC_BASE_TRACE_SPOOL_H_
#define VINOLITE_SRC_BASE_TRACE_SPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/base/trace.h"

namespace vino {
namespace spool {

// "VINOSPL1" read as a little-endian u64.
inline constexpr uint64_t kFileMagic = 0x314C50534F4E4956ull;
inline constexpr uint32_t kFormatVersion = 1;
// "BTCH" read as a little-endian u32.
inline constexpr uint32_t kBatchMagic = 0x48435442u;
inline constexpr uint32_t kBatchFlagClose = 1u << 0;
// Upper bound a reader will believe; also the writer's auto-flush point.
// 4096 records × 48 B ≈ 192 KiB per batch.
inline constexpr uint32_t kMaxBatchRecords = 4096;

struct FileHeader {
  uint64_t magic = kFileMagic;
  uint32_t version = kFormatVersion;
  uint32_t record_bytes = sizeof(trace::TaggedRecord);
};
static_assert(sizeof(FileHeader) == 16, "spool file header is 16 bytes");

struct BatchHeader {
  uint32_t magic = kBatchMagic;
  uint32_t flags = 0;
  uint64_t batch_seq = 0;
  uint64_t lost_total = 0;  // Drainer's cumulative ring-wrap loss so far.
  uint32_t record_count = 0;
  uint32_t payload_crc = 0;  // CRC-32 (IEEE) of the payload bytes.
};
static_assert(sizeof(BatchHeader) == 32, "spool batch header is 32 bytes");
static_assert(std::is_trivially_copyable_v<trace::TaggedRecord> &&
                  sizeof(trace::TaggedRecord) == 48,
              "spool payload is flat 48-byte TaggedRecords");

// Standard CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF):
// Crc32("123456789") == 0xCBF43926.
[[nodiscard]] uint32_t Crc32(const void* data, size_t len);

// ---------------------------------------------------------------------------
// Writer.

// The durable TraceSink. OnRecord appends to a fixed in-memory batch;
// Commit() writes the pending records as one CRC'd batch; Close() commits
// and appends the close trailer. Errors (disk full, bad path) are sticky:
// the first failure is kept in status() and later writes become no-ops, so
// a dying disk can never take the traced kernel down with it.
//
// Steady-state allocation-free after Open(): the batch buffer is reserved
// once and raw ::write() bypasses stdio's lazily-allocated buffering (the
// alloc_test gate covers a live drainer).
class SpoolWriter : public trace::TraceSink {
 public:
  SpoolWriter() = default;
  ~SpoolWriter() override;

  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  // Creates/truncates `path` and writes the file header.
  Status Open(const std::string& path);

  // Buffers one record; auto-commits when the batch reaches
  // kMaxBatchRecords.
  void OnRecord(const trace::TaggedRecord& record) override;

  // The loss counter stamped into subsequent batch headers (monotonic;
  // the drainer refreshes it after every ring scan).
  void set_lost_total(uint64_t lost_total) { lost_total_ = lost_total; }

  // Flushes the pending batch, if any.
  Status Commit();

  // Commit + close trailer + fdatasync + close. Idempotent.
  Status Close();

  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] uint64_t batches_written() const { return batches_; }
  [[nodiscard]] uint64_t records_written() const { return records_; }
  [[nodiscard]] uint64_t bytes_written() const { return bytes_; }

 private:
  Status WriteBatch(uint32_t flags);
  void WriteAll(const void* data, size_t len);

  int fd_ = -1;
  Status status_ = Status::kOk;
  std::vector<trace::TaggedRecord> pending_;
  uint64_t lost_total_ = 0;
  uint64_t batch_seq_ = 0;
  uint64_t batches_ = 0;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Reader.

struct ReadStats {
  uint64_t batches = 0;          // Intact batches delivered.
  uint64_t corrupt_batches = 0;  // CRC or header failures skipped.
  uint64_t records = 0;
  uint64_t lost_total = 0;  // Highest loss counter seen in a batch header.
  bool truncated = false;   // File ends mid-header or mid-payload.
  bool closed = false;      // The writer's close trailer was seen.
  // batch_seq continuity: next_batch_seq is one past the last framed
  // batch; seq_gaps counts framed batches that broke the expected sequence
  // (a hole mid-stream, or a writer that restarted the file).
  uint64_t next_batch_seq = 0;
  uint64_t seq_gaps = 0;
};

// The one spool reader. Tails a spool file: Poll() delivers every
// *complete* batch appended since the previous Poll, leaving a partial tail
// for next time — the reader behind ReadSpoolChain and `graftstat --spool`
// / `--follow`.
class SpoolFollower {
 public:
  SpoolFollower() = default;
  ~SpoolFollower();

  SpoolFollower(const SpoolFollower&) = delete;
  SpoolFollower& operator=(const SpoolFollower&) = delete;

  // Opens `path` and validates its file header: kNotFound when there is no
  // such file, kSpoolTruncated for an empty/short file, kSpoolCorrupt for a
  // bad magic/version/record size. The first two leave the follower
  // re-openable, so a tailer racing a writer's startup calls Open again
  // (with the same path) until the header lands.
  Status Open(const std::string& path);

  // Appends the records of every complete, intact batch now available.
  // Returns kOk (more may come), or kSpoolCorrupt if an unrecoverable
  // header corruption stopped the scan (no way to resynchronize).
  //
  // An idle tail whose file was renamed away, replaced, or truncated below
  // what was already consumed (a writer restarted underneath the stale fd)
  // has read all the old file had to give: Poll reopens the path and reads
  // the new file from its header. The restarted stream's batch_seq reset
  // counts as a seq gap; a replacement that is not there yet (or whose
  // header is short) is retried on the next Poll.
  Status Poll(std::vector<trace::TaggedRecord>& out);

  [[nodiscard]] const ReadStats& stats() const { return stats_; }
  [[nodiscard]] bool closed() const { return stats_.closed; }

 private:
  // Opens path_ at its header; Open's status contract.
  Status OpenFile();
  // Reads every complete batch after offset_ (one Poll pass over one file).
  Status ReadBatches(std::vector<trace::TaggedRecord>& out);
  // True when path_ no longer names the open file: unlinked, renamed away
  // (a different inode at the path now), or shorter than offset_.
  [[nodiscard]] bool Displaced() const;

  std::string path_;
  int fd_ = -1;
  uint64_t offset_ = 0;  // First byte not yet consumed.
  bool dead_ = false;    // Unrecoverable corruption; stop scanning.
  bool saw_seq_ = false;
  uint64_t dev_ = 0;  // Identity of the opened file, for Displaced().
  uint64_t ino_ = 0;
  ReadStats stats_;
};

// The one-shot reader: open, drain to the current end, classify. Intact
// batches are always appended to `out`; the status says how the stream
// ended:
//   kOk              clean EOF (close trailer or exact batch boundary —
//                    a live, unclosed stream ends kOk too),
//   kSpoolTruncated  partial batch at the tail (torn write / live file;
//                    also an empty file or a short header),
//   kSpoolCorrupt    bad header or ≥1 batch with a CRC mismatch,
//   kNotFound        no such file.
Status ReadSpoolChain(const std::string& path,
                      std::vector<trace::TaggedRecord>& out,
                      ReadStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Drainer.

// The background thread that turns the flight recorder into a durable
// pipeline: DrainCursor → SpoolWriter on an occupancy-adaptive cadence.
class SpoolDrainer {
 public:
  struct Options {
    // Spool file path. Leaving it empty and setting the VINO_SPOOL
    // environment variable to a directory makes VinoKernel derive a
    // per-kernel path under it (DeriveEnvSpoolOptions below).
    std::string path;

    // Cadence bounds. The drainer sleeps `interval`, starting at min;
    // after each drain the interval halves (≥ min) when the fullest ring
    // was ≥ hot‰ pending, doubles (≤ max) when < cold‰.
    uint64_t min_interval_us = 2'000;
    uint64_t max_interval_us = 100'000;
    uint32_t hot_occupancy_permille = 500;
    uint32_t cold_occupancy_permille = 125;
  };

  struct Stats {
    uint64_t drains = 0;
    uint64_t records = 0;
    uint64_t batches = 0;
    uint64_t bytes = 0;
    uint64_t lost_total = 0;   // Ring-wrap loss the drainer arrived late for.
    uint64_t interval_us = 0;  // Current adaptive sleep.
    uint32_t last_occupancy_permille = 0;
    Status writer_status = Status::kOk;
  };

  // Opens the spool and starts the thread. Fails (with the writer's open
  // status) without leaking a thread.
  [[nodiscard]] static Result<std::unique_ptr<SpoolDrainer>> Start(
      const Options& options);

  ~SpoolDrainer();  // Stop().

  SpoolDrainer(const SpoolDrainer&) = delete;
  SpoolDrainer& operator=(const SpoolDrainer&) = delete;

  // Final drain, close trailer, join. Idempotent.
  void Stop();

  // One synchronous drain cycle (tests, and deterministic spooling in
  // graftstat --spool-out). Safe against the background thread.
  void DrainNow();

  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& path() const { return options_.path; }

 private:
  explicit SpoolDrainer(const Options& options);

  void Loop();
  void DrainOnceLocked();

  Options options_;

  // Guards cursor_, writer_, and stats_ against DrainNow/Stop racing the
  // background thread. Never touched by trace writers.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  trace::DrainCursor cursor_;
  SpoolWriter writer_;
  Stats stats_;

  std::thread thread_;
};

// Returns true when spooling is requested: an explicitly non-empty
// options->path is left alone; otherwise VINO_SPOOL=<dir> derives the
// per-kernel file `<dir>/vspool.<pid>.<k>.bin`, where k counts the
// process's spooling kernels. Used by VinoKernel and by graftstat's
// self-test workload, so any spool-emitting process names its file alike.
bool DeriveEnvSpoolOptions(SpoolDrainer::Options* options);

}  // namespace spool
}  // namespace vino

#endif  // VINOLITE_SRC_BASE_TRACE_SPOOL_H_
