#include "src/base/trace_spool.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "src/base/log.h"

namespace vino {
namespace spool {
namespace {

// CRC-32 (IEEE, reflected polynomial 0xEDB88320), table built at compile
// time — no zlib dependency for a 16-line loop.
constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

// Reads exactly `len` bytes at `offset`, or reports how many were there.
// Using pread keeps the follower's file position independent of the
// writer's append position (same file may be open in both roles in tests).
ssize_t PReadAll(int fd, void* buf, size_t len, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, p + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      break;  // EOF.
    }
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// SpoolWriter.

SpoolWriter::~SpoolWriter() {
  if (fd_ >= 0) {
    (void)Close();
  }
}

Status SpoolWriter::Open(const std::string& path) {
  if (fd_ >= 0) {
    return Status::kAlreadyExists;
  }
  pending_.reserve(kMaxBatchRecords);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    status_ = Status::kInvalidArgs;
    return status_;
  }
  const FileHeader header;
  WriteAll(&header, sizeof(header));
  return status_;
}

void SpoolWriter::OnRecord(const trace::TaggedRecord& record) {
  if (fd_ < 0 || !IsOk(status_)) {
    return;  // Sticky failure: spooling degrades to a no-op, never throws.
  }
  pending_.push_back(record);
  if (pending_.size() >= kMaxBatchRecords) {
    (void)WriteBatch(0);
  }
}

Status SpoolWriter::Commit() {
  if (fd_ < 0) {
    return Status::kUnavailable;
  }
  if (pending_.empty()) {
    return status_;
  }
  return WriteBatch(0);
}

Status SpoolWriter::Close() {
  if (fd_ < 0) {
    return status_;
  }
  if (!pending_.empty()) {
    (void)WriteBatch(0);
  }
  (void)WriteBatch(kBatchFlagClose);  // Trailer: record_count == 0.
  (void)::fdatasync(fd_);             // "Durable" means it survives us.
  ::close(fd_);
  fd_ = -1;
  return status_;
}

Status SpoolWriter::WriteBatch(uint32_t flags) {
  if (!IsOk(status_)) {
    pending_.clear();
    return status_;
  }
  BatchHeader header;
  header.flags = flags;
  header.batch_seq = batch_seq_++;
  header.lost_total = lost_total_;
  header.record_count = static_cast<uint32_t>(pending_.size());
  header.payload_crc =
      Crc32(pending_.data(), pending_.size() * sizeof(trace::TaggedRecord));
  WriteAll(&header, sizeof(header));
  WriteAll(pending_.data(), pending_.size() * sizeof(trace::TaggedRecord));
  if (IsOk(status_)) {
    ++batches_;
    records_ += pending_.size();
  }
  pending_.clear();
  return status_;
}

void SpoolWriter::WriteAll(const void* data, size_t len) {
  if (!IsOk(status_)) {
    return;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t put = 0;
  while (put < len) {
    const ssize_t n = ::write(fd_, p + put, len - put);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      status_ = Status::kUnavailable;
      VINO_LOG_WARN << "trace spool write failed (errno " << errno
                    << "); spooling disabled";
      return;
    }
    put += static_cast<size_t>(n);
  }
  bytes_ += len;
}

// ---------------------------------------------------------------------------
// SpoolFollower.

SpoolFollower::~SpoolFollower() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status SpoolFollower::Open(const std::string& path) {
  if (fd_ >= 0) {
    return Status::kAlreadyExists;
  }
  path_ = path;
  return OpenFile();
}

Status SpoolFollower::OpenFile() {
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::kNotFound;
  }
  FileHeader header;
  const ssize_t n = PReadAll(fd_, &header, sizeof(header), 0);
  if (n < static_cast<ssize_t>(sizeof(header))) {
    // Empty or short file: nothing parseable yet (a writer races its first
    // write, or the file is just empty). Close so Open can be retried.
    ::close(fd_);
    fd_ = -1;
    stats_.truncated = true;
    return Status::kSpoolTruncated;
  }
  if (header.magic != kFileMagic || header.version != kFormatVersion ||
      header.record_bytes != sizeof(trace::TaggedRecord)) {
    ::close(fd_);
    fd_ = -1;
    dead_ = true;
    return Status::kSpoolCorrupt;
  }
  struct stat st;
  if (::fstat(fd_, &st) == 0) {
    dev_ = static_cast<uint64_t>(st.st_dev);
    ino_ = static_cast<uint64_t>(st.st_ino);
  }
  stats_.truncated = false;
  offset_ = sizeof(header);
  return Status::kOk;
}

bool SpoolFollower::Displaced() const {
  struct stat st;
  if (::stat(path_.c_str(), &st) != 0) {
    return true;  // Unlinked or renamed away.
  }
  if (static_cast<uint64_t>(st.st_dev) != dev_ ||
      static_cast<uint64_t>(st.st_ino) != ino_) {
    return true;  // A different file sits at the path now.
  }
  return static_cast<uint64_t>(st.st_size) < offset_;  // Truncated under us.
}

Status SpoolFollower::Poll(std::vector<trace::TaggedRecord>& out) {
  if (path_.empty() || dead_) {
    return Status::kUnavailable;
  }
  for (;;) {
    if (fd_ < 0) {
      // Reopening a displaced file: its replacement may not exist yet, or
      // its header may not have landed; retry on the next Poll.
      const Status status = OpenFile();
      if (!IsOk(status)) {
        return status == Status::kSpoolCorrupt ? status : Status::kOk;
      }
    }
    const uint64_t before = offset_;
    const Status status = ReadBatches(out);
    if (!IsOk(status) || stats_.closed || offset_ != before || !Displaced()) {
      return status;
    }
    // Idle tail on a file that is no longer at the path: the old file has
    // given everything it will, so read the new one from its header.
    ::close(fd_);
    fd_ = -1;
  }
}

Status SpoolFollower::ReadBatches(std::vector<trace::TaggedRecord>& out) {
  for (;;) {
    BatchHeader header;
    ssize_t n = PReadAll(fd_, &header, sizeof(header), offset_);
    if (n == 0) {
      stats_.truncated = false;  // Clean batch boundary.
      return Status::kOk;
    }
    if (n < static_cast<ssize_t>(sizeof(header))) {
      stats_.truncated = true;  // Mid-header tail; retry next Poll.
      return Status::kOk;
    }
    if (header.magic != kBatchMagic || header.record_count > kMaxBatchRecords) {
      // Headers carry no CRC; an implausible one means the stream is
      // unrecoverable (lengths can no longer be trusted to resync).
      dead_ = true;
      ++stats_.corrupt_batches;
      return Status::kSpoolCorrupt;
    }
    // The payload lands straight in `out`; a short read or a CRC mismatch
    // shrinks it back.
    const size_t payload_bytes =
        static_cast<size_t>(header.record_count) * sizeof(trace::TaggedRecord);
    const size_t at = out.size();
    out.resize(at + header.record_count);
    n = PReadAll(fd_, out.data() + at, payload_bytes, offset_ + sizeof(header));
    if (n < static_cast<ssize_t>(payload_bytes)) {
      out.resize(at);
      stats_.truncated = true;  // Mid-payload tail; retry next Poll.
      return Status::kOk;
    }
    offset_ += sizeof(header) + payload_bytes;
    // A fully framed batch means the earlier partial read was just the
    // writer mid-append, not a torn tail: the flag describes the current
    // end of file, so it must not outlive the condition.
    stats_.truncated = false;
    // Continuity: every framed batch (intact or not) advances the expected
    // sequence; a mismatch is a hole in the stream.
    if (saw_seq_ && header.batch_seq != stats_.next_batch_seq) {
      ++stats_.seq_gaps;
    }
    saw_seq_ = true;
    stats_.next_batch_seq = header.batch_seq + 1;
    if (Crc32(out.data() + at, payload_bytes) != header.payload_crc) {
      // One flipped bit costs one batch: skip it, keep scanning — the
      // length prefix still frames the stream.
      out.resize(at);
      ++stats_.corrupt_batches;
      continue;
    }
    ++stats_.batches;
    stats_.records += header.record_count;
    if (header.lost_total > stats_.lost_total) {
      stats_.lost_total = header.lost_total;
    }
    if ((header.flags & kBatchFlagClose) != 0) {
      stats_.closed = true;
      return Status::kOk;
    }
  }
}

Status ReadSpoolChain(const std::string& path,
                      std::vector<trace::TaggedRecord>& out,
                      ReadStats* stats) {
  SpoolFollower follower;
  Status status = follower.Open(path);
  if (IsOk(status)) {
    status = follower.Poll(out);
  }
  if (stats != nullptr) {
    *stats = follower.stats();
  }
  if (!IsOk(status)) {
    return status;
  }
  if (follower.stats().corrupt_batches > 0) {
    return Status::kSpoolCorrupt;
  }
  if (follower.stats().truncated) {
    return Status::kSpoolTruncated;
  }
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// SpoolDrainer.

Result<std::unique_ptr<SpoolDrainer>> SpoolDrainer::Start(
    const Options& options) {
  if (options.path.empty() || options.min_interval_us == 0 ||
      options.max_interval_us < options.min_interval_us) {
    return Status::kInvalidArgs;
  }
  // make_unique needs a public constructor; new keeps it private.
  std::unique_ptr<SpoolDrainer> drainer(new SpoolDrainer(options));
  const Status open_status = drainer->writer_.Open(options.path);
  if (!IsOk(open_status)) {
    return open_status;
  }
  drainer->thread_ = std::thread([raw = drainer.get()] { raw->Loop(); });
  return drainer;
}

SpoolDrainer::SpoolDrainer(const Options& options) : options_(options) {
  stats_.interval_us = options_.min_interval_us;
}

SpoolDrainer::~SpoolDrainer() { Stop(); }

void SpoolDrainer::Stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard<std::mutex> guard(mutex_);
  DrainOnceLocked();  // Catch records posted while the thread wound down.
  writer_.Close();
  stats_.writer_status = writer_.status();
}

void SpoolDrainer::DrainNow() {
  std::lock_guard<std::mutex> guard(mutex_);
  DrainOnceLocked();
}

SpoolDrainer::Stats SpoolDrainer::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return stats_;
}

void SpoolDrainer::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const auto interval = std::chrono::microseconds(stats_.interval_us);
    cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) {
      return;  // Stop() runs the final drain after the join.
    }
    DrainOnceLocked();
  }
}

void SpoolDrainer::DrainOnceLocked() {
  const trace::DrainCursor::Stats drained = cursor_.DrainInto(writer_);
  writer_.set_lost_total(drained.lost_total);
  (void)writer_.Commit();

  ++stats_.drains;
  stats_.records += drained.records;
  stats_.lost_total = drained.lost_total;
  stats_.last_occupancy_permille = drained.max_occupancy_permille;
  stats_.batches = writer_.batches_written();
  stats_.bytes = writer_.bytes_written();
  stats_.writer_status = writer_.status();

  // Adaptive cadence: chase bursts, back off when idle. Multiplicative in
  // both directions so the interval settles within a few drains of a
  // workload shift.
  if (drained.max_occupancy_permille >= options_.hot_occupancy_permille) {
    stats_.interval_us = stats_.interval_us / 2 > options_.min_interval_us
                             ? stats_.interval_us / 2
                             : options_.min_interval_us;
  } else if (drained.max_occupancy_permille <
             options_.cold_occupancy_permille) {
    stats_.interval_us = stats_.interval_us * 2 < options_.max_interval_us
                             ? stats_.interval_us * 2
                             : options_.max_interval_us;
  }
}

// ---------------------------------------------------------------------------
// Environment derivation.

bool DeriveEnvSpoolOptions(SpoolDrainer::Options* options) {
  if (!options->path.empty()) {
    return true;  // Explicit path wins.
  }
  const char* dir = std::getenv("VINO_SPOOL");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  // One spool file per kernel per process: vspool.<pid>.<k>.bin, where k
  // counts this process's spooling kernels.
  static std::atomic<uint64_t> kernel_counter{0};
  const uint64_t k = kernel_counter.fetch_add(1, std::memory_order_relaxed);
  options->path = std::string(dir) + "/vspool." + std::to_string(::getpid()) +
                  "." + std::to_string(k) + ".bin";
  return true;
}

}  // namespace spool
}  // namespace vino
