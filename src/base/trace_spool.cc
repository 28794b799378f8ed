#include "src/base/trace_spool.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>

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
// Segment naming.

std::string SegmentPath(const std::string& base, uint64_t index) {
  return base + ".s" + std::to_string(index) + ".bin";
}

bool ParseSegmentPath(const std::string& path, std::string* base,
                      uint64_t* index) {
  static constexpr std::string_view kSuffix = ".bin";
  if (path.size() <= kSuffix.size() ||
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  const std::string stem = path.substr(0, path.size() - kSuffix.size());
  const size_t infix = stem.rfind(".s");
  if (infix == std::string::npos || infix + 2 >= stem.size()) {
    return false;
  }
  const std::string digits = stem.substr(infix + 2);
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  if (base != nullptr) {
    *base = stem.substr(0, infix);
  }
  if (index != nullptr) {
    *index = std::strtoull(digits.c_str(), nullptr, 10);
  }
  return true;
}

std::vector<uint64_t> ListSegments(const std::string& base) {
  std::vector<uint64_t> indices;
  std::string dir = ".";
  std::string name = base;
  const size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : base.substr(0, slash);
    name = base.substr(slash + 1);
  }
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return indices;
  }
  while (const dirent* entry = ::readdir(d)) {
    std::string candidate_base;
    uint64_t index = 0;
    if (ParseSegmentPath(entry->d_name, &candidate_base, &index) &&
        candidate_base == name) {
      indices.push_back(index);
    }
  }
  ::closedir(d);
  std::sort(indices.begin(), indices.end());
  return indices;
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
  rotating_ = false;
  base_ = path;
  pending_.reserve(kMaxBatchRecords);
  return OpenSegmentFile();
}

Status SpoolWriter::OpenRotating(const std::string& base,
                                 const Rotation& rotation) {
  if (fd_ >= 0) {
    return Status::kAlreadyExists;
  }
  if (rotation.segment_bytes == 0 || rotation.max_segments == 0) {
    status_ = Status::kInvalidArgs;
    return status_;
  }
  rotating_ = true;
  rotation_ = rotation;
  base_ = base;
  pending_.reserve(kMaxBatchRecords);
  return OpenSegmentFile();
}

Status SpoolWriter::OpenSegmentFile() {
  const std::string path =
      rotating_ ? SegmentPath(base_, segment_index_) : base_;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    status_ = Status::kInvalidArgs;
    return status_;
  }
  segment_bytes_ = 0;
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
  if (flags == 0) {
    MaybeRotate();  // Only data batches trigger rotation; trailers never do.
  }
  return status_;
}

void SpoolWriter::MaybeRotate() {
  if (!rotating_ || !IsOk(status_) ||
      segment_bytes_ < rotation_.segment_bytes) {
    return;
  }
  // The stream continues: trailer, next segment, reclaim the oldest.
  // batch_seq_ and lost_total_ are stream state, untouched by rotation.
  (void)WriteBatch(kBatchFlagRotate);  // pending_ is empty here.
  if (!IsOk(status_)) {
    return;
  }
  ::close(fd_);
  fd_ = -1;
  ++segment_index_;
  if (!IsOk(OpenSegmentFile())) {
    return;  // Sticky: spooling degrades to a no-op, history stays on disk.
  }
  while (segment_index_ - first_segment_ + 1 > rotation_.max_segments) {
    (void)::unlink(SegmentPath(base_, first_segment_).c_str());
    ++first_segment_;
    ++segments_reclaimed_;
  }
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
  segment_bytes_ += len;
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
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
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

bool SpoolFollower::DisplacedBy(const std::string& path) const {
  if (fd_ < 0) {
    return false;
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return true;  // Unlinked or renamed away.
  }
  if (static_cast<uint64_t>(st.st_dev) != dev_ ||
      static_cast<uint64_t>(st.st_ino) != ino_) {
    return true;  // A different file sits at the path now.
  }
  return static_cast<uint64_t>(st.st_size) < offset_;  // Truncated under us.
}

Status SpoolFollower::Poll(std::vector<trace::TaggedRecord>& out) {
  if (fd_ < 0 || dead_) {
    return Status::kUnavailable;
  }
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
    const size_t payload_bytes =
        static_cast<size_t>(header.record_count) * sizeof(trace::TaggedRecord);
    std::vector<trace::TaggedRecord> payload(header.record_count);
    n = PReadAll(fd_, payload.data(), payload_bytes,
                 offset_ + sizeof(header));
    if (n < static_cast<ssize_t>(payload_bytes)) {
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
    if (!saw_seq_) {
      saw_seq_ = true;
      stats_.first_batch_seq = header.batch_seq;
    } else if (header.batch_seq != stats_.next_batch_seq) {
      ++stats_.seq_gaps;
    }
    stats_.next_batch_seq = header.batch_seq + 1;
    if (Crc32(payload.data(), payload_bytes) != header.payload_crc) {
      // One flipped bit costs one batch: skip it, keep scanning — the
      // length prefix still frames the stream.
      ++stats_.corrupt_batches;
      continue;
    }
    ++stats_.batches;
    stats_.records += header.record_count;
    if (header.lost_total > stats_.lost_total) {
      stats_.lost_total = header.lost_total;
    }
    out.insert(out.end(), payload.begin(), payload.end());
    if ((header.flags & kBatchFlagClose) != 0) {
      stats_.closed = true;
      return Status::kOk;
    }
    if ((header.flags & kBatchFlagRotate) != 0) {
      stats_.rotated = true;  // Stream continues in the next segment.
      return Status::kOk;
    }
  }
}

// ---------------------------------------------------------------------------
// ChainedFollower.

Status ChainedFollower::Open(const std::string& path) {
  if (open_) {
    return Status::kAlreadyExists;
  }
  // Retryable until the first file actually opens: a kNotFound /
  // kSpoolTruncated return (the writer has not created the file, or its
  // header has not fully landed) leaves the chain re-openable, so a tailer
  // racing a kernel's startup just calls Open again. Retries must pass the
  // same path.
  if (path_.empty()) {
    totals_ = ReadStats{};
    totals_.segments = 0;  // Folded-segment count; stats() floors it at 1.
    std::string base;
    uint64_t index = 0;
    if (ParseSegmentPath(path, &base, &index)) {
      segmented_ = true;
      base_ = base;
      index_ = index;
    } else {
      struct stat st;
      if (::stat(path.c_str(), &st) != 0) {
        // Not a file; maybe a segment base whose ring already exists.
        const std::vector<uint64_t> segments = ListSegments(path);
        if (segments.empty()) {
          return Status::kNotFound;
        }
        segmented_ = true;
        base_ = path;
        index_ = segments.front();
      }
    }
    path_ = segmented_ ? SegmentPath(base_, index_) : path;
  }
  return OpenCurrent();
}

Status ChainedFollower::OpenCurrent() {
  if (!follower_) {
    follower_ = std::make_unique<SpoolFollower>();
  }
  const Status status = follower_->Open(path_);
  if (IsOk(status)) {
    open_ = true;
    if (seeded_seq_) {
      follower_->ExpectBatchSeq(expect_seq_);
    }
  }
  return status;
}

void ChainedFollower::FoldCurrent() {
  if (follower_) {
    const ReadStats& s = follower_->stats();
    totals_.batches += s.batches;
    totals_.corrupt_batches += s.corrupt_batches;
    totals_.records += s.records;
    totals_.lost_total = std::max(totals_.lost_total, s.lost_total);
    totals_.seq_gaps += s.seq_gaps;
    if (s.batches + s.corrupt_batches > 0) {
      if (totals_.segments == 0) {
        totals_.first_batch_seq = s.first_batch_seq;
      }
      seeded_seq_ = true;
      expect_seq_ = s.next_batch_seq;
      totals_.next_batch_seq = s.next_batch_seq;
    }
    if (open_) {
      ++totals_.segments;
    }
  }
  open_ = false;
  follower_.reset();  // Fresh offset and identity for the next file.
}

void ChainedFollower::AdvanceTo(uint64_t index) {
  FoldCurrent();
  index_ = index;
  path_ = SegmentPath(base_, index_);
}

Status ChainedFollower::Poll(std::vector<trace::TaggedRecord>& out) {
  if (path_.empty()) {
    return Status::kUnavailable;
  }
  for (;;) {
    if (!open_) {
      const Status status = OpenCurrent();
      if (status == Status::kSpoolCorrupt) {
        return status;
      }
      if (!IsOk(status)) {
        return Status::kOk;  // Not there / header short yet; retry later.
      }
    }
    const size_t before = out.size();
    const Status status = follower_->Poll(out);
    if (!IsOk(status)) {
      return status;  // Unrecoverable corruption in this segment.
    }
    {
      const ReadStats& s = follower_->stats();
      if (seeded_seq_ || s.batches + s.corrupt_batches > 0) {
        seeded_seq_ = true;
        expect_seq_ = s.next_batch_seq;
      }
    }
    if (follower_->closed()) {
      return Status::kOk;
    }
    if (follower_->rotated()) {
      if (!segmented_) {
        return Status::kOk;  // A lone file cannot chain; stop at its end.
      }
      AdvanceTo(index_ + 1);
      continue;
    }
    if (out.size() != before) {
      return Status::kOk;  // Made progress; the tail is up to date for now.
    }
    // Idle tail: notice a writer that rotated, renamed, or truncated the
    // file away under our stale fd.
    if (!follower_->DisplacedBy(path_)) {
      return Status::kOk;
    }
    if (segmented_) {
      // Our segment was reclaimed mid-read. Jump to the oldest survivor
      // after it; if the ring has nothing newer yet, keep waiting.
      const std::vector<uint64_t> segments = ListSegments(base_);
      uint64_t successor = 0;
      bool found = false;
      for (const uint64_t s : segments) {
        if (s > index_) {
          successor = s;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::kOk;
      }
      AdvanceTo(successor);
      continue;
    }
    // Single file replaced or truncated: fold what the old incarnation
    // gave us and re-read the new one from its header (a restarted writer
    // is a new stream, so its batch_seq reset shows up as a seq gap).
    FoldCurrent();
    continue;
  }
}

const ReadStats& ChainedFollower::stats() const {
  merged_ = totals_;
  merged_.truncated = false;
  merged_.closed = false;
  merged_.rotated = false;
  if (follower_) {
    const ReadStats& s = follower_->stats();
    merged_.batches += s.batches;
    merged_.corrupt_batches += s.corrupt_batches;
    merged_.records += s.records;
    merged_.lost_total = std::max(merged_.lost_total, s.lost_total);
    merged_.seq_gaps += s.seq_gaps;
    merged_.truncated = s.truncated;
    merged_.closed = s.closed;
    merged_.rotated = s.rotated;
    if (s.batches + s.corrupt_batches > 0) {
      if (totals_.segments == 0) {
        merged_.first_batch_seq = s.first_batch_seq;
      }
      merged_.next_batch_seq = s.next_batch_seq;
    }
  }
  merged_.segments = totals_.segments + (open_ ? 1 : 0);
  if (merged_.segments == 0) {
    merged_.segments = 1;
  }
  return merged_;
}

Status ReadSpoolChain(const std::string& path,
                      std::vector<trace::TaggedRecord>& out,
                      ReadStats* stats) {
  ChainedFollower chain;
  Status status = chain.Open(path);
  if (IsOk(status)) {
    status = chain.Poll(out);
  }
  if (stats != nullptr) {
    *stats = chain.stats();
  }
  if (!IsOk(status)) {
    return status;
  }
  const ReadStats& s = chain.stats();
  if (s.corrupt_batches > 0) {
    return Status::kSpoolCorrupt;
  }
  if (s.truncated) {
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
  const Status open_status =
      options.rotation.segment_bytes > 0
          ? drainer->writer_.OpenRotating(options.path, options.rotation)
          : drainer->writer_.Open(options.path);
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
  stats_.segments = writer_.segments_created();
  stats_.segments_reclaimed = writer_.segments_reclaimed();
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
  if (const char* bytes = std::getenv("VINO_SPOOL_SEGMENT_BYTES");
      bytes != nullptr && *bytes != '\0') {
    options->rotation.segment_bytes = std::strtoull(bytes, nullptr, 10);
  }
  if (const char* count = std::getenv("VINO_SPOOL_SEGMENTS");
      count != nullptr && *count != '\0') {
    const uint64_t v = std::strtoull(count, nullptr, 10);
    if (v > 0 && v <= UINT32_MAX) {
      options->rotation.max_segments = static_cast<uint32_t>(v);
    }
  }
  if (!options->path.empty()) {
    return true;  // Explicit path wins; rotation knobs still apply.
  }
  const char* dir = std::getenv("VINO_SPOOL");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  // One spool stream per kernel per process: vspool.<pid>.<k>, where k
  // counts this process's spooling kernels. Plain files carry ".bin";
  // rotated streams use the bare name as the segment base
  // (vspool.<pid>.<k>.s<n>.bin on disk).
  static std::atomic<uint64_t> kernel_counter{0};
  const uint64_t k = kernel_counter.fetch_add(1, std::memory_order_relaxed);
  options->path = std::string(dir) + "/vspool." +
                  std::to_string(::getpid()) + "." + std::to_string(k);
  if (options->rotation.segment_bytes == 0) {
    options->path += ".bin";
  }
  return true;
}

}  // namespace spool
}  // namespace vino
