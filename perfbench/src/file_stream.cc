// file-stream: the data path with a stream graft, one closed-loop client.
//
// 16 files of 512 KB (8 MB, twice the 4 MB buffer cache) each carry the
// rolling-XOR cipher stream graft and the hint-driven read-ahead graft on
// their own open-file object. The client issues seeded 64 KB ReadBytes /
// WriteBytes calls (about 70/30) at 8 KB-aligned offsets; before each read
// it writes the file's next upcoming read extents as hints, so read-ahead
// runs and the cache evicts. Every write's stored ciphertext is compared
// with a host-side cipher of the plaintext, every read with the host's
// shadow copy of the plaintext.

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/checks.h"
#include "src/programs.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using namespace vino;

constexpr int kFiles = 16;
constexpr uint64_t kFileBytes = 512 * 1024;
constexpr uint64_t kOpBytes = 64 * 1024;
constexpr double kReadShare = 0.7;
constexpr size_t kHintLookahead = 128;  // Ops scanned for a file's next reads.
constexpr size_t kHintsPerRead = 2;
constexpr GraftIdentity kClient{3003, false};

struct Op {
  bool write = false;
  int file = 0;
  uint64_t offset = 0;  // 8 KB aligned.
};

struct World {
  World() : kernel(BenchKernelConfig()) {}
  VinoKernel kernel;
  std::vector<OpenFile*> files;  // Owned by the file system.
  std::vector<FileId> ids;
  std::vector<std::shared_ptr<Graft>> grafts;  // Cipher and read-ahead.
  std::vector<std::vector<uint8_t>> shadow;    // Plaintext per file.
  OpenFile* probe = nullptr;                   // Probe-only open file.
};

void FillRandom(Rng& rng, uint8_t* out, size_t n) {
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(out + i, &v, std::min<size_t>(8, n - i));
  }
}

// True when the file's stored blocks hold the cipher of the shadow
// plaintext over [offset, offset + n).
bool StoredMatches(World& w, int file, uint64_t offset, uint64_t n) {
  const uint64_t block_size = w.kernel.disk().params().block_size;
  for (uint64_t at = offset; at < offset + n; at += block_size) {
    Result<BlockId> block = w.kernel.fs().BlockFor(w.ids[file], at);
    if (!block.ok()) return false;
    const uint8_t* stored = w.kernel.fs().BlockData(*block);
    if (stored == nullptr ||
        !CiphertextMatches(w.shadow[file].data() + at, stored, block_size, at)) {
      return false;
    }
  }
  return true;
}

Result<std::shared_ptr<Graft>> InstallOn(World& w, const char* source,
                                         const std::string& name,
                                         FunctionGraftPoint& point) {
  Result<std::shared_ptr<Graft>> graft =
      w.kernel.LoadGraftFromSource(source, name, kClient);
  if (!graft.ok()) return graft;
  const Status s = w.kernel.loader().InstallFunction(point.name(), *graft);
  if (!IsOk(s)) return s;
  return graft;
}

bool Setup(World& w, uint64_t seed, Report& report) {
  Rng rng(MixU64(seed ^ 0xF11Eull));
  std::vector<uint8_t> chunk(kOpBytes);
  for (int f = 0; f <= kFiles; ++f) {
    const bool probe = f == kFiles;
    Result<FileId> id = w.kernel.fs().CreateFile(
        probe ? "probe" : "f" + std::to_string(f), probe ? kOpBytes : kFileBytes);
    if (!id.ok()) return false;
    Result<OpenFile*> open = w.kernel.fs().Open(*id);
    if (!open.ok()) return false;
    Result<std::shared_ptr<Graft>> cipher = InstallOn(
        w, kCipherSource, "cipher." + std::to_string(f), (*open)->stream_point());
    if (!cipher.ok()) return false;
    if (probe) {
      w.probe = *open;
      break;
    }
    Result<std::shared_ptr<Graft>> ra =
        InstallOn(w, kReadaheadSource, "readahead." + std::to_string(f),
                  (*open)->readahead_point());
    if (!ra.ok()) return false;
    w.files.push_back(*open);
    w.ids.push_back(*id);
    w.grafts.push_back(*cipher);
    w.grafts.push_back(*ra);

    // Fill the file through the cipher graft.
    std::vector<uint8_t> plain(kFileBytes);
    FillRandom(rng, plain.data(), plain.size());
    w.shadow.push_back(plain);
    for (uint64_t off = 0; off < kFileBytes; off += kOpBytes) {
      if (!(*open)->WriteBytes(off, kOpBytes, plain.data() + off).ok()) {
        return false;
      }
    }
    report.Check(StoredMatches(w, f, 0, kFileBytes),
                 "set-up ciphertext of file " + std::to_string(f));
  }
  return true;
}

// The seeded op stream, generated ahead of use so reads can hint their
// file's next reads.
class OpStream {
 public:
  explicit OpStream(uint64_t seed) : rng_(MixU64(seed ^ 0x5EA11ull)) {}

  Op Next() {
    Fill(kHintLookahead + 1);
    Op op = ahead_.front();
    ahead_.pop_front();
    return op;
  }

  // The next `n` upcoming read extents of `file`.
  std::vector<std::pair<uint64_t, uint64_t>> UpcomingReads(int file, size_t n) {
    Fill(kHintLookahead);
    std::vector<std::pair<uint64_t, uint64_t>> hints;
    for (const Op& op : ahead_) {
      if (hints.size() == n) break;
      if (!op.write && op.file == file) hints.emplace_back(op.offset, kOpBytes);
    }
    return hints;
  }

 private:
  void Fill(size_t n) {
    constexpr uint64_t kSlots = (kFileBytes - kOpBytes) / 8192 + 1;
    while (ahead_.size() < n) {
      Op op;
      op.write = !rng_.Chance(kReadShare);
      op.file = static_cast<int>(rng_.Below(kFiles));
      op.offset = rng_.Below(kSlots) * 8192;
      ahead_.push_back(op);
    }
  }

  Rng rng_;
  std::deque<Op> ahead_;
};

struct PhaseOut {
  std::vector<double> op_ns;
  uint64_t ops = 0, bytes = 0, failed = 0;
  double wall_s = 0;
  std::string first_failure;
};

// Runs ops for `seconds`. With a recorder, each op gets a root span and the
// stream point is probed once per op on the probe file.
void RunPhase(World& w, OpStream& ops, Rng& data_rng, double seconds,
              SpanRecorder* rec, SpanRecorder* probes, PhaseOut& out) {
  std::vector<uint8_t> buf(kOpBytes);
  std::vector<uint8_t> probe_chunk(kStreamChunk);
  auto fail = [&out](const std::string& what) {
    if (out.failed++ == 0) out.first_failure = what;
  };
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    const Op op = ops.Next();
    OpenFile& file = *w.files[static_cast<size_t>(op.file)];
    const uint64_t id = out.ops;
    {
      // The root span ends with the timed call; the checks are outside it.
      SpanScope root(rec, "fs.op", -1, id);
      if (op.write) {
        FillRandom(data_rng, buf.data(), buf.size());
        const int64_t t0 = NowNs();
        Result<OpenFile::ReadResult> r = Status::kInternal;
        {
          SpanScope span(rec, "fs.write_bytes", root.index(), id);
          r = file.WriteBytes(op.offset, kOpBytes, buf.data());
        }
        out.op_ns.push_back(static_cast<double>(NowNs() - t0));
        root.Close();
        std::memcpy(w.shadow[op.file].data() + op.offset, buf.data(), kOpBytes);
        if (!r.ok() || r->bytes_read != kOpBytes ||
            !StoredMatches(w, op.file, op.offset, kOpBytes)) {
          fail("stored ciphertext differs after write to file " +
               std::to_string(op.file));
        }
      } else {
        {
          SpanScope span(rec, "fs.write_hints", root.index(), id);
          (void)file.WriteHints(ops.UpcomingReads(op.file, kHintsPerRead));
        }
        const int64_t t0 = NowNs();
        Result<OpenFile::ReadResult> r = Status::kInternal;
        {
          SpanScope span(rec, "fs.read_bytes", root.index(), id);
          r = file.ReadBytes(op.offset, kOpBytes, buf.data());
        }
        out.op_ns.push_back(static_cast<double>(NowNs() - t0));
        root.Close();
        if (!r.ok() || r->bytes_read != kOpBytes ||
            std::memcmp(buf.data(), w.shadow[op.file].data() + op.offset,
                        kOpBytes) != 0) {
          fail("read-back differs from plaintext in file " +
               std::to_string(op.file));
        }
      }
    }
    ++out.ops;
    out.bytes += kOpBytes;
    if (probes != nullptr) {
      // A direct stream-point call with the arguments ReadBytes passes for
      // one 8 KB chunk.
      std::shared_ptr<Graft> g = w.probe->stream_point().current_graft();
      MemoryImage& arena = g->image();
      const uint64_t in = arena.arena_base() + kStreamInOffset;
      const uint64_t out_addr = arena.arena_base() + kStreamOutOffset;
      FillRandom(data_rng, probe_chunk.data(), probe_chunk.size());
      (void)arena.Write(in, probe_chunk.data(), kStreamChunk);
      (void)arena.Write(out_addr, probe_chunk.data(), kStreamChunk);
      const uint64_t args[4] = {in, out_addr, kStreamChunk, 0};
      SpanScope span(probes, "probe.graft.function_point.stream_invoke", -1, id);
      (void)w.probe->stream_point().Invoke(args);
    }
  }
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
}

struct Counters {
  uint64_t stream_invocations = 0, tier1 = 0, runs = 0, enqueued = 0;
  BufferCache::Stats cache;
};

Counters ReadCounters(World& w) {
  Counters c;
  for (OpenFile* f : w.files) {
    c.stream_invocations += f->stream_point().stats().invocations;
    c.enqueued += f->stats().prefetches_enqueued;
  }
  for (const auto& g : w.grafts) {
    c.tier1 += g->tier_runs(ExecTier::kTier1);
    c.runs += g->tier_runs(ExecTier::kTier0) + g->tier_runs(ExecTier::kTier1);
  }
  c.cache = w.kernel.cache().stats();
  return c;
}

void Tally(const PhaseOut& out, Report& report) {
  report.AddAttempted(out.ops);
  report.AddFailures(out.failed, out.first_failure);
}

}  // namespace

void RunFileStream(const RunArgs& args, Report& report) {
  std::printf("file-stream: closed loop, 1 client, %d files x %llu KB, %llu KB "
              "ops, %.0f%% reads, cache %zu x 4 KB\n",
              kFiles, static_cast<unsigned long long>(kFileBytes / 1024),
              static_cast<unsigned long long>(kOpBytes / 1024),
              kReadShare * 100, BenchKernelConfig().cache_buffers);
  std::printf("threads: nproc=%u client=1 event_pool=%zu watchdog=1\n",
              args.nproc, BenchKernelConfig().event_pool.workers);

  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const int64_t t0 = NowNs();
    world = std::make_unique<World>();
    if (!Setup(*world, args.seed, report)) {
      report.Invariant(false, "file-stream set-up failed");
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  World& w = *world;
  report.Set("setup_s", Median(setup_s), "s", setup_s.size());

  OpStream ops(args.seed);
  Rng data_rng(MixU64(args.seed ^ 0xDA7Aull));
  if (!args.trace) {
    PhaseOut out;
    RunPhase(w, ops, data_rng, args.seconds, nullptr, nullptr, out);
    Tally(out, report);
    const Summary s = Summarize(out.op_ns);
    report.Set("op_p50_us", s.p50 / 1e3, "us", s.n);
    report.Set("op_p99_us", s.p99 / 1e3, "us", s.n, Report::TailNote(s));
    report.Tail("op_tail_us", s, "us", 1e-3);
    report.Set("ops_per_s", static_cast<double>(out.ops) / out.wall_s, "1/s",
               out.ops);
    report.Set("mb_per_s", static_cast<double>(out.bytes) / 1e6 / out.wall_s,
               "MB/s", out.ops);
    report.Set("fail_ratio",
               static_cast<double>(out.failed) /
                   static_cast<double>(std::max<uint64_t>(1, out.ops)),
               "ratio", out.ops);
  } else {
    PhaseOut untraced;
    RunPhase(w, ops, data_rng, args.seconds / 2, nullptr, nullptr, untraced);
    Tally(untraced, report);
    SpanRecorder rec(1 << 16);
    SpanRecorder probes(1 << 14);
    PhaseOut traced;
    const Counters before = ReadCounters(w);
    RunPhase(w, ops, data_rng, args.seconds / 2, &rec, &probes, traced);
    const Counters after = ReadCounters(w);
    Tally(traced, report);

    ReportSpans({&rec, &probes},
                {{"fs.read_bytes", "fs.read_bytes_us", "us", 1e-3},
                 {"fs.write_bytes", "fs.write_bytes_us", "us", 1e-3},
                 {"probe.graft.function_point.stream_invoke",
                  "graft.function_point.stream_invoke_us", "us", 1e-3}},
                report, args);
    const uint64_t runs = after.runs - before.runs;
    report.Set("sfi.tier1_share",
               static_cast<double>(after.tier1 - before.tier1) /
                   static_cast<double>(std::max<uint64_t>(1, runs)),
               "ratio", runs);
    report.Set("fs.stream.invocations",
               static_cast<double>(after.stream_invocations -
                                   before.stream_invocations),
               "count", traced.ops);
    const uint64_t demand = after.cache.demand_reads - before.cache.demand_reads;
    report.Set("fs.cache.hit_ratio",
               static_cast<double>(after.cache.hits - before.cache.hits) /
                   static_cast<double>(std::max<uint64_t>(1, demand)),
               "ratio", demand);
    report.Set("fs.cache.prefetch_hits",
               static_cast<double>(after.cache.prefetch_hits -
                                   before.cache.prefetch_hits),
               "count", demand);
    report.Set("fs.prefetches_enqueued",
               static_cast<double>(after.enqueued - before.enqueued), "count",
               traced.ops);
    report.Set("fs.stall_virtual_us",
               static_cast<double>(after.cache.total_stall -
                                   before.cache.total_stall),
               "us", demand);
    std::vector<double> u = untraced.op_ns, t = traced.op_ns;
    ReportTraceOverhead(Summarize(u).p50, Summarize(t).p50,
                        static_cast<double>(untraced.ops) / untraced.wall_s,
                        static_cast<double>(traced.ops) /
                            (traced.wall_s - TotalSeconds(probes)),
                        report);
  }

  std::printf("\nsurvival invariants:\n");
  const TxnStats txn = w.kernel.txn().stats();
  report.Invariant(txn.begins == txn.commits + txn.aborts,
                   "begins " + std::to_string(txn.begins) + " == commits " +
                       std::to_string(txn.commits) + " + aborts " +
                       std::to_string(txn.aborts));
  bool grafted = true;
  for (OpenFile* f : w.files) {
    grafted = grafted && f->stream_point().grafted() &&
              f->readahead_point().grafted();
  }
  report.Invariant(grafted && txn.aborts == 0,
                   "no stream or read-ahead graft aborted or ejected");
}

}  // namespace perfbench
