// graftstat: the abort-cost diagnosis tool. Three modes:
//
//   graftstat [--json] [--invocations N] [--spool-out FILE]
//     Self-test workload (the paper's §4.5 experiment): abort-heavy grafts
//     holding L locks and pushing G undo records give the cost model enough
//     variance to fit cost = a + b·L + c·G per graft. --spool-out also
//     spools the run's flight-recorder stream to FILE (deterministically —
//     drained every batch of invocations, so nothing wraps), which is how
//     the golden test proves a replayed fit matches the live one. With no
//     --spool-out, VINO_SPOOL (a directory) derives a per-process spool file
//     exactly as a kernel would.
//
//   graftstat --spool PATH [--json]
//     Attach to what is on disk now: drain every spool under PATH to its
//     current end and report. PATH is one spool file, or a VINO_SPOOL
//     directory, where every `vspool.<pid>.<k>.bin` is one kernel's spool.
//
//   graftstat --follow PATH [--json] [--interval-ms N]
//     Attach to live kernels: tail the same spools as the kernels write
//     them (a file renamed or truncated underneath is reopened; new kernels
//     under a directory join the view), until every spool's close trailer
//     arrives — then report. A spool that has not appeared yet is waited
//     for up to 30 s.
//
// Both attach forms print one report: per kernel, the spool's health, txn
// and event counts, latency quantiles, per-graft abort counts and fitted
// cost lines rebuilt from the records alone. Exit status is the same for
// every form: 1 when no spool was found, a spool is missing, or any batch
// was corrupt (SPOOL_CORRUPT); a truncated tail is a normal partial report
// (exit 0).

#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/inotify.h>
#endif

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/trace.h"
#include "src/base/trace_spool.h"
#include "src/graft/graft.h"
#include "src/graft/invocation.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace {

using vino::AbortCostModel;
using vino::Graft;
using vino::GraftIdentity;
using vino::LatencyHistogram;
using vino::MemoryImage;
using vino::Status;
using vino::TxnLock;
using vino::TxnManager;

// Undo closures mutate this so the replay work is real, not optimized away.
volatile uint64_t g_undo_sink = 0;

// A native graft that acquires args[0] locks, registers args[1] undo
// records, then aborts (args[2] != 0) or commits.
vino::Result<uint64_t> Misbehave(std::span<const uint64_t> args,
                                 std::vector<std::unique_ptr<TxnLock>>* locks,
                                 MemoryImage*) {
  const uint64_t want_locks = args.size() > 0 ? args[0] : 0;
  const uint64_t want_undo = args.size() > 1 ? args[1] : 0;
  const bool abort = args.size() > 2 && args[2] != 0;
  for (uint64_t i = 0; i < want_locks && i < locks->size(); ++i) {
    if (!IsOk((*locks)[i]->Acquire())) {
      return Status::kTxnAborted;
    }
  }
  for (uint64_t i = 0; i < want_undo; ++i) {
    vino::TxnOnAbort([] { g_undo_sink = g_undo_sink + 1; });
  }
  if (abort) {
    return Status::kTxnAborted;
  }
  return uint64_t{42};
}

// Latency attribution slot names: index 0 is native (or a pre-tier spool),
// 1..kExecTierCount are the sandbox execution tiers.
std::string_view TierLabel(size_t tier_plus1) {
  return tier_plus1 == 0 ? std::string_view("native")
                         : vino::ExecTierName(
                               static_cast<vino::ExecTier>(tier_plus1 - 1));
}

// Every string graftstat prints into JSON goes through here: paths, kernel
// keys and graft names are arbitrary bytes.
void PrintJsonString(std::string_view s) {
  std::putchar('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (u < 0x20) {
      std::printf("\\u%04x", u);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

struct Quantiles {
  uint64_t count;
  uint64_t p50, p95, p99;
  double mean;
};

Quantiles Read(const LatencyHistogram& h) {
  return {h.Count(), h.QuantileNs(0.50), h.QuantileNs(0.95), h.QuantileNs(0.99),
          h.MeanNs()};
}

void PrintFitText(const char* label, const AbortCostModel::Fitted& fit) {
  if (!fit.valid) {
    std::printf("  %-14s (no abort samples)\n", label);
    return;
  }
  std::printf(
      "  %-14s cost ≈ %.1f + %.1f·L + %.1f·G µs   "
      "(n=%" PRIu64 ", mean L=%.1f G=%.1f cost=%.1f µs)\n",
      label, fit.a_ns / 1e3, fit.b_ns / 1e3, fit.c_ns / 1e3, fit.samples,
      fit.mean_locks, fit.mean_undo, fit.mean_cost_ns / 1e3);
}

void PrintFitJson(const AbortCostModel::Fitted& fit) {
  std::printf(
      "{\"valid\": %s, \"a_ns\": %.1f, \"b_ns\": %.1f, \"c_ns\": %.1f, "
      "\"samples\": %" PRIu64 ", \"mean_locks\": %.2f, \"mean_undo\": %.2f, "
      "\"mean_cost_ns\": %.1f}",
      fit.valid ? "true" : "false", fit.a_ns, fit.b_ns, fit.c_ns, fit.samples,
      fit.mean_locks, fit.mean_undo, fit.mean_cost_ns);
}

void PrintQuantilesJson(const Quantiles& q) {
  std::printf("{\"count\": %" PRIu64 ", \"p50_ns\": %" PRIu64
              ", \"p95_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
              ", \"mean_ns\": %.1f}",
              q.count, q.p50, q.p95, q.p99, q.mean);
}

void PrintQuantilesText(const char* label, const Quantiles& q) {
  std::printf("  %-8s n=%-8" PRIu64 " p50=%-10" PRIu64 " p95=%-10" PRIu64
              " p99=%-10" PRIu64 " mean=%.0f\n",
              label, q.count, q.p50, q.p95, q.p99, q.mean);
}

// Per-tier latency views: tiers[0..kExecTierCount] keyed by tier_plus1.
// Invariant (checked by tools/check.sh): the per-tier counts sum to the
// total invocation count — every invocation lands in exactly one slot.
void PrintTierLatencyJson(const LatencyHistogram* tiers) {
  std::printf("{");
  for (size_t t = 0; t <= vino::kExecTierCount; ++t) {
    std::printf("%s", t == 0 ? "" : ", ");
    PrintJsonString(TierLabel(t));
    std::printf(": ");
    PrintQuantilesJson(Read(tiers[t]));
  }
  std::printf("}");
}

void PrintTierLatencyText(const LatencyHistogram* tiers) {
  for (size_t t = 0; t <= vino::kExecTierCount; ++t) {
    const Quantiles q = Read(tiers[t]);
    if (q.count == 0) {
      continue;  // Text mode: skip tiers nothing ran on.
    }
    const std::string label(TierLabel(t));
    PrintQuantilesText(label.c_str(), q);
  }
}

void PrintEventsJson(const std::map<std::string, uint64_t>& event_counts) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, count] : event_counts) {
    std::printf("%s", first ? "" : ", ");
    PrintJsonString(name);
    std::printf(": %" PRIu64, count);
    first = false;
  }
  std::printf("}");
}

void PrintEventsText(const std::map<std::string, uint64_t>& event_counts) {
  for (const auto& [name, count] : event_counts) {
    std::printf("  %-16s %" PRIu64 "\n", name.c_str(), count);
  }
}

// Invocation counts by execution slot (TierLabel order).
using TierRuns = uint64_t[vino::kExecTierCount + 1];

void PrintRunsJson(const TierRuns& runs) {
  std::printf("{");
  for (size_t t = 0; t <= vino::kExecTierCount; ++t) {
    std::printf("%s", t == 0 ? "" : ", ");
    PrintJsonString(TierLabel(t));
    std::printf(": %" PRIu64, runs[t]);
  }
  std::printf("}");
}

// One per-graft row, shared by the live self-test and the replayed kernels.
struct GraftAgg {
  std::string name;  // Live grafts only; a spool carries trace ids.
  uint64_t invocations = 0;
  uint64_t aborts = 0;
  // Execution-slot attribution (slot 0 = native graft, or a legacy spool
  // that predates tier tagging).
  TierRuns runs = {};
  bool degraded = false;  // A kGraftDegraded event named this graft.
  AbortCostModel model;

  void Merge(const GraftAgg& other) {
    invocations += other.invocations;
    aborts += other.aborts;
    for (size_t t = 0; t <= vino::kExecTierCount; ++t) {
      runs[t] += other.runs[t];
    }
    degraded = degraded || other.degraded;
    model.Merge(other.model);
  }
};

using GraftAggs = std::map<uint64_t, GraftAgg>;  // Keyed by trace id.

// A JSON array of graft objects, one per line at `indent`.
void PrintGraftsJson(const GraftAggs& grafts, const char* indent) {
  std::printf("[");
  for (auto it = grafts.begin(); it != grafts.end(); ++it) {
    const GraftAgg& g = it->second;
    std::printf("%s\n%s{", it == grafts.begin() ? "" : ",", indent);
    if (!g.name.empty()) {
      std::printf("\"name\": ");
      PrintJsonString(g.name);
      std::printf(", ");
    }
    std::printf("\"trace_id\": %" PRIu64, it->first);
    std::printf(", \"invocations\": %" PRIu64 ", \"aborts\": %" PRIu64
                ", \"degraded\": %s, \"runs\": ",
                g.invocations, g.aborts, g.degraded ? "true" : "false");
    PrintRunsJson(g.runs);
    std::printf(", \"abort_cost\": ");
    PrintFitJson(g.model.Fit());
    std::printf("}");
  }
  std::printf("]");
}

static_assert(vino::kExecTierCount == 2, "text columns: native tier0 tier1");

void PrintGraftsText(const GraftAggs& grafts) {
  std::printf("  %-18s %12s %8s %8s %8s %8s\n", "graft", "invocations",
              "aborts", "native", "tier0", "tier1");
  for (const auto& [trace_id, g] : grafts) {
    std::string label =
        g.name.empty() ? "graft#" + std::to_string(trace_id) : g.name;
    if (g.degraded) {
      label += " [DEGRADED]";
    }
    std::printf("  %-18s %12" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 "\n",
                label.c_str(), g.invocations, g.aborts, g.runs[0], g.runs[1],
                g.runs[2]);
    PrintFitText("", g.model.Fit());
  }
}

// ---------------------------------------------------------------------------
// Attach: rebuild the report the live process computes, from the recorded
// stream alone.

struct ReplayReport {
  GraftAggs grafts;
  std::map<std::string, uint64_t> event_counts;
  uint64_t records = 0;
  uint64_t txn_begins = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
  LatencyHistogram invoke_latency;
  // Invocation latency split by execution tier (tier_plus1-indexed; the
  // counts sum to invoke_latency's).
  LatencyHistogram tier_latency[vino::kExecTierCount + 1];
  AbortCostModel global_model;

  void Add(const vino::trace::TaggedRecord& tagged) {
    using vino::trace::Event;
    using vino::trace::PathTag;
    const vino::trace::Record& r = tagged.record;
    const Event event = static_cast<Event>(r.event);
    ++records;
    ++event_counts[std::string(vino::trace::EventName(event))];
    switch (event) {
      case Event::kInvokeBegin: {
        // High byte of the packed tag: tier + 1, 0 = untiered.
        const uint16_t tier_plus1 = vino::trace::InvokeTierPlus1(r.tag);
        ++grafts[r.a].invocations;
        ++grafts[r.a].runs[tier_plus1 <= vino::kExecTierCount ? tier_plus1 : 0];
        break;
      }
      case Event::kInvokeEnd: {
        invoke_latency.Record(r.b);
        const uint16_t tier_plus1 = vino::trace::InvokeTierPlus1(r.tag);
        tier_latency[tier_plus1 <= vino::kExecTierCount ? tier_plus1 : 0]
            .Record(r.b);
        // Only the low byte is the path; the high byte carries the tier.
        if (vino::trace::InvokePathTag(r.tag) == PathTag::kAbort) {
          ++grafts[r.a].aborts;
        }
        break;
      }
      case Event::kAbortCost:
        // The mirrored per-graft sample: a32 = L, tag = G, b = cost ns.
        grafts[r.a].model.Record(r.a32, r.tag, r.b);
        global_model.Record(r.a32, r.tag, r.b);
        break;
      case Event::kGraftDegraded:
        grafts[r.a].degraded = true;
        break;
      case Event::kTxnBegin:
        ++txn_begins;
        break;
      case Event::kTxnCommit:
        ++txn_commits;
        break;
      case Event::kTxnAbort:
        ++txn_aborts;
        break;
      default:
        break;
    }
  }
};

using Clock = std::chrono::steady_clock;

// How long --follow waits for a spool that has not appeared yet (or whose
// file header has not landed): a kernel mid-startup, in wall time.
constexpr auto kAppearTimeout = std::chrono::seconds(30);

// One kernel's spool: a follower feeding the report aggregator.
struct KernelView {
  KernelView(std::string key_in, std::string path_in)
      : key(std::move(key_in)),
        path(std::move(path_in)),
        discovered(Clock::now()) {}

  // Opens lazily — a spool that is missing or whose header is short is
  // retried next round — then folds every record now readable into the
  // report.
  void Poll(std::vector<vino::trace::TaggedRecord>& batch) {
    if (OpenRetryable()) {
      open_status = follower.Open(path);
    }
    if (!IsOk(open_status) || !IsOk(poll_status)) {
      return;
    }
    batch.clear();
    poll_status = follower.Poll(batch);
    for (const auto& r : batch) {
      report.Add(r);
    }
  }

  bool OpenRetryable() const {
    return open_status == Status::kNotFound ||
           open_status == Status::kSpoolTruncated;
  }

  // The one classification every attach form reports: an unopened stream
  // keeps its open status, then unrecoverable corruption, any corrupt
  // batch, a truncated tail, else OK.
  Status status() const {
    if (!IsOk(open_status)) {
      return open_status;
    }
    if (!IsOk(poll_status)) {
      return poll_status;
    }
    const vino::spool::ReadStats& stats = follower.stats();
    if (stats.corrupt_batches > 0) {
      return Status::kSpoolCorrupt;
    }
    return stats.truncated ? Status::kSpoolTruncated : Status::kOk;
  }

  // Under --follow: nothing more will come from this spool.
  bool Finished(Clock::time_point now) const {
    if (IsOk(open_status)) {
      return !IsOk(poll_status) || follower.closed();
    }
    return !OpenRetryable() || now - discovered >= kAppearTimeout;
  }

  std::string key;
  std::string path;
  vino::spool::SpoolFollower follower;
  ReplayReport report;
  Status open_status = Status::kNotFound;  // kOk once the spool opened.
  Status poll_status = Status::kOk;        // Sticky unrecoverable corruption.
  Clock::time_point discovered;
};

using KernelViews = std::map<std::string, std::unique_ptr<KernelView>>;

// Kernel key of a spool: `vspool.<pid>.<k>.bin` -> "<pid>.<k>"; any other
// spool keeps its name, minus a `.bin` suffix.
std::string SpoolKey(const std::string& path) {
  std::string name = std::filesystem::path(path).filename().string();
  if (name.ends_with(".bin")) {
    name.resize(name.size() - 4);
  }
  return name.starts_with("vspool.") ? name.substr(7) : name;
}

// Resolves an attach path to its spools, kernel key -> file. A directory
// holds one spool per `vspool.*.bin` file; anything else is one spool.
std::map<std::string, std::string> ResolveSpools(const std::string& path,
                                                 bool dir) {
  std::map<std::string, std::string> found;
  if (!dir) {
    found.emplace(SpoolKey(path), path);
    return found;
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("vspool.") && name.ends_with(".bin")) {
      found.emplace(SpoolKey(name), entry.path().string());
    }
  }
  return found;
}

// Wakes the follow loop when the watched directory changes: inotify on
// Linux (new kernels, replaced files, and appends all wake immediately),
// a plain interval sleep elsewhere. Either way the loop rescans on wake, so
// the inotify path is latency, not correctness.
class DirWaiter {
 public:
  explicit DirWaiter(const std::string& dir) {
#ifdef __linux__
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ >= 0 &&
        ::inotify_add_watch(fd_, dir.c_str(),
                            IN_CREATE | IN_MODIFY | IN_MOVED_TO | IN_DELETE) <
            0) {
      ::close(fd_);
      fd_ = -1;
    }
#else
    (void)dir;
#endif
  }
  ~DirWaiter() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  DirWaiter(const DirWaiter&) = delete;
  DirWaiter& operator=(const DirWaiter&) = delete;

  void Wait(uint64_t interval_ms) {
#ifdef __linux__
    if (fd_ >= 0) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(interval_ms)) > 0) {
        char buf[4096];
        while (::read(fd_, buf, sizeof(buf)) > 0) {
        }
      }
      return;
    }
#endif
    ::usleep(static_cast<useconds_t>(interval_ms * 1000));
  }

 private:
  int fd_ = -1;
};

void PrintSpoolStatsJson(const KernelView& view) {
  const vino::spool::ReadStats& stats = view.follower.stats();
  std::printf("{\"path\": ");
  PrintJsonString(view.path);
  std::printf(", \"status\": ");
  PrintJsonString(StatusName(view.status()));
  std::printf(", \"batches\": %" PRIu64 ", \"corrupt_batches\": %" PRIu64
              ", \"records\": %" PRIu64 ", \"lost_total\": %" PRIu64
              ", \"truncated\": %s, \"closed\": %s, \"seq_gaps\": %" PRIu64
              "}",
              stats.batches, stats.corrupt_batches, stats.records,
              stats.lost_total, stats.truncated ? "true" : "false",
              stats.closed ? "true" : "false", stats.seq_gaps);
}

void PrintReportJson(const char* mode, const std::string& path,
                     const KernelViews& views) {
  std::printf("{\n  \"mode\": \"%s\",\n  \"path\": ", mode);
  PrintJsonString(path);
  std::printf(",\n  \"kernels\": [");
  size_t i = 0;
  for (const auto& [key, view] : views) {
    const ReplayReport& report = view->report;
    GraftAgg all;  // The kernel's invocations by execution slot.
    for (const auto& [trace_id, agg] : report.grafts) {
      all.Merge(agg);
    }
    std::printf("%s\n    {\"kernel\": ", i++ == 0 ? "" : ",");
    PrintJsonString(key);
    std::printf(", \"spool\": ");
    PrintSpoolStatsJson(*view);
    std::printf(",\n     \"txn\": {\"begins\": %" PRIu64
                ", \"commits\": %" PRIu64 ", \"aborts\": %" PRIu64 "},\n",
                report.txn_begins, report.txn_commits, report.txn_aborts);
    std::printf("     \"runs\": ");
    PrintRunsJson(all.runs);
    std::printf(",\n     \"trace\": {\"records\": %" PRIu64 ", \"events\": ",
                report.records);
    PrintEventsJson(report.event_counts);
    std::printf("},\n     \"latency\": {\"invoke\": ");
    PrintQuantilesJson(Read(report.invoke_latency));
    std::printf(", \"tiers\": ");
    PrintTierLatencyJson(report.tier_latency);
    std::printf("},\n     \"abort_cost\": ");
    PrintFitJson(report.global_model.Fit());
    std::printf(",\n     \"grafts\": ");
    PrintGraftsJson(report.grafts, "       ");
    std::printf("}");
  }
  std::printf("%s]\n}\n", views.empty() ? "" : "\n  ");
}

void PrintReportText(const char* mode, const std::string& path,
                     const KernelViews& views) {
  std::printf("graftstat --%s %s (%zu kernel%s)\n", mode, path.c_str(),
              views.size(), views.size() == 1 ? "" : "s");
  for (const auto& [key, view] : views) {
    const ReplayReport& report = view->report;
    const vino::spool::ReadStats& stats = view->follower.stats();
    const std::string_view status = StatusName(view->status());
    std::printf("\n== kernel %s (%s)\n", key.c_str(), view->path.c_str());
    std::printf("spool: %" PRIu64 " batches (%" PRIu64 " corrupt skipped), %"
                PRIu64 " records, %" PRIu64 " lost to ring wrap before the "
                "drainer arrived%s%s [%.*s]\n",
                stats.batches, stats.corrupt_batches, stats.records,
                stats.lost_total, stats.truncated ? ", truncated tail" : "",
                stats.closed ? ", closed cleanly" : "",
                static_cast<int>(status.size()), status.data());
    std::printf("       %" PRIu64 " batch seq gap%s\n\n", stats.seq_gaps,
                stats.seq_gaps == 1 ? "" : "s");
    std::printf("transactions: %" PRIu64 " begun, %" PRIu64 " committed, %"
                PRIu64 " aborted\n\n",
                report.txn_begins, report.txn_commits, report.txn_aborts);
    std::printf("events:\n");
    PrintEventsText(report.event_counts);
    std::printf("\nlatency (ns, bucket upper bounds):\n");
    PrintQuantilesText("invoke", Read(report.invoke_latency));
    PrintTierLatencyText(report.tier_latency);
    std::printf("\nabort-cost model (paper §4.5: cost = a + b·L + c·G):\n");
    PrintFitText("kernel-wide", report.global_model.Fit());
    std::printf("\nper-graft:\n");
    PrintGraftsText(report.grafts);
  }
}

// The attach loop behind --spool and --follow: resolve PATH to spools and
// poll every spool, once (--spool: what is on disk now) or on every change
// until every spool has finished (--follow).
int Attach(const std::string& path, bool follow, bool json,
           uint64_t interval_ms) {
  const char* mode = follow ? "follow" : "spool";
  std::error_code ec;
  const bool dir = std::filesystem::is_directory(path, ec);
  KernelViews views;
  const std::string parent = std::filesystem::path(path).parent_path();
  DirWaiter waiter(dir ? path : parent.empty() ? "." : parent);
  std::vector<vino::trace::TaggedRecord> batch;
  const Clock::time_point start = Clock::now();
  uint64_t last_total = 0;
  while (true) {
    for (const auto& [key, file] : ResolveSpools(path, dir)) {
      if (views.find(key) == views.end()) {
        views.emplace(key, std::make_unique<KernelView>(key, file));
      }
    }
    for (auto& [key, view] : views) {
      view->Poll(batch);
    }
    if (!follow) {
      break;
    }
    uint64_t total = 0;
    const Clock::time_point now = Clock::now();
    bool finished = !views.empty() || now - start >= kAppearTimeout;
    for (const auto& [key, view] : views) {
      total += view->report.records;
      finished = finished && view->Finished(now);
    }
    if (!json && total != last_total) {
      std::fprintf(stderr, "follow: %zu spool%s, %" PRIu64 " records\n",
                   views.size(), views.size() == 1 ? "" : "s", total);
      last_total = total;
    }
    if (finished) {
      break;
    }
    waiter.Wait(interval_ms);
  }

  if (json) {
    PrintReportJson(mode, path, views);
  } else {
    PrintReportText(mode, path, views);
  }
  if (views.empty()) {
    std::fprintf(stderr, "graftstat: no kernel spools under '%s'\n",
                 path.c_str());
    return 1;
  }
  int exit_code = 0;
  for (const auto& [key, view] : views) {
    const Status status = view->status();
    if (!IsOk(status) && status != Status::kSpoolTruncated) {
      std::fprintf(stderr, "graftstat: spool '%s' [%.*s]\n",
                   view->path.c_str(),
                   static_cast<int>(StatusName(status).size()),
                   StatusName(status).data());
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool follow = false;
  uint64_t invocations = 2000;
  uint64_t interval_ms = 100;
  std::string attach_path;  // --spool / --follow.
  std::string spool_out;    // --spool-out: spool the self-test run.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--invocations") == 0 && i + 1 < argc) {
      invocations = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if ((std::strcmp(argv[i], "--spool") == 0 ||
                std::strcmp(argv[i], "--follow") == 0) &&
               i + 1 < argc) {
      follow = std::strcmp(argv[i], "--follow") == 0;
      attach_path = argv[++i];
    } else if (std::strcmp(argv[i], "--spool-out") == 0 && i + 1 < argc) {
      spool_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: graftstat [--json] [--invocations N] "
                   "[--spool-out FILE]\n"
                   "       graftstat --spool PATH [--json]\n"
                   "       graftstat --follow PATH [--json] "
                   "[--interval-ms N]\n");
      return 2;
    }
  }

  if (!attach_path.empty()) {
    return Attach(attach_path, follow, json, interval_ms == 0 ? 1 : interval_ms);
  }

  vino::trace::SetEnabled(true);

  // Deterministic spooling for the self-test: drain every batch of
  // invocations (a batch's records fit the ring several times over), so the
  // spooled stream is lossless and a replayed fit must equal the live one.
  // With no --spool-out, the VINO_SPOOL environment derives a per-process
  // path exactly like a kernel (DeriveEnvSpoolOptions).
  vino::spool::SpoolDrainer::Options spool_options;
  spool_options.path = spool_out;
  const bool want_spool = vino::spool::DeriveEnvSpoolOptions(&spool_options);
  std::unique_ptr<vino::spool::SpoolDrainer> drainer;
  if (want_spool) {
    auto started = vino::spool::SpoolDrainer::Start(spool_options);
    if (!started.ok()) {
      std::fprintf(stderr, "graftstat: cannot open --spool-out '%s'\n",
                   spool_options.path.c_str());
      return 1;
    }
    drainer = std::move(started.value());
    spool_out = spool_options.path;
  }

  TxnManager txn_manager;
  std::vector<std::unique_ptr<TxnLock>> locks;
  for (int i = 0; i < 8; ++i) {
    locks.push_back(std::make_unique<TxnLock>("graftstat.lock" + std::to_string(i)));
  }

  // Three abort-prone grafts with distinct (L, G) profiles — the variance
  // the least-squares fit needs — plus one that commits.
  struct Profile {
    const char* name;
    uint64_t base_locks;
    uint64_t base_undo;
    bool aborts;
  };
  const Profile profiles[] = {
      {"lock-hoarder", 5, 2, true},
      {"undo-spammer", 1, 24, true},
      {"mixed-misbehaver", 3, 10, true},
      {"well-behaved", 1, 4, false},
      {"tiered-worker", 0, 0, false},  // The one program graft (see below).
  };
  std::vector<std::shared_ptr<Graft>> grafts;
  for (const Profile& p : profiles) {
    if (std::strcmp(p.name, "tiered-worker") == 0) {
      // A sandboxed program graft so the per-tier invocation counters have
      // something to count: instrumented, verified, and pre-decoded for the
      // Tier-1 direct-threaded engine, exactly as the loader would.
      vino::Asm a("tiered-worker");
      auto top = a.NewLabel();
      a.LoadImm(vino::R1, 12);
      a.LoadImm(vino::R2, 0);
      a.LoadImm(vino::R3, 0);
      a.Bind(top);
      a.AddI(vino::R2, vino::R2, 3);
      a.St64(vino::R3, vino::R2, 256);
      a.Ld64(vino::R4, vino::R3, 256);
      a.AddI(vino::R1, vino::R1, -1);
      a.Bne(vino::R1, vino::R3, top);
      a.Mov(vino::R0, vino::R2);
      a.Halt();
      auto inst = vino::Instrument(*a.Finish(), vino::MisfitOptions{16});
      vino::Program program = *inst;
      if (!vino::VerifySandbox(program).ok()) {
        std::fprintf(stderr, "graftstat: self-test program failed to verify\n");
        return 1;
      }
      program.verified = true;
      program.compiled = vino::CompileThreaded(program);
      grafts.push_back(std::make_shared<Graft>(p.name, std::move(program),
                                               GraftIdentity{1000, false},
                                               4096));
      continue;
    }
    grafts.push_back(std::make_shared<Graft>(
        p.name,
        [&locks](std::span<const uint64_t> args, MemoryImage* image) {
          return Misbehave(args, &locks, image);
        },
        GraftIdentity{1000, false}));
  }

  LatencyHistogram invoke_latency;
  // Exact per-tier invocation latency, recorded at the invocation wrapper's
  // existing latency sites (not rebuilt from the ring, which wraps): the
  // tier counts must sum to the invocation count.
  LatencyHistogram tier_latency[vino::kExecTierCount + 1];
  vino::GraftExecContext exec(nullptr);
  exec.latency = &invoke_latency;
  for (size_t t = 0; t <= vino::kExecTierCount; ++t) {
    exec.tier_latency[t] = &tier_latency[t];
  }

  for (uint64_t i = 0; i < invocations; ++i) {
    const Profile& p = profiles[i % std::size(profiles)];
    const auto& graft = grafts[i % std::size(grafts)];
    // Jitter L and G around the profile's base so neither predictor is
    // constant (a constant column is degenerate and fits to zero).
    const uint64_t args[3] = {p.base_locks + i % 3,
                              p.base_undo + (i / 2) % 5,
                              p.aborts ? uint64_t{1} : uint64_t{0}};
    (void)RunGraftInvocation(txn_manager, graft, args, exec);
    if (drainer != nullptr && (i + 1) % 128 == 0) {
      drainer->DrainNow();  // Single ring, ~8 records/invocation: no wrap.
    }
  }
  if (drainer != nullptr) {
    drainer->Stop();  // Final drain + close trailer.
  }

  // ---- Collect --------------------------------------------------------
  vino::trace::SnapshotStats snap_stats;
  const std::vector<vino::trace::TaggedRecord> records =
      vino::trace::Snapshot(&snap_stats);
  std::map<std::string, uint64_t> event_counts;
  for (const auto& r : records) {
    event_counts[std::string(vino::trace::EventName(
        static_cast<vino::trace::Event>(r.record.event)))]++;
  }

  const vino::TxnStats txn = txn_manager.stats();
  const Quantiles invoke_q = Read(invoke_latency);
  const Quantiles commit_q = Read(txn_manager.commit_latency());
  const Quantiles abort_q = Read(txn_manager.abort_latency());
  const AbortCostModel::Fitted global_fit = txn_manager.abort_cost().Fit();
  // The same quantity a spool replay's global model reconstructs from
  // kAbortCost records: every graft's invocation-level abort samples, as
  // one fit. (The kernel-wide model above is txn-internal abort cost — a
  // narrower window — so the two fits legitimately differ.)
  AbortCostModel graft_union;
  for (const auto& g : grafts) {
    graft_union.Merge(g->abort_cost());
  }
  const AbortCostModel::Fitted graft_union_fit = graft_union.Fit();

  // Manager-wide drift line: what the most recent aborts cost vs what the
  // lifetime fit predicts for their (L, G) shape. Per-graft drift runs in
  // the kernel itself (src/graft/drift.h); this is the at-a-glance view.
  const vino::AbortCostWindow::Snapshot recent =
      txn_manager.recent_abort_cost().Read();
  double recent_predicted_ns = 0.0;
  if (global_fit.valid && recent.samples > 0) {
    recent_predicted_ns = global_fit.a_ns +
                          global_fit.b_ns * recent.mean_locks +
                          global_fit.c_ns * recent.mean_undo;
    if (recent_predicted_ns < 0.0) {
      recent_predicted_ns = 0.0;
    }
  }
  const double recent_ratio =
      recent_predicted_ns > 0.0 ? recent.mean_cost_ns / recent_predicted_ns
                                : 0.0;

  GraftAggs rows;
  for (const auto& g : grafts) {
    GraftAgg& row = rows[g->trace_id()];
    row.name = g->name();
    row.invocations = g->invocations();
    row.aborts = g->aborts();
    row.degraded = g->degraded();
    row.runs[0] = g->invocations();
    for (size_t t = 0; t < vino::kExecTierCount; ++t) {
      row.runs[t + 1] = g->tier_runs(static_cast<vino::ExecTier>(t));
      row.runs[0] -= row.runs[t + 1];
    }
    row.model.Merge(g->abort_cost());
  }

  // ---- Report ---------------------------------------------------------
  if (json) {
    std::printf("{\n  \"invocations\": %" PRIu64 ",\n", invocations);
    if (drainer != nullptr) {
      const vino::spool::SpoolDrainer::Stats ds = drainer->stats();
      std::printf("  \"spool_out\": {\"path\": ");
      PrintJsonString(spool_out);
      std::printf(", \"records\": %" PRIu64 ", \"batches\": %" PRIu64
                  ", \"lost_total\": %" PRIu64 "},\n",
                  ds.records, ds.batches, ds.lost_total);
    }
    std::printf("  \"txn\": {\"begins\": %" PRIu64 ", \"commits\": %" PRIu64
                ", \"aborts\": %" PRIu64 ", \"slab_misses\": %" PRIu64
                ", \"slab_overflows\": %" PRIu64 "},\n",
                txn.begins, txn.commits, txn.aborts, txn.slab_misses,
                txn.slab_overflows);
    std::printf("  \"trace\": {\"records\": %" PRIu64 ", \"dropped\": %" PRIu64
                ", \"overwritten\": %" PRIu64 ", \"rings\": %" PRIu64
                ", \"events\": ",
                snap_stats.records, snap_stats.dropped, snap_stats.overwritten,
                snap_stats.rings);
    PrintEventsJson(event_counts);
    std::printf("},\n");
    std::printf("  \"latency\": {\"invoke\": ");
    PrintQuantilesJson(invoke_q);
    std::printf(", \"commit\": ");
    PrintQuantilesJson(commit_q);
    std::printf(", \"abort\": ");
    PrintQuantilesJson(abort_q);
    std::printf(", \"tiers\": ");
    PrintTierLatencyJson(tier_latency);
    std::printf("},\n");
    std::printf("  \"abort_cost_global\": ");
    PrintFitJson(global_fit);
    std::printf(",\n  \"abort_cost_grafts\": ");
    PrintFitJson(graft_union_fit);
    std::printf(",\n  \"abort_cost_recent\": {\"samples\": %" PRIu64
                ", \"total\": %" PRIu64 ", \"mean_locks\": %.2f, "
                "\"mean_undo\": %.2f, \"mean_cost_ns\": %.1f, "
                "\"predicted_ns\": %.1f, \"ratio\": %.3f}",
                recent.samples, recent.total, recent.mean_locks,
                recent.mean_undo, recent.mean_cost_ns, recent_predicted_ns,
                recent_ratio);
    std::printf(",\n  \"grafts\": ");
    PrintGraftsJson(rows, "    ");
    std::printf("\n}\n");
    return 0;
  }

  std::printf("graftstat: %" PRIu64 " invocations, flight recorder live\n\n",
              invocations);
  std::printf("transactions: %" PRIu64 " begun, %" PRIu64 " committed, %" PRIu64
              " aborted\n\n",
              txn.begins, txn.commits, txn.aborts);

  std::printf("flight recorder: %" PRIu64 " records (%" PRIu64
              " dropped to wrap-around, %" PRIu64 " overwritten ever, %" PRIu64
              " rings)\n",
              snap_stats.records, snap_stats.dropped, snap_stats.overwritten,
              snap_stats.rings);
  PrintEventsText(event_counts);
  if (drainer != nullptr) {
    const vino::spool::SpoolDrainer::Stats ds = drainer->stats();
    std::printf("spooled: %" PRIu64 " records in %" PRIu64 " batches -> %s "
                "(%" PRIu64 " lost)\n",
                ds.records, ds.batches, spool_out.c_str(), ds.lost_total);
  }
  std::printf("\n");

  std::printf("latency (ns, bucket upper bounds):\n");
  PrintQuantilesText("invoke", invoke_q);
  PrintTierLatencyText(tier_latency);
  PrintQuantilesText("commit", commit_q);
  PrintQuantilesText("abort", abort_q);
  std::printf("\n");

  std::printf("abort-cost model (paper §4.5: cost = a + b·L + c·G):\n");
  PrintFitText("kernel-wide", global_fit);
  PrintFitText("all-grafts", graft_union_fit);
  if (recent.samples > 0 && recent_predicted_ns > 0.0) {
    std::printf("  %-14s last %" PRIu64 " of %" PRIu64
                " aborts: mean cost %.1f µs vs fitted %.1f µs (×%.2f)\n",
                "recent-drift", recent.samples, recent.total,
                recent.mean_cost_ns / 1e3, recent_predicted_ns / 1e3,
                recent_ratio);
  }
  std::printf("\nper-graft:\n");
  PrintGraftsText(rows);
  return 0;
}
