// serve-mixed: the whole-kernel request path under an open loop.
//
// 200 tenants, each with four family graft points (read-ahead, eviction,
// encryption, scheduling) and an HTTP handler on its own TCP port; 5 % of
// tenants are hostile (spinner, striker, memory hog, hanging HTTP handler).
// Seeded Poisson arrivals at a fixed total rate are split over at most
// nproc - 1 serving threads; each thread owns a disjoint tenant subset, so a
// tenant's graft arenas have one writer. One more thread churns benign
// installs (remove + reinstall) under the traffic.
//
// A request: namespace lookup -> family graft invoke -> shared lock acquire
// (bounded wait, then withdraw) -> for hostile tenants, every 25th request
// reinstalls the broken graft and gets it aborted and ejected again ->
// HTTP delivery through the tenant's event point -> lock release. Latency
// is timed from when the request was due, so a stall also charges the
// requests queued behind it.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/checks.h"
#include "src/ladder.h"
#include "src/lockmgr/lock_manager.h"
#include "src/programs.h"
#include "src/resource/account.h"
#include "src/sfi/misfit.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using namespace vino;

// Fixed workload parameters (recorded in perfbench/workloads.json).
constexpr int kTenants = 200;
constexpr double kHostileShare = 0.05;
constexpr int kLockSlots = 16;
constexpr uint32_t kHostileRetry = 25;
constexpr int64_t kLockDeadlineNs = 150'000;
constexpr double kNominalRps = 15'000;
constexpr double kLatencyLimitUs = 1'000;  // On the nominal p99.
constexpr double kLadderRps[] = {15'000, 30'000, 45'000,
                                 60'000, 90'000, 120'000};
// The time budget: each ladder step takes kStepSeconds (a quarter of it
// warm-up) and the nominal phase the rest, after kWarmupSeconds of warm-up.
// Warm-up requests are served and checked but not timed. A traced run
// measures two halves of at most kTracedSeconds, to bound the spans kept in
// memory.
constexpr double kWarmupSeconds = 1.0;
constexpr double kStepSeconds = 1.0;
constexpr double kStepWarmupShare = 0.25;
constexpr double kTracedSeconds = 4.0;
constexpr int64_t kTailWindowNs = 100'000'000;
// A ladder step that runs this many times over its planned length stops
// taking arrivals; it has failed either way.
constexpr double kStepOverrun = 3.0;
constexpr char kGetRequest[] = "GET / HTTP/1.0\r\n\r\n";

enum Attack { kSpinner = 0, kStriker, kMemHog, kHttpHang, kAttackClasses };

uint64_t Fallback(int family) { return 40 + static_cast<uint64_t>(family); }

// Serving threads: nproc - 2, at least one. With the churn thread that
// leaves one core for the watchdog and the rest of the machine, so an
// arrival is not late because its thread was descheduled.
int ServingThreads(unsigned nproc) {
  return static_cast<int>(nproc > 2 ? nproc - 2 : 1);
}

// Busy-wait hint while the next arrival is not yet due.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

struct Tenant {
  int id = 0;
  uint16_t port = 0;
  bool hostile = false;
  int attack = -1;
  std::unique_ptr<ResourceAccount> account;
  std::array<std::unique_ptr<FunctionGraftPoint>, kFamilyCount> points;
  std::array<std::string, kFamilyCount> point_names;
  std::array<std::shared_ptr<Graft>, kFamilyCount> family_grafts;
  std::shared_ptr<Graft> attack_graft;
  int attack_family = -1;
  EventGraftPoint* http_point = nullptr;  // Owned by the net stack.
  std::string response;
  std::string expected_body;  // Empty for a tenant whose handler hangs.
  // Written only by the owning serving thread (or single-threaded phases).
  uint32_t next_request = 0;
  uint64_t delivered = 0;
  ConnectionId last_conn = 0;
};

struct World {
  World() : kernel(BenchKernelConfig()) {}
  VinoKernel kernel;  // Declared first: the tenants' points refer to it.
  SimpleLockManager locks;
  std::vector<std::unique_ptr<Tenant>> tenants;
  uint32_t alloc_id = 0;
  int hostile_count = 0;
};

std::shared_ptr<Graft> LoadGraft(World& w, Program program, int tenant_id,
                                 ResourceAccount* sponsor) {
  Result<Program> inst =
      Instrument(std::move(program), MisfitOptions{kFamilyArenaLog2});
  if (!inst.ok()) return nullptr;
  Result<SignedGraft> sg = w.kernel.toolchain().Sign(*inst);
  if (!sg.ok()) return nullptr;
  Result<std::shared_ptr<Graft>> graft = w.kernel.loader().Load(
      *sg, {GraftIdentity{1000 + static_cast<uint32_t>(tenant_id), false},
            sponsor});
  return graft.ok() ? *graft : nullptr;
}

bool SetupTenants(World& w) {
  w.alloc_id = w.kernel.host().Register(
      "serve.alloc",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
        if (!IsOk(s)) return s;
        return 0ull;
      },
      /*graft_callable=*/true);
  const int want_hostile = static_cast<int>(kHostileShare * kTenants + 0.5);
  for (int i = 0; i < kTenants; ++i) {
    auto t = std::make_unique<Tenant>();
    t->id = i;
    t->port = static_cast<uint16_t>(2000 + i);
    // Hostile tenants are spread evenly over the id space, so every
    // serving thread owns some.
    if ((i + 1) * want_hostile / kTenants > i * want_hostile / kTenants) {
      t->hostile = true;
      t->attack = w.hostile_count % kAttackClasses;
      ++w.hostile_count;
    }
    t->account = std::make_unique<ResourceAccount>("tenant." + std::to_string(i));
    t->account->SetLimit(ResourceType::kMemory, 64 * 1024);
    t->account->SetLimit(ResourceType::kNetBandwidth, uint64_t{1} << 40);
    t->account->SetLimit(ResourceType::kThreads, 8);

    const std::string tag = "t" + std::to_string(i);
    for (int f = 0; f < kFamilyCount; ++f) {
      FunctionGraftPoint::Config config = w.kernel.DefaultPointConfig(50'000);
      config.fuel = 200'000;
      config.poll_interval = 64;
      if (f == 3) {  // Scheduling results are validated; strikes eject.
        config.validator = [](uint64_t result, std::span<const uint64_t>) {
          return result < 256;
        };
        config.max_bad_results = 3;
      }
      t->point_names[f] = "serve." + std::to_string(i) + "." + kFamilyNames[f];
      const uint64_t fallback = Fallback(f);
      t->points[f] = std::make_unique<FunctionGraftPoint>(
          t->point_names[f],
          [fallback](std::span<const uint64_t>) { return fallback; }, config,
          &w.kernel.txn(), &w.kernel.host(), &w.kernel.ns());

      const bool attack_slot =
          t->hostile && ((t->attack == kSpinner && f == 0) ||
                         (t->attack == kMemHog && f == 1) ||
                         (t->attack == kStriker && f == 3));
      Program program =
          !attack_slot ? FamilyProgram(f, tag + "." + kFamilyNames[f])
          : t->attack == kSpinner ? SpinnerProgram(tag + ".spin")
          : t->attack == kMemHog  ? MemHogProgram(tag + ".hog", w.alloc_id)
                                  : StrikerProgram(tag + ".strike");
      std::shared_ptr<Graft> graft =
          LoadGraft(w, std::move(program), i, t->account.get());
      if (graft == nullptr ||
          w.kernel.loader().InstallFunction(t->point_names[f], graft) !=
              Status::kOk) {
        return false;
      }
      if (attack_slot) {
        t->attack_graft = std::move(graft);
        t->attack_family = f;
      } else {
        t->family_grafts[f] = std::move(graft);
      }
    }

    t->http_point = w.kernel.net().ListenTcp(t->port);
    if (t->http_point == nullptr) return false;
    t->response = "HTTP/1.0 200 OK\r\nServer: vino-graft\r\n\r\ntenant " +
                  std::to_string(i);
    const bool hang = t->hostile && t->attack == kHttpHang;
    t->expected_body = hang ? "" : t->response;
    std::shared_ptr<Graft> handler = LoadGraft(
        w,
        HttpProgram(tag + ".http", w.kernel.host(),
                    static_cast<int64_t>(t->response.size()), hang),
        i, t->account.get());
    if (handler == nullptr ||
        handler->image().Write(handler->image().arena_base() +
                                   kHttpResponseOffset,
                               t->response.data(),
                               t->response.size()) != Status::kOk ||
        w.kernel.loader().InstallEvent(
            "net.tcp." + std::to_string(t->port) + ".connection", handler,
            0) != Status::kOk) {
      return false;
    }
    w.tenants.push_back(std::move(t));
  }
  return true;
}

// First contact with every graft, single-threaded: each hostile graft is
// aborted or struck out and ejected here, before timing starts.
void Warmup(World& w) {
  for (auto& t : w.tenants) {
    for (int f = 0; f < kFamilyCount; ++f) {
      for (int k = 0; k < 4; ++k) {
        const uint64_t args[2] = {static_cast<uint64_t>(k),
                                  static_cast<uint64_t>(t->id)};
        (void)t->points[f]->Invoke(args);
      }
    }
    for (int k = 0; k < 2; ++k) {
      Result<ConnectionId> conn =
          w.kernel.net().DeliverConnection(t->port, kGetRequest);
      ++t->delivered;
      if (conn.ok()) t->last_conn = *conn;
    }
  }
}

// --- One request ------------------------------------------------------------

struct ThreadOut {
  std::vector<double> latency_ns;
  std::vector<int64_t> due_ns;  // Of each latency sample, from the phase start.
  std::vector<double> lag_ns;
  std::vector<uint32_t> backlog;
  uint64_t served = 0;            // Measured requests.
  uint64_t warmup_served = 0;
  uint64_t goodput = 0;         // Benign, correct, within the limit.
  uint64_t limit_misses = 0;
  uint64_t benign_fallbacks = 0;  // Benign invoke hit a churn window.
  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
  uint64_t lock_anomalies = 0;  // CancelWait lost the request: a bug.
  uint64_t holder_serial = 0;
  uint64_t failed = 0;
  std::string first_failure;
  uint64_t unserved = 0;  // Arrivals dropped after a ladder step overran.

  void Fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
};

const char* const kInvokeSpan[kFamilyCount] = {
    "graft.function_point.invoke.readahead",
    "graft.function_point.invoke.evict",
    "graft.function_point.invoke.encrypt",
    "graft.function_point.invoke.sched"};

void ServeOne(World& w, Tenant& t, int thread_id, ThreadOut& out,
              SpanRecorder* rec, int32_t root, uint64_t op) {
  const uint32_t request = t.next_request++;
  const int fam = static_cast<int>((t.id + request) % kFamilyCount);
  const uint64_t args[2] = {request, static_cast<uint64_t>(t.id)};

  // 1. Namespace lookup and family graft invoke.
  uint64_t result = 0;
  {
    SpanScope visit(rec, "graft.namespace.with_function", root, op);
    SpanScope lookup(rec, "graft.namespace.lookup", visit.index(), op);
    (void)w.kernel.ns().WithFunction(
        t.point_names[fam], [&](FunctionGraftPoint& point) -> Status {
          lookup.Close();
          SpanScope invoke(rec, kInvokeSpan[fam], visit.index(), op);
          result = point.Invoke(args);
          return Status::kOk;
        });
  }
  const bool attack_slot = t.hostile && fam == t.attack_family;
  if (attack_slot) {
    if (result != Fallback(fam)) out.Fail("hostile slot did not fall back");
  } else if (result == Fallback(fam)) {
    ++out.benign_fallbacks;
  } else if (result != FamilyResult(fam, args[0], args[1])) {
    out.Fail("family " + std::string(kFamilyNames[fam]) + " result " +
             std::to_string(result) + " for tenant " + std::to_string(t.id));
  }

  // 2. A shared lock slot; the same (request, family) maps to the same slot
  // for every tenant, so serving threads contend. (A plain multiplicative
  // hash would keep the slot's parity equal to the tenant's, and two threads
  // owning even and odd tenants would never meet.)
  const LockResourceId resource =
      MixU64(static_cast<uint64_t>(request) * kFamilyCount + fam) % kLockSlots;
  const LockHolderId holder =
      (static_cast<uint64_t>(thread_id + 1) << 32) | ++out.holder_serial;
  const LockMode mode = (t.id + request) % 5 == 0 ? LockMode::kExclusive
                                                  : LockMode::kShared;
  Status got;
  {
    SpanScope span(rec, "lockmgr.get_lock", root, op);
    got = w.locks.GetLock(resource, holder, mode);
  }
  bool held = got == Status::kOk;
  if (got == Status::kBusy) {
    SpanScope span(rec, "lockmgr.wait", root, op);
    ++out.lock_waits;
    const int64_t deadline = NowNs() + kLockDeadlineNs;
    while (!held && NowNs() < deadline) {
      std::this_thread::yield();
      held = w.locks.Holds(resource, holder);
    }
    if (!held) {
      // Withdraw atomically; kNotFound would mean the queue lost us.
      if (w.locks.CancelWait(resource, holder) == Status::kNotFound) {
        ++out.lock_anomalies;
      }
      ++out.lock_timeouts;
    }
  } else if (got != Status::kOk) {
    out.Fail("GetLock refused: " + std::string(StatusName(got)));
  }

  // 3. Hostile tenants retry their broken extension while holding the lock:
  // reinstall, invoke, get aborted and ejected again.
  if (t.attack_family >= 0 && (request + t.id) % kHostileRetry == 0) {
    SpanScope span(rec, "graft.function_point.hostile_retry", root, op);
    uint64_t retry = 0;
    (void)w.kernel.ns().WithFunction(
        t.point_names[t.attack_family],
        [&](FunctionGraftPoint& point) -> Status {
          (void)point.Replace(t.attack_graft);
          retry = point.Invoke(args);
          return Status::kOk;
        });
    if (retry != Fallback(t.attack_family)) {
      out.Fail("hostile retry was not aborted to the fallback");
    }
  }

  // 4. HTTP delivery through the tenant's event point (synchronous).
  Result<ConnectionId> conn = Status::kNotFound;
  {
    SpanScope span(rec, "net.deliver", root, op);
    conn = w.kernel.net().DeliverConnection(t.port, kGetRequest);
  }
  ++t.delivered;
  if (!conn.ok()) {
    out.Fail("DeliverConnection refused");
  } else {
    t.last_conn = *conn;
    const Connection* c = w.kernel.net().FindConnection(*conn);
    if (c == nullptr || !HttpBodyMatches(t.expected_body, c->tx)) {
      out.Fail("wrong HTTP body for tenant " + std::to_string(t.id));
    }
  }

  if (held) {
    SpanScope span(rec, "lockmgr.release", root, op);
    (void)w.locks.ReleaseLock(resource, holder);
  }
}

// --- Open-loop phases ---------------------------------------------------------

struct Arrival {
  int64_t due_ns = 0;  // From the phase start.
  uint32_t tenant = 0;
};

// Poisson arrivals at `rate` over `seconds`, each for a uniformly chosen
// tenant of `owned`.
std::vector<Arrival> MakeArrivals(Rng& rng, double rate, double seconds,
                                  const std::vector<uint32_t>& owned) {
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    out.push_back(Arrival{static_cast<int64_t>(t * 1e9),
                          owned[rng.Below(owned.size())]});
  }
  return out;
}

struct Phase {
  double rate = 0;
  double warmup_s = 0;  // Served and checked, but not measured.
  double seconds = 0;
  std::vector<ThreadOut> threads;
  std::vector<SpanRecorder> recorders;  // One per thread when traced.
};

void RunPhase(World& w, int serving, uint64_t seed, uint64_t tag, bool traced,
              Phase& phase) {
  const int64_t kStartSlackNs = 2'000'000;
  phase.threads.assign(static_cast<size_t>(serving), ThreadOut{});
  std::vector<std::vector<Arrival>> arrivals(static_cast<size_t>(serving));
  for (int th = 0; th < serving; ++th) {
    std::vector<uint32_t> owned;
    for (int i = th; i < kTenants; i += serving) owned.push_back(static_cast<uint32_t>(i));
    Rng rng(MixU64(seed) ^ MixU64(tag * 64 + static_cast<uint64_t>(th) + 1));
    arrivals[static_cast<size_t>(th)] =
        MakeArrivals(rng, phase.rate / serving, phase.warmup_s + phase.seconds,
                     owned);
  }
  if (traced) {
    phase.recorders.clear();
    for (int th = 0; th < serving; ++th) {
      phase.recorders.emplace_back(arrivals[static_cast<size_t>(th)].size() * 9);
    }
  }
  const int64_t start = NowNs() + kStartSlackNs;
  const int64_t warmup_ns = static_cast<int64_t>(phase.warmup_s * 1e9);
  const int64_t stop_taking =
      start + warmup_ns +
      static_cast<int64_t>(phase.seconds * kStepOverrun * 1e9);
  std::vector<std::thread> workers;
  for (int th = 0; th < serving; ++th) {
    workers.emplace_back([&, th] {
      ThreadOut& out = phase.threads[static_cast<size_t>(th)];
      const std::vector<Arrival>& mine = arrivals[static_cast<size_t>(th)];
      SpanRecorder* traced_rec =
          traced ? &phase.recorders[static_cast<size_t>(th)] : nullptr;
      out.latency_ns.reserve(mine.size());
      out.due_ns.reserve(mine.size());
      out.lag_ns.reserve(mine.size());
      out.backlog.reserve(mine.size());
      size_t due_count = 0;
      for (size_t k = 0; k < mine.size(); ++k) {
        const int64_t due = start + mine[k].due_ns;
        int64_t now = NowNs();
        // Busy-poll: a sleeping thread's wake-up can take milliseconds on
        // a virtual machine, which would be charged to the request.
        while (now < due) {
          CpuRelax();
          now = NowNs();
        }
        if (now > stop_taking) {
          out.unserved = mine.size() - k;
          break;
        }
        while (due_count < mine.size() && start + mine[due_count].due_ns <= now) {
          ++due_count;
        }
        const bool measured = mine[k].due_ns >= warmup_ns;
        SpanRecorder* rec = measured ? traced_rec : nullptr;
        const uint64_t op = (static_cast<uint64_t>(th) << 40) | k;
        Tenant& t = *w.tenants[mine[k].tenant];
        const uint64_t failed_before = out.failed;
        {
          SpanScope root(rec, "serve.request", -1, op);
          ServeOne(w, t, th, out, rec, root.index(), op);
        }
        const double latency = static_cast<double>(NowNs() - due);
        if (!measured) {
          ++out.warmup_served;
          continue;
        }
        out.backlog.push_back(static_cast<uint32_t>(due_count - k - 1));
        out.lag_ns.push_back(static_cast<double>(now - due));
        out.latency_ns.push_back(latency);
        out.due_ns.push_back(mine[k].due_ns - warmup_ns);
        ++out.served;
        const bool within = latency <= kLatencyLimitUs * 1e3;
        if (!within) ++out.limit_misses;
        if (!t.hostile && within && out.failed == failed_before) ++out.goodput;
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

struct PhaseSummary {
  Summary latency;
  double window_p99 = 0;  // Median of the windows' p99s.
  Summary lag;
  uint32_t backlog_max = 0;
  bool backlog_growing = false;
  uint64_t served = 0, goodput = 0, limit_misses = 0, benign_fallbacks = 0;
  uint64_t waits = 0, timeouts = 0, anomalies = 0, failed = 0, unserved = 0;
};

PhaseSummary SummarizePhase(const Phase& phase, Report& report) {
  PhaseSummary s;
  std::vector<double> latency, lag;
  std::vector<int64_t> due;
  uint64_t warmup = 0;
  for (const ThreadOut& out : phase.threads) {
    latency.insert(latency.end(), out.latency_ns.begin(), out.latency_ns.end());
    due.insert(due.end(), out.due_ns.begin(), out.due_ns.end());
    warmup += out.warmup_served;
    lag.insert(lag.end(), out.lag_ns.begin(), out.lag_ns.end());
    for (const uint32_t b : out.backlog) s.backlog_max = std::max(s.backlog_max, b);
    s.backlog_growing = s.backlog_growing || BacklogGrowing(out.backlog) ||
                        out.unserved > 0;
    s.served += out.served;
    s.goodput += out.goodput;
    s.limit_misses += out.limit_misses;
    s.benign_fallbacks += out.benign_fallbacks;
    s.waits += out.lock_waits;
    s.timeouts += out.lock_timeouts;
    s.anomalies += out.lock_anomalies;
    s.failed += out.failed;
    s.unserved += out.unserved;
    report.AddFailures(out.failed, out.first_failure);
  }
  s.window_p99 = MedianWindowP99(due, latency, kTailWindowNs);
  s.latency = Summarize(latency);
  s.lag = Summarize(lag);
  report.AddAttempted(s.served + warmup);
  return s;
}

// Final single-threaded sweep, then the survival invariants; kept ones are
// printed only when `verbose`.
void CheckSurvival(World& w, uint64_t anomalies, bool verbose, Report& report) {
  for (auto& t : w.tenants) {
    for (int f = 0; f < kFamilyCount; ++f) {
      for (int k = 0; k < 4; ++k) {
        const uint64_t args[2] = {static_cast<uint64_t>(k),
                                  static_cast<uint64_t>(t->id)};
        (void)t->points[f]->Invoke(args);
      }
    }
    Result<ConnectionId> conn =
        w.kernel.net().DeliverConnection(t->port, kGetRequest);
    ++t->delivered;
    if (conn.ok()) t->last_conn = *conn;
  }

  if (verbose) std::printf("\nsurvival invariants:\n");
  int ejected = 0;
  bool benign_intact = true;
  bool events_exact = true;
  bool serving_ok = true;
  bool hog_refunded = true;
  for (const auto& t : w.tenants) {
    if (t->hostile) {
      const bool gone =
          t->attack == kHttpHang
              ? t->http_point->handler_count() == 0 &&
                    t->http_point->stats().handler_aborts >= 1
              : !t->points[t->attack_family]->grafted() &&
                    (t->attack == kStriker
                         ? t->points[3]->stats().bad_results >= 3
                         : t->points[t->attack_family]->stats().forcible_removals >= 1);
      if (gone) ++ejected;
      if (t->attack == kMemHog && t->account->usage(ResourceType::kMemory) != 0) {
        hog_refunded = false;
      }
    }
    for (int f = 0; f < kFamilyCount; ++f) {
      if (t->hostile && f == t->attack_family) continue;
      if (!t->points[f]->grafted() || t->points[f]->stats().forcible_removals != 0) {
        benign_intact = false;
      }
    }
    if (t->http_point->stats().events != t->delivered) events_exact = false;
    const Connection* c = w.kernel.net().FindConnection(t->last_conn);
    if (c == nullptr || !HttpBodyMatches(t->expected_body, c->tx)) serving_ok = false;
  }
  report.Invariant(ejected == w.hostile_count,
                   "every hostile graft ejected (" + std::to_string(ejected) +
                       "/" + std::to_string(w.hostile_count) + ")", verbose);
  report.Invariant(benign_intact, "zero false ejections", verbose);
  report.Invariant(events_exact, "zero lost events (events == deliveries per port)", verbose);
  report.Invariant(serving_ok, "every tenant still answers with its own body", verbose);
  size_t stranded = 0;
  for (int s = 0; s < kLockSlots; ++s) stranded += w.locks.WaiterCount(s);
  report.Invariant(stranded == 0 && anomalies == 0,
                   "lock table drained (" + std::to_string(stranded) +
                       " stranded, " + std::to_string(anomalies) + " anomalies)", verbose);
  const TxnStats txn = w.kernel.txn().stats();
  report.Invariant(txn.begins == txn.commits + txn.aborts,
                   "begins " + std::to_string(txn.begins) + " == commits " +
                       std::to_string(txn.commits) + " + aborts " +
                       std::to_string(txn.aborts), verbose);
  report.Invariant(hog_refunded, "memory hog accounts returned to 0", verbose);
}

struct Counters {
  TxnStats txn;
  uint64_t invocations = 0, graft_runs = 0, events = 0, handler_aborts = 0;
};

Counters ReadCounters(World& w) {
  Counters c;
  c.txn = w.kernel.txn().stats();
  for (const auto& t : w.tenants) {
    for (int f = 0; f < kFamilyCount; ++f) {
      const FunctionGraftPoint::Stats s = t->points[f]->stats();
      c.invocations += s.invocations;
      c.graft_runs += s.graft_runs;
    }
    const EventGraftPoint::Stats e = t->http_point->stats();
    c.events += e.events;
    c.handler_aborts += e.handler_aborts;
  }
  return c;
}

std::unique_ptr<World> BuildWorld(Report& report) {
  auto w = std::make_unique<World>();
  if (!SetupTenants(*w)) {
    report.Invariant(false, "serve-mixed set-up failed");
    return nullptr;
  }
  Warmup(*w);
  return w;
}

// Remove + reinstall of random benign grafts, every 200 us, for as long as
// the object lives.
class Churn {
 public:
  Churn(World& w, uint64_t seed, bool enabled) {
    if (!enabled) return;
    thread_ = std::thread([&w, this, seed] {
      Rng rng(MixU64(seed ^ 0xC0FFEEull));
      while (!stop_.load(std::memory_order_acquire)) {
        Tenant& t = *w.tenants[rng.Below(w.tenants.size())];
        const int f = static_cast<int>(rng.Below(kFamilyCount));
        if (!(t.hostile && f == t.attack_family)) {
          (void)w.kernel.ns().WithFunction(
              t.point_names[f], [&](FunctionGraftPoint& point) -> Status {
                point.Remove();
                return point.Replace(t.family_grafts[f]);
              });
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  ~Churn() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Declared last: it uses stop_.
};

// One measured phase on `w` with the churn thread running, then the sweep
// and survival invariants. `delta`, when given, receives the kernel counters
// accumulated during the phase.
PhaseSummary Measure(World& w, const RunArgs& args, int serving, uint64_t tag,
                     bool traced, bool verbose, Phase& phase, Report& report,
                     Counters* delta = nullptr) {
  const Counters before = ReadCounters(w);
  {
    Churn churn(w, args.seed + tag, args.nproc >= 2);
    RunPhase(w, serving, args.seed, tag, traced, phase);
  }
  if (delta != nullptr) {
    const Counters after = ReadCounters(w);
    delta->txn.begins = after.txn.begins - before.txn.begins;
    delta->txn.commits = after.txn.commits - before.txn.commits;
    delta->txn.aborts = after.txn.aborts - before.txn.aborts;
    delta->txn.slab_misses = after.txn.slab_misses - before.txn.slab_misses;
    delta->invocations = after.invocations - before.invocations;
    delta->graft_runs = after.graft_runs - before.graft_runs;
    delta->events = after.events - before.events;
    delta->handler_aborts = after.handler_aborts - before.handler_aborts;
  }
  const PhaseSummary s = SummarizePhase(phase, report);
  CheckSurvival(w, s.anomalies, verbose, report);
  return s;
}

}  // namespace

void RunServeMixed(const RunArgs& args, Report& report) {
  const int serving = ServingThreads(args.nproc);
  std::printf("serve-mixed: open loop, %d tenants (%.0f%% hostile), %d lock "
              "slots, nominal %.0f rps, p99 limit %.0f us\n",
              kTenants, kHostileShare * 100, kLockSlots, kNominalRps,
              kLatencyLimitUs);
  std::printf("threads: nproc=%u serving=%d churn=%d event_pool=%zu "
              "watchdog=1\n",
              args.nproc, serving, args.nproc >= 2 ? 1 : 0,
              BenchKernelConfig().event_pool.workers);

  // Set-up: kernel construction, 200 tenants' loads and installs, warmup.
  // Every phase runs on a kernel of its own, so no phase inherits another's
  // connection table.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const int64_t t0 = NowNs();
    world = BuildWorld(report);
    if (world == nullptr) return;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report.Set("setup_s", Median(setup_s), "s", setup_s.size());

  if (!args.trace) {
    Phase nominal;
    nominal.rate = kNominalRps;
    // Short budgets shrink every part in proportion.
    const double scale = std::min(
        1.0, args.seconds / (2 * kWarmupSeconds + std::size(kLadderRps) * kStepSeconds));
    const double step_s = kStepSeconds * scale;
    nominal.warmup_s = kWarmupSeconds * scale;
    nominal.seconds =
        args.seconds - nominal.warmup_s - step_s * std::size(kLadderRps);
    const PhaseSummary n =
        Measure(*world, args, serving, 0, false, true, nominal, report);

    std::vector<LadderStep> steps;
    for (size_t i = 0; i < std::size(kLadderRps); ++i) {
      world = BuildWorld(report);
      if (world == nullptr) return;
      Phase step;
      step.rate = kLadderRps[i];
      step.warmup_s = step_s * kStepWarmupShare;
      step.seconds = step_s * (1 - kStepWarmupShare);
      const PhaseSummary s =
          Measure(*world, args, serving, i + 1, false, false, step, report);
      steps.push_back(LadderStep{step.rate, s.window_p99 / 1e3, s.latency.n,
                                 s.backlog_growing});
      const bool meets = StepMeets(steps.back(), kLatencyLimitUs);
      std::printf("  ladder %8.0f rps: p99 %9.1f us (n=%zu) backlog max %u %s%s\n",
                  step.rate, s.window_p99 / 1e3, s.latency.n, s.backlog_max,
                  s.backlog_growing ? "growing" : "steady",
                  meets ? "" : "  -> fails");
      if (!meets) break;
    }

    report.Set("op_p50_us", n.latency.p50 / 1e3, "us", n.latency.n);
    report.Set("op_p99_us", n.window_p99 / 1e3, "us", n.latency.n,
               "median of 100 ms windows");
    report.Set("op_p99_us.whole_phase", n.latency.p99 / 1e3, "us", n.latency.n,
               Report::TailNote(n.latency));
    report.Tail("op_tail_us", n.latency, "us", 1e-3);
    report.Set("ops_per_s", static_cast<double>(n.goodput) / nominal.seconds,
               "1/s", n.goodput);
    report.Set("max_rate_rps", SelectMaxRate(steps, kLatencyLimitUs), "1/s",
               steps.size());
    report.Set("fail_ratio",
               static_cast<double>(n.failed + n.limit_misses) /
                   static_cast<double>(std::max<uint64_t>(1, n.served)),
               "ratio", n.served);
    std::printf("nominal: %llu served, goodput %llu, %llu over the limit, "
                "%llu benign fallbacks (churn windows), %llu lock waits "
                "(%llu timed out), lag p99 %.1f us, backlog max %u\n",
                static_cast<unsigned long long>(n.served),
                static_cast<unsigned long long>(n.goodput),
                static_cast<unsigned long long>(n.limit_misses),
                static_cast<unsigned long long>(n.benign_fallbacks),
                static_cast<unsigned long long>(n.waits),
                static_cast<unsigned long long>(n.timeouts), n.lag.p99 / 1e3,
                n.backlog_max);
    return;
  }

  Phase untraced;
  untraced.rate = kNominalRps;
  untraced.warmup_s = std::min(kWarmupSeconds, args.seconds / 4);
  untraced.seconds = std::min(kTracedSeconds, args.seconds / 2 - untraced.warmup_s);
  const PhaseSummary u =
      Measure(*world, args, serving, 0, false, false, untraced, report);
  world = BuildWorld(report);
  if (world == nullptr) return;
  Phase traced;
  traced.rate = kNominalRps;
  traced.warmup_s = untraced.warmup_s;
  traced.seconds = untraced.seconds;
  Counters d;
  const PhaseSummary t =
      Measure(*world, args, serving, 0, true, true, traced, report, &d);

  std::vector<const SpanRecorder*> recorders;
  for (const SpanRecorder& r : traced.recorders) recorders.push_back(&r);
  ReportSpans(recorders,
              {{"graft.namespace.lookup", "graft.namespace.lookup_ns", "ns", 1},
               {kInvokeSpan[0], "graft.function_point.invoke_ns.readahead", "ns", 1},
               {kInvokeSpan[1], "graft.function_point.invoke_ns.evict", "ns", 1},
               {kInvokeSpan[2], "graft.function_point.invoke_ns.encrypt", "ns", 1},
               {kInvokeSpan[3], "graft.function_point.invoke_ns.sched", "ns", 1},
               {"lockmgr.get_lock", "lockmgr.get_lock_ns", "ns", 1},
               {"lockmgr.wait", "lockmgr.wait_ns", "ns", 1},
               {"lockmgr.release", "lockmgr.release_ns", "ns", 1},
               {"net.deliver", "net.deliver_ns", "ns", 1}},
              report, args);
  report.Set("graft.function_point.run_ratio",
             static_cast<double>(d.graft_runs) /
                 static_cast<double>(std::max<uint64_t>(1, d.invocations)),
             "ratio", d.invocations);
  report.Set("lockmgr.waits", static_cast<double>(t.waits), "count", t.served);
  report.Set("lockmgr.timeouts", static_cast<double>(t.timeouts), "count",
             t.served);
  report.Set("graft.event_point.events", static_cast<double>(d.events),
             "count", t.served);
  report.Set("graft.event_point.handler_aborts",
             static_cast<double>(d.handler_aborts), "count", t.served);
  report.Set("txn.begins", static_cast<double>(d.txn.begins), "count", t.served);
  report.Set("txn.commits", static_cast<double>(d.txn.commits), "count", t.served);
  report.Set("txn.aborts", static_cast<double>(d.txn.aborts), "count", t.served);
  report.Set("txn.slab_misses", static_cast<double>(d.txn.slab_misses), "count",
             t.served);
  report.Set("loadgen.lag_p99_us", t.lag.p99 / 1e3, "us", t.lag.n,
             Report::TailNote(t.lag));
  report.Set("loadgen.backlog_max", t.backlog_max, "count", t.served);
  ReportTraceOverhead(u.latency.p50, t.latency.p50,
                      static_cast<double>(u.goodput) / untraced.seconds,
                      static_cast<double>(t.goodput) / traced.seconds, report);
}

}  // namespace perfbench
