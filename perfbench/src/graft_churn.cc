// graft-churn: grafts from source to removal, one closed-loop client.
//
// Each cycle builds one program (a family program with loops, or a random
// program of 30, 300 or 3000 instructions), then runs assemble ->
// Instrument -> Sign -> GraftLoader::Load -> InstallFunction, a few
// committing invokes, and Remove. About a quarter of cycles install a
// misbehaving graft instead (fuel spinner, memory hog, or lock+undo hog),
// which is invoked once and must be aborted, undone and ejected. A small
// share of cycles flips bits in a signed container, which must be
// rejected. Committed results are compared with the Tier-0 interpreter run
// on the same instrumented program and arguments.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/checks.h"
#include "src/fuzz/program_gen.h"
#include "src/programs.h"
#include "src/resource/account.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/stats.h"
#include "src/txn/txn_lock.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using namespace vino;

constexpr double kHostileShare = 0.25;
constexpr double kFlipShare = 0.05;
constexpr int kInvokesPerCycle = 3;
constexpr uint64_t kFuel = 100'000;
constexpr int kLocks = 8;
constexpr size_t kUndoSlots = 256;
constexpr GraftIdentity kClient{4004, false};
// Set-up runs this many benign and misbehaving cycles untimed, so first-use
// costs (allocator, slabs, branch predictors) are paid before timing.
constexpr int kWarmupCycles = 256;

// Benign program classes, with their share of benign cycles.
enum Class { kFam = 0, kR30, kR300, kR3000, kBenignClasses };
constexpr double kClassShare[kBenignClasses] = {0.40, 0.25, 0.20, 0.15};
constexpr int kRandomLength[kBenignClasses] = {0, 30, 300, 3000};

struct ClassSpans {
  const char* tag;
  const char* instrument;
  const char* sign;
  const char* load;
  const char* install;
  const char* verify;
  const char* compile;
};
constexpr ClassSpans kSpans[kBenignClasses + 1] = {
    {"fam", "sfi.misfit.instrument.fam", "sfi.signing.sign.fam",
     "graft.loader.load.fam", "graft.loader.install.fam",
     "probe.sfi.verifier.verify.fam", "probe.sfi.threaded_vm.compile.fam"},
    {"r30", "sfi.misfit.instrument.r30", "sfi.signing.sign.r30",
     "graft.loader.load.r30", "graft.loader.install.r30",
     "probe.sfi.verifier.verify.r30", "probe.sfi.threaded_vm.compile.r30"},
    {"r300", "sfi.misfit.instrument.r300", "sfi.signing.sign.r300",
     "graft.loader.load.r300", "graft.loader.install.r300",
     "probe.sfi.verifier.verify.r300", "probe.sfi.threaded_vm.compile.r300"},
    {"r3000", "sfi.misfit.instrument.r3000", "sfi.signing.sign.r3000",
     "graft.loader.load.r3000", "graft.loader.install.r3000",
     "probe.sfi.verifier.verify.r3000", "probe.sfi.threaded_vm.compile.r3000"},
    {"hostile", "sfi.misfit.instrument.hostile", "sfi.signing.sign.hostile",
     "graft.loader.load.hostile", "graft.loader.install.hostile", nullptr,
     nullptr},
};
constexpr int kHostileClass = kBenignClasses;

enum Misbehaviour { kSpin = 0, kResource, kLockUndo, kMisbehaviours };
constexpr const char* kAbortSpan[kMisbehaviours] = {
    "graft.function_point.abort_invoke.fuel",
    "graft.function_point.abort_invoke.resource",
    "graft.function_point.abort_invoke.lock_undo"};

uint64_t Fallback(int cls) { return 7 + static_cast<uint64_t>(cls); }

struct World {
  World() : kernel(BenchKernelConfig()), sponsor("churn.client") {
    sponsor.SetLimit(ResourceType::kMemory, 64 * 1024);
    for (int i = 0; i < kLocks; ++i) {
      locks[static_cast<size_t>(i)] =
          std::make_unique<TxnLock>("churn.lock." + std::to_string(i));
    }
    alloc_id = kernel.host().Register(
        "churn.alloc",
        [](HostCallContext& ctx) -> Result<uint64_t> {
          const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
          if (!IsOk(s)) return s;
          return 0ull;
        },
        /*graft_callable=*/true);
    lock_id = kernel.host().Register(
        "churn.lock",
        [this](HostCallContext& ctx) -> Result<uint64_t> {
          const Status s = locks[ctx.args[0] % kLocks]->Acquire();
          if (!IsOk(s)) return s;
          ++lock_calls;
          return 0ull;
        },
        /*graft_callable=*/true);
    undo_id = kernel.host().Register(
        "churn.undo",
        [this](HostCallContext& ctx) -> Result<uint64_t> {
          Transaction* txn = TxnManager::Current();
          if (txn == nullptr) return Status::kNoTransaction;
          const uint64_t n = std::min<uint64_t>(ctx.args[0], kUndoSlots);
          for (uint64_t i = 0; i < n; ++i) {
            txn->undo().PushRestoreU64(&slots[i]);
            slots[i] = 0xDEADull + i;
          }
          undo_records += n;
          return 0ull;
        },
        /*graft_callable=*/true);
    for (int c = 0; c <= kBenignClasses; ++c) {
      FunctionGraftPoint::Config config = kernel.DefaultPointConfig(50'000);
      config.fuel = kFuel;
      const uint64_t fallback = Fallback(c);
      points[static_cast<size_t>(c)] = std::make_unique<FunctionGraftPoint>(
          std::string("churn.") + kSpans[c].tag,
          [fallback](std::span<const uint64_t>) { return fallback; }, config,
          &kernel.txn(), &kernel.host(), &kernel.ns());
    }
  }

  VinoKernel kernel;
  ResourceAccount sponsor;
  std::array<std::unique_ptr<TxnLock>, kLocks> locks;
  std::array<uint64_t, kUndoSlots> slots{};
  std::array<std::unique_ptr<FunctionGraftPoint>, kBenignClasses + 1> points;
  uint32_t alloc_id = 0, lock_id = 0, undo_id = 0;
  // Host-call counters; the single client thread is their only writer.
  uint64_t lock_calls = 0, undo_records = 0;
};

struct PhaseOut {
  std::vector<double> cycle_ns, load_ns;
  std::array<std::vector<double>, kMisbehaviours> abort_ns;
  uint64_t cycles = 0, failed = 0;
  uint64_t load_attempts = 0, loads_accepted = 0;
  uint64_t hostile = 0, lock_undo_aborts = 0;
  double wall_s = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
};

struct Tracing {
  SpanRecorder* rec = nullptr;
  SpanRecorder* probes = nullptr;
};

// assemble -> Instrument -> Sign -> Load -> InstallFunction. Returns the
// instrumented program through `inst` and the graft, or null on failure.
std::shared_ptr<Graft> Install(World& w, int cls, Program source,
                               uint32_t arena_log2, Program* inst,
                               const Tracing& tr, int32_t root, uint64_t id,
                               PhaseOut& out) {
  const ClassSpans& names = kSpans[cls];
  Result<Program> instrumented = Status::kInternal;
  {
    SpanScope span(tr.rec, names.instrument, root, id);
    instrumented = Instrument(source, MisfitOptions{arena_log2});
  }
  if (!instrumented.ok()) return nullptr;
  *inst = *instrumented;
  Result<SignedGraft> sg = Status::kInternal;
  {
    SpanScope span(tr.rec, names.sign, root, id);
    sg = w.kernel.toolchain().Sign(*instrumented);
  }
  if (!sg.ok()) return nullptr;
  ++out.load_attempts;
  Result<std::shared_ptr<Graft>> graft = Status::kInternal;
  {
    SpanScope span(tr.rec, names.load, root, id);
    graft = w.kernel.loader().Load(*sg, {kClient, &w.sponsor});
  }
  if (!graft.ok()) return nullptr;
  ++out.loads_accepted;
  Status installed;
  {
    SpanScope span(tr.rec, names.install, root, id);
    installed = w.kernel.loader().InstallFunction(
        w.points[static_cast<size_t>(cls)]->name(), *graft);
  }
  return installed == Status::kOk ? *graft : nullptr;
}

void BenignCycle(World& w, Rng& rng, const Tracing& tr, SpanScope& cycle,
                 uint64_t id, int64_t t0, PhaseOut& out) {
  const int32_t root = cycle.index();
  double pick = rng.NextDouble();
  int cls = 0;
  while (cls < kBenignClasses - 1 && pick >= kClassShare[cls]) {
    pick -= kClassShare[cls];
    ++cls;
  }
  Program source;
  uint32_t arena_log2 = 16;
  {
    SpanScope span(tr.rec, "sfi.assemble", root, id);
    if (cls == kFam) {
      const int family = static_cast<int>(rng.Below(kFamilyCount));
      source = FamilyProgram(family, "churn.fam" + std::to_string(id));
      arena_log2 = kFamilyArenaLog2;
    } else {
      fuzz::GenOptions gen;
      gen.length = kRandomLength[cls];
      source = fuzz::RandomProgram(rng, gen);
      source.name = "churn.rand" + std::to_string(id);
    }
  }
  Program inst;
  std::shared_ptr<Graft> graft =
      Install(w, cls, std::move(source), arena_log2, &inst, tr, root, id, out);
  if (graft == nullptr) {
    out.Fail(std::string("benign ") + kSpans[cls].tag + " graft refused");
    return;
  }
  out.load_ns.push_back(static_cast<double>(NowNs() - t0));

  FunctionGraftPoint& point = *w.points[static_cast<size_t>(cls)];
  const uint64_t aborts_before = point.stats().graft_aborts;
  std::array<std::array<uint64_t, kMaxArgs>, kInvokesPerCycle> args{};
  std::array<uint64_t, kInvokesPerCycle> results{};
  for (int k = 0; k < kInvokesPerCycle; ++k) {
    for (uint64_t& a : args[static_cast<size_t>(k)]) a = rng.Below(1u << 20);
    SpanScope span(tr.rec, "graft.function_point.invoke", root, id);
    results[static_cast<size_t>(k)] = point.Invoke(args[static_cast<size_t>(k)]);
  }
  const bool committed = point.stats().graft_aborts == aborts_before &&
                         point.current_graft() == graft;
  {
    SpanScope span(tr.rec, "graft.function_point.remove", root, id);
    point.Remove();
  }
  cycle.Close();
  out.cycle_ns.push_back(static_cast<double>(NowNs() - t0));

  // Checks, outside the timed cycle.
  if (!committed) {
    out.Fail(std::string("benign ") + kSpans[cls].tag + " graft aborted");
    return;
  }
  TierReference ref(inst, &w.kernel.host(), 4096, kFuel);
  for (int k = 0; k < kInvokesPerCycle; ++k) {
    if (!ref.Check(args[static_cast<size_t>(k)], results[static_cast<size_t>(k)])) {
      out.Fail(std::string("result differs from the Tier-0 reference (") +
               kSpans[cls].tag + ")");
    }
  }
  if (tr.probes != nullptr) {
    VerifierOptions options;
    options.host = &w.kernel.host();
    VerifierReport verdict;
    {
      SpanScope span(tr.probes, kSpans[cls].verify, -1, id);
      verdict = VerifySandbox(inst, options);
    }
    Program verified = inst;
    verified.verified = verdict.ok();
    SpanScope span(tr.probes, kSpans[cls].compile, -1, id);
    (void)CompileThreaded(verified);
  }
}

void HostileCycle(World& w, Rng& rng, const Tracing& tr, SpanScope& cycle,
                  uint64_t id, int64_t t0, PhaseOut& out) {
  const int32_t root = cycle.index();
  const int kind = static_cast<int>(rng.Below(kMisbehaviours));
  const int locks = 1 + static_cast<int>(rng.Below(kLocks));
  const int undo = 16 + static_cast<int>(rng.Below(kUndoSlots - 15));
  Program source;
  {
    SpanScope span(tr.rec, "sfi.assemble", root, id);
    const std::string name = "churn.hostile" + std::to_string(id);
    source = kind == kSpin      ? SpinnerProgram(name)
             : kind == kResource ? MemHogProgram(name, w.alloc_id)
                                 : LockUndoHogProgram(name, w.lock_id,
                                                      w.undo_id, locks, undo);
  }
  Program inst;
  std::shared_ptr<Graft> graft = Install(w, kHostileClass, std::move(source),
                                         kFamilyArenaLog2, &inst, tr, root, id,
                                         out);
  if (graft == nullptr) {
    out.Fail("misbehaving graft refused at load");
    return;
  }
  out.load_ns.push_back(static_cast<double>(NowNs() - t0));
  ++out.hostile;

  FunctionGraftPoint& point = *w.points[kHostileClass];
  const FunctionGraftPoint::Stats before = point.stats();
  const uint64_t args[2] = {rng.Next(), rng.Next()};
  uint64_t result = 0;
  const int64_t a0 = NowNs();
  {
    SpanScope span(tr.rec, kAbortSpan[kind], root, id);
    result = point.Invoke(args);
  }
  cycle.Close();
  const int64_t a1 = NowNs();
  out.abort_ns[static_cast<size_t>(kind)].push_back(static_cast<double>(a1 - a0));
  out.cycle_ns.push_back(static_cast<double>(a1 - t0));
  if (kind == kLockUndo) ++out.lock_undo_aborts;

  const FunctionGraftPoint::Stats after = point.stats();
  if (result != Fallback(kHostileClass) || point.grafted() ||
      after.graft_aborts != before.graft_aborts + 1 ||
      after.forcible_removals != before.forcible_removals + 1) {
    out.Fail("misbehaving graft was not aborted and ejected");
  }
  bool released = true;
  for (const auto& lock : w.locks) released = released && !lock->held();
  bool undone = true;
  for (const uint64_t slot : w.slots) undone = undone && slot == 0;
  if (!released || !undone) out.Fail("abort left locks held or undo unplayed");
  if (w.sponsor.usage(ResourceType::kMemory) != 0) {
    out.Fail("memory hog's charge was not returned");
  }
}

// A signed container with flipped bits must be refused.
void FlipCycle(World& w, Rng& rng, const Tracing& tr, SpanScope& cycle,
               uint64_t id, int64_t t0, PhaseOut& out) {
  const int32_t root = cycle.index();
  Result<Program> inst = Instrument(
      FamilyProgram(static_cast<int>(rng.Below(kFamilyCount)),
                    "churn.flip" + std::to_string(id)),
      MisfitOptions{kFamilyArenaLog2});
  Result<SignedGraft> sg =
      inst.ok() ? w.kernel.toolchain().Sign(*inst) : Result<SignedGraft>(inst.status());
  if (!sg.ok()) {
    out.Fail("flip cycle could not build its container");
    return;
  }
  std::vector<uint8_t> bytes = SerializeSignedGraft(*sg);
  // 1-3 distinct bits, so two flips never cancel out.
  std::vector<uint64_t> flipped;
  const uint64_t flips = 1 + rng.Below(3);
  while (flipped.size() < flips) {
    const uint64_t bit = rng.Below(bytes.size() * 8);
    if (std::find(flipped.begin(), flipped.end(), bit) != flipped.end()) continue;
    flipped.push_back(bit);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  ++out.load_attempts;
  bool accepted = false;
  {
    SpanScope span(tr.rec, "graft.loader.load_rejected", root, id);
    Result<SignedGraft> parsed = DeserializeSignedGraft(bytes);
    accepted = parsed.ok() &&
               w.kernel.loader().Load(*parsed, {kClient, &w.sponsor}).ok();
  }
  cycle.Close();
  out.cycle_ns.push_back(static_cast<double>(NowNs() - t0));
  if (accepted) {
    ++out.loads_accepted;
    out.Fail("bit-flipped container was accepted");
  }
}

void RunPhase(World& w, Rng& rng, double seconds, const Tracing& tr,
              PhaseOut& out) {
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    const uint64_t id = out.cycles++;
    const double pick = rng.NextDouble();
    const int64_t t0 = NowNs();
    // The root span ends with the timed cycle; checks and probes after it
    // are outside every span.
    SpanScope cycle(tr.rec, "churn.cycle", -1, id);
    if (pick < kFlipShare) {
      FlipCycle(w, rng, tr, cycle, id, t0, out);
    } else if (pick < kFlipShare + kHostileShare) {
      HostileCycle(w, rng, tr, cycle, id, t0, out);
    } else {
      BenignCycle(w, rng, tr, cycle, id, t0, out);
    }
  }
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
}

void Tally(const PhaseOut& out, Report& report) {
  report.AddAttempted(out.cycles);
  report.AddFailures(out.failed, out.first_failure);
}

}  // namespace

void RunGraftChurn(const RunArgs& args, Report& report) {
  std::printf("graft-churn: closed loop, 1 client; benign classes fam/r30/"
              "r300/r3000 at %.0f/%.0f/%.0f/%.0f%%, %.0f%% misbehaving, "
              "%.0f%% bit-flipped, %d invokes per cycle, fuel %llu\n",
              kClassShare[0] * 100, kClassShare[1] * 100, kClassShare[2] * 100,
              kClassShare[3] * 100, kHostileShare * 100, kFlipShare * 100,
              kInvokesPerCycle, static_cast<unsigned long long>(kFuel));
  std::printf("threads: nproc=%u client=1 event_pool=%zu watchdog=1\n",
              args.nproc, BenchKernelConfig().event_pool.workers);

  // Set-up: kernel construction, host calls, points, and kWarmupCycles
  // benign and misbehaving cycles.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const int64_t t0 = NowNs();
    world = std::make_unique<World>();
    Rng warm(MixU64(args.seed ^ 0x3A3Aull));
    PhaseOut warm_out;
    for (int i = 0; i < kWarmupCycles; ++i) {
      const int64_t c0 = NowNs();
      SpanScope untraced(nullptr, "churn.cycle", -1, 0);
      BenignCycle(*world, warm, {}, untraced, static_cast<uint64_t>(i), c0, warm_out);
      HostileCycle(*world, warm, {}, untraced, static_cast<uint64_t>(i), c0, warm_out);
    }
    report.AddFailures(warm_out.failed, warm_out.first_failure);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  World& w = *world;
  report.Set("setup_s", Median(setup_s), "s", setup_s.size());

  Rng rng(MixU64(args.seed ^ 0xC4C1Eull));
  const uint64_t lock_calls0 = w.lock_calls, undo0 = w.undo_records;
  if (!args.trace) {
    PhaseOut out;
    RunPhase(w, rng, args.seconds, {}, out);
    Tally(out, report);
    const Summary cycle = Summarize(out.cycle_ns);
    const Summary load = Summarize(out.load_ns);
    std::vector<double> aborts;
    for (const auto& v : out.abort_ns) aborts.insert(aborts.end(), v.begin(), v.end());
    const Summary abort = Summarize(aborts);
    report.Set("op_p50_us", cycle.p50 / 1e3, "us", cycle.n);
    report.Set("op_p99_us", cycle.p99 / 1e3, "us", cycle.n, Report::TailNote(cycle));
    report.Tail("op_tail_us", cycle, "us", 1e-3);
    report.Set("ops_per_s", static_cast<double>(out.cycles) / out.wall_s, "1/s",
               out.cycles);
    report.Set("load_p50_us", load.p50 / 1e3, "us", load.n);
    report.Set("load_p99_us", load.p99 / 1e3, "us", load.n, Report::TailNote(load));
    report.Set("abort_p50_us", abort.p50 / 1e3, "us", abort.n);
    report.Set("abort_p99_us", abort.p99 / 1e3, "us", abort.n,
               Report::TailNote(abort));
    report.Set("fail_ratio",
               static_cast<double>(out.failed) /
                   static_cast<double>(std::max<uint64_t>(1, out.cycles)),
               "ratio", out.cycles);
  } else {
    PhaseOut untraced;
    RunPhase(w, rng, args.seconds / 2, {}, untraced);
    Tally(untraced, report);
    SpanRecorder rec(1 << 18);
    SpanRecorder probes(1 << 15);
    PhaseOut traced;
    const uint64_t lock_calls1 = w.lock_calls, undo1 = w.undo_records;
    RunPhase(w, rng, args.seconds / 2, {&rec, &probes}, traced);
    Tally(traced, report);

    std::vector<SpanMetric> metrics;
    for (int c = 0; c < kBenignClasses; ++c) {
      const ClassSpans& s = kSpans[c];
      const std::string tag = std::string(".") + s.tag;
      metrics.push_back({s.instrument, "sfi.misfit.instrument_us" + tag, "us", 1e-3});
      metrics.push_back({s.sign, "sfi.signing.sign_us" + tag, "us", 1e-3});
      metrics.push_back({s.load, "graft.loader.load_us" + tag, "us", 1e-3});
      metrics.push_back({s.install, "graft.loader.install_us" + tag, "us", 1e-3});
      metrics.push_back({s.verify, "sfi.verifier.verify_us" + tag, "us", 1e-3});
      metrics.push_back({s.compile, "sfi.threaded_vm.compile_us" + tag, "us", 1e-3});
    }
    metrics.push_back({kAbortSpan[kSpin],
                       "graft.function_point.abort_invoke_us.fuel", "us", 1e-3});
    metrics.push_back({kAbortSpan[kResource],
                       "graft.function_point.abort_invoke_us.resource", "us",
                       1e-3});
    metrics.push_back({kAbortSpan[kLockUndo],
                       "graft.function_point.abort_invoke_us.lock_undo", "us",
                       1e-3});
    ReportSpans({&rec, &probes}, metrics, report, args);

    report.Set("graft.loader.accept_ratio",
               static_cast<double>(traced.loads_accepted) /
                   static_cast<double>(std::max<uint64_t>(1, traced.load_attempts)),
               "ratio", traced.load_attempts);
    const double lu = static_cast<double>(std::max<uint64_t>(1, traced.lock_undo_aborts));
    report.Set("txn.locks_per_abort",
               static_cast<double>(w.lock_calls - lock_calls1) / lu, "count",
               traced.lock_undo_aborts);
    report.Set("txn.undo_per_abort",
               static_cast<double>(w.undo_records - undo1) / lu, "count",
               traced.lock_undo_aborts);
    std::vector<double> u = untraced.cycle_ns, t = traced.cycle_ns;
    ReportTraceOverhead(Summarize(u).p50, Summarize(t).p50,
                        static_cast<double>(untraced.cycles) / untraced.wall_s,
                        static_cast<double>(traced.cycles) /
                            (traced.wall_s - TotalSeconds(probes)),
                        report);
  }

  std::printf("\nsurvival invariants:\n");
  const TxnStats txn = w.kernel.txn().stats();
  report.Invariant(txn.begins == txn.commits + txn.aborts,
                   "begins " + std::to_string(txn.begins) + " == commits " +
                       std::to_string(txn.commits) + " + aborts " +
                       std::to_string(txn.aborts));
  const FunctionGraftPoint::Stats hostile = w.points[kHostileClass]->stats();
  report.Invariant(hostile.graft_aborts == hostile.forcible_removals &&
                       !w.points[kHostileClass]->grafted(),
                   "every misbehaving graft ejected (" +
                       std::to_string(hostile.forcible_removals) + ")");
  uint64_t benign_aborts = 0;
  for (int c = 0; c < kBenignClasses; ++c) {
    benign_aborts += w.points[static_cast<size_t>(c)]->stats().graft_aborts;
  }
  report.Invariant(benign_aborts == 0, "no benign graft aborted");
  bool held = false;
  for (const auto& lock : w.locks) held = held || lock->held();
  report.Invariant(!held, "every lock released");
  report.Invariant(w.sponsor.usage(ResourceType::kMemory) == 0,
                   "memory hog account returned to 0");
  std::printf("lock+undo hogs took %llu locks and %llu undo records\n",
              static_cast<unsigned long long>(w.lock_calls - lock_calls0),
              static_cast<unsigned long long>(w.undo_records - undo0));
}

}  // namespace perfbench
