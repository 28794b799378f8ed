#!/usr/bin/env bash
# Tier-1 verification gate, mechanically catching what code review misses:
#   1. normal build + full ctest suite, once: the loader compiles every
#      verified graft for the Tier-1 direct-threaded engine, and the
#      differential tests (property_test's Tier/Verifier fuzz,
#      threaded_vm_test, graftfuzz) run both engines inside one process;
#      the suite includes serve_mixed_smoke, the multi-tenant serving
#      scenario (perfbench's serve-mixed workload: 200 tenants, hostile mix
#      included), whose survival invariants — every hostile graft ejected,
#      zero false ejections, zero lost events, every tenant still serving,
#      lock table drained, transactions balanced, hog charges rolled back —
#      hard-fail every stage that runs it (1, 4, 6 and 7),
#   2. offline verifier audit: vverify (the same VerifySandbox analysis the
#      loader runs) must accept every example graft graftc emits, and the
#      misbehavior zoo — whose forged-toolchain grafts the loader's verifier
#      refuses at load time — must contain every attack,
#   3. flaky-dispatch guard: robustness_test repeated 20x until-fail (the
#      mixed sync/async event case was an 18/20 flake before the worker
#      pool; any regression shows up here),
#   4. flight recorder live: the whole suite re-run with VINO_TRACE=1 (every
#      instrumentation site exercised with the ring hot) and spooled, every
#      spool (the serving smoke's included) replayed by one
#      `graftstat --spool <dir>`, plus a graftstat --json smoke test,
#   5. adversarial graft fuzzing: graftfuzz --smoke — deterministic
#      survive-and-eject campaigns (fixed seeds, all three program classes,
#      both execution tiers) against a live kernel with the spool attached;
#      any anomaly (sandbox escape, tier divergence, missed ejection, lost
#      events, spool loss) fails the gate and leaves a reproducer bundle
#      under build/fuzz-artifacts; outside --fast, the tier-differential
#      and verifier property tests also run widened to 20000 trials per
#      seed,
#   6. ThreadSanitizer build + the concurrency-heavy tests, so dispatch
#      races (Drain vs DispatchAsync, pool lifecycle, txn locks, ring
#      snapshot-during-write, concurrent Tier-1 dispatch over one shared
#      compiled artifact, the tier-differential fuzz, lock-table sharding,
#      namespace install/invoke/remove churn, the serving smoke itself) fail
#      CI instead of shipping; the fuzz smoke re-runs under TSan too,
#   7. AddressSanitizer+UBSan build + the full suite (minus alloc_test,
#      whose global operator-new counter conflicts with ASan's allocator
#      interposition), so heap misuse and undefined behaviour in the Vm /
#      packing / undo-replay paths and the serving smoke fail CI too; the
#      fuzz smoke re-runs under ASan+UBSan as well.
#
# Usage: tools/check.sh [--fast] [--bench]
#   --fast   skip the sanitizer stages (normal build + tests + flake guard
#            + a reduced-budget fuzz smoke).
#   --bench  also run the micro-benchmarks and diff them against the
#            committed BENCH_PR2/PR7 json snapshots
#            (warn-only: shared CI boxes are too noisy for a hard perf
#            gate; read the table — unless VINO_QUIET_RUNNER=1 marks the
#            box as quiet enough to make a statistically significant
#            regression a hard failure).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
BENCH=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== [1/7] build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [2/7] offline verifier audit: vverify over example grafts + zoo =="
AUDIT_DIR="$PWD/build/graft-audit"
rm -rf "$AUDIT_DIR" && mkdir -p "$AUDIT_DIR"
for src in examples/grafts/*.vasm; do
  name="$(basename "${src%.vasm}")"
  build/tools/graftc "$src" "$AUDIT_DIR/$name.graft"
done
# Offline audit must agree with the loader: every graft the toolchain emits
# passes the identical VerifySandbox analysis.
build/tools/vverify "$AUDIT_DIR"/*.graft
# The zoo's forged-toolchain grafts take the other side of the agreement:
# the in-kernel loader refuses each one ([SURVIVED], never [ FAILED ]).
build/examples/misbehavior_zoo > "$AUDIT_DIR/zoo.out"
if grep -q 'FAILED' "$AUDIT_DIR/zoo.out"; then
  echo "misbehavior zoo reported a failed containment:" >&2
  grep 'FAILED' "$AUDIT_DIR/zoo.out" >&2
  exit 1
fi
grep -q 'Forged toolchain' "$AUDIT_DIR/zoo.out" || {
  echo "zoo output missing the forged-toolchain section" >&2; exit 1; }
echo "verifier audit: ok (offline vverify and in-kernel loader agree)"

echo "== [3/7] flaky-dispatch guard: robustness_test x20 =="
ctest --test-dir build -R robustness_test --repeat until-fail:20 \
  --output-on-failure

echo "== [4/7] flight recorder live: suite with VINO_TRACE=1 + spooling + graftstat =="
# VINO_SPOOL makes every VinoKernel constructed by the suite spool its
# flight recorder to a per-kernel file; one graftstat --spool over the
# directory must then find them and read every one cleanly (each kernel
# OK or SPOOL_TRUNCATED; corruption fails the gate).
# Absolute: ctest runs tests with the build tree as working directory.
SPOOL_DIR="$PWD/build/spool-smoke"
rm -rf "$SPOOL_DIR" && mkdir -p "$SPOOL_DIR"
VINO_TRACE=1 VINO_SPOOL="$SPOOL_DIR" \
  ctest --test-dir build --output-on-failure -j "$JOBS"
build/tools/graftstat --spool "$SPOOL_DIR" --json | python3 -c '
import json, sys
kernels = json.load(sys.stdin)["kernels"]
assert kernels, "spool smoke: no spool files produced under VINO_SPOOL"
bad = [k["spool"] for k in kernels
       if k["spool"]["status"] not in ("OK", "SPOOL_TRUNCATED")]
assert not bad, f"spool smoke: unreadable spools: {bad}"
print(f"spool smoke: ok ({len(kernels)} spools replayed cleanly)")
'
build/tools/graftstat --json --invocations 500 | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["txn"]["aborts"] > 0, "abort-heavy run produced no aborts"
assert d["abort_cost_global"]["valid"], "abort-cost fit did not converge"
assert d["trace"]["records"] > 0, "flight recorder captured nothing"
assert any(g["aborts"] > 0 for g in d["grafts"]), "no per-graft aborts"
tiered = [g for g in d["grafts"] if g["runs"]["tier0"] + g["runs"]["tier1"] > 0]
assert tiered, "no per-tier invocation counts (program graft missing?)"
for g in d["grafts"]:
    runs = g["runs"]
    assert runs["native"] + runs["tier0"] + runs["tier1"] == g["invocations"], \
        f"tier attribution does not sum to invocations for {g['name']}"
tier_counts = sum(t["count"] for t in d["latency"]["tiers"].values())
assert tier_counts == d["latency"]["invoke"]["count"], \
    "per-tier latency histograms do not partition the invocation count"
aborts, records = d["txn"]["aborts"], d["trace"]["records"]
print(f"graftstat --json smoke: ok ({aborts} aborts, {records} records, "
      f"{len(tiered)} tiered graft(s))")
'

echo "== [5/7] adversarial graft fuzzing: graftfuzz --smoke =="
# Deterministic survive-and-eject campaigns: fixed seeds drive generated
# valid / forged / byte-soup programs through the full load -> verify ->
# install -> invoke -> abort/eject lifecycle on a live kernel with the
# spool attached. Any anomaly exits non-zero and leaves a reproducer
# bundle (program bytes, disassembly, seed, spool tail, triage) under
# build/fuzz-artifacts. --fast keeps the stage but trims the per-seed
# program budget.
FUZZ_ART="$PWD/build/fuzz-artifacts"
rm -rf "$FUZZ_ART" && mkdir -p "$FUZZ_ART"
FUZZ_BUDGET=()
if [[ "$FAST" == "1" ]]; then
  FUZZ_BUDGET=(--programs 150)
fi
build/tools/graftfuzz --smoke --artifacts "$FUZZ_ART" \
  ${FUZZ_BUDGET[@]+"${FUZZ_BUDGET[@]}"}
# The tier-differential fuzz, widened: 20000 trials per seed, half of them
# looped, holds Tier 1's block charging and fused ops to Tier 0's
# instruction counts, poll calls, host calls, registers and memory. The
# verifier fuzz gets the same widening: every forgery the block-level
# analysis accepts must stay confined with the bounds checks compiled out,
# and Tier 1 must match the checked Vm.
if [[ "$FAST" != "1" ]]; then
  VINO_FUZZ_ITERS=20000 build/tests/property_test --gtest_filter='*Tier*'
  VINO_FUZZ_ITERS=20000 build/tests/property_test --gtest_filter='*Verifier*'
fi

if [[ "$BENCH" == "1" ]]; then
  # Shared CI boxes are too noisy for a hard perf gate, so the default is
  # warn-only; a runner that declares itself quiet (VINO_QUIET_RUNNER=1)
  # turns a ≥2-sigma regression into a hard failure.
  BENCH_GATE=(--warn-only)
  GATE_LABEL="warn-only"
  if [[ "${VINO_QUIET_RUNNER:-0}" == "1" ]]; then
    BENCH_GATE=()
    GATE_LABEL="hard gate, quiet runner"
  fi
  echo "== [bench] wrapper/txn micros vs BENCH_PR2.json ($GATE_LABEL) =="
  for b in bench_wrapper bench_txn; do
    build/bench/"$b" --json="build/$b.smoke.json" \
      --benchmark_min_time=0.05 >/dev/null
    tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
      "BENCH_PR2.json#$b.after" "build/$b.smoke.json"
  done
  echo "== [bench] sfi tier micros vs BENCH_PR7.json ($GATE_LABEL) =="
  build/bench/bench_sfi --json="build/bench_sfi.smoke.json" \
    --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR7.json#bench_sfi.after" "build/bench_sfi.smoke.json"
fi

if [[ "$FAST" == "1" ]]; then
  echo "== [6/7] [7/7] skipped (--fast) =="
  exit 0
fi

echo "== [6/7] ThreadSanitizer: concurrency-heavy tests =="
cmake -B build-tsan -S . -DVINO_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
# TSAN_OPTIONS: fail the test process on the first report; tools/tsan.supp
# silences libstdc++ _Sp_atomic false positives (see that file).
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tools/tsan.supp" \
  ctest --test-dir build-tsan \
  -R 'worker_pool_test|robustness_test|stress_test|net_test|graft_point_test|txn_lock_test|watchdog_test|kernel_test|trace_test|trace_spool_test|abort_delivery_test|threaded_vm_test|property_test|install_stress_test|lockmgr_test|grafted_lockmgr_test|serve_mixed_smoke' \
  --output-on-failure -j "$JOBS"
# The survive-and-eject fuzz smoke under TSan: spool drainer, watchdogless
# abort delivery, and event-pool dispatch racing inside one live kernel.
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tools/tsan.supp" \
  build-tsan/tools/graftfuzz --smoke --artifacts "$FUZZ_ART"

echo "== [7/7] AddressSanitizer+UBSan: full suite (minus alloc_test) =="
cmake -B build-asan -S . -DVINO_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
# alloc_test is excluded: it replaces global operator new to count heap
# traffic, which defeats (and is defeated by) ASan's allocator interposition.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir build-asan -E 'alloc_test' --output-on-failure -j "$JOBS"
# The fuzz smoke under ASan+UBSan: generated hostility through the whole
# load/verify/invoke/eject path with heap misuse and UB checked live.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  build-asan/tools/graftfuzz --smoke --artifacts "$FUZZ_ART"

echo "All checks passed."
