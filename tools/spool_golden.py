#!/usr/bin/env python3
"""Spool golden test: a spooled graftstat run replays to the same report.

Runs the deterministic abort-heavy self-test workload with --spool-out (the
drainer drains every 128 invocations, so the spooled stream is lossless),
then replays the spool with --spool and checks that the replayed report
matches the in-process one:

  * per-graft invocation and abort counts are identical,
  * the per-graft and kernel-wide abort-cost fits (a + b.L + c.G) agree to
    within printing precision (the replayed model consumes the exact same
    integer samples, mirrored into kAbortCost records),
  * invocation-latency quantiles are identical (same recorded durations),
  * per-tier latency counts sum to the invocation count,
  * the spool itself reads back clean: closed, no loss, no corruption, no
    batch sequence gap.

--follow on the closed spool must terminate (close trailer), exit 0, and
print exactly the --spool report but for "mode": both are the one attach
path, one draining what is on disk and one tailing it.

The spool lives under a directory whose name contains a '"', so every path
graftstat echoes must come back JSON-escaped.

Finally a copy of the spool with one payload byte of its first batch
flipped must classify the same way through every attach form: --spool FILE,
--follow FILE, and --spool DIR each exit 1 with status SPOOL_CORRUPT and
exactly one corrupt batch.

Usage: spool_golden.py <graftstat-binary> <workdir>
"""

import json
import os
import shutil
import subprocess
import sys

INVOCATIONS = 1024


def fail(message):
    print(f"spool_golden: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_json(argv, expect_exit=0):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != expect_exit:
        fail(f"{' '.join(argv)} exited {proc.returncode}, expected "
             f"{expect_exit}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"{' '.join(argv)} printed invalid JSON ({e}):\n{proc.stdout}")


def only_kernel(tag, report, path):
    """The single kernel object of a one-stream attach report."""
    if report["path"] != path or len(report["kernels"]) != 1:
        fail(f"{tag}: expected one kernel for {path!r}: "
             f"path {report['path']!r}, {len(report['kernels'])} kernels")
    kernel = report["kernels"][0]
    if kernel["spool"]["path"] != path:
        fail(f"{tag}: spool path did not round-trip: "
             f"{kernel['spool']['path']!r} vs {path!r}")
    return kernel


def check_fit_close(label, live, replay):
    if live["valid"] != replay["valid"]:
        fail(f"{label}: fit validity diverged: live {live} vs replay {replay}")
    if not live["valid"]:
        return
    if live["samples"] != replay["samples"]:
        fail(f"{label}: sample counts diverged: "
             f"{live['samples']} vs {replay['samples']}")
    # Identical integer inputs -> identical double fits; the only slack
    # needed is the %.1f printing granularity.
    for key in ("a_ns", "b_ns", "c_ns", "mean_locks", "mean_undo",
                "mean_cost_ns"):
        a, b = live[key], replay[key]
        if abs(a - b) > max(0.2, 1e-6 * max(abs(a), abs(b))):
            fail(f"{label}: {key} diverged: live {a} vs replay {b}")


def check_tier_sum(label, report):
    """Per-tier latency counts partition the invocation count."""
    invoke = report["latency"]["invoke"]["count"]
    tiers = report["latency"]["tiers"]
    total = sum(t["count"] for t in tiers.values())
    if total != invoke:
        fail(f"{label}: tier latency counts {total} != invocations {invoke}: "
             f"{tiers}")


def check_replay(tag, graftstat, live, spool):
    """Replays `spool` and checks it reproduces the `live` report exactly."""
    spool_report = run_json([graftstat, "--spool", spool, "--json"])
    replay = only_kernel(tag, spool_report, spool)

    # The spooled stream must be lossless and intact, or nothing else holds.
    rs = replay["spool"]
    if rs["status"] != "OK" or not rs["closed"] or rs["truncated"]:
        fail(f"{tag}: replayed spool not clean: {rs}")
    if rs["corrupt_batches"] != 0 or rs["lost_total"] != 0:
        fail(f"{tag}: replayed spool lost or corrupt: {rs}")
    if rs["seq_gaps"] != 0:
        fail(f"{tag}: replayed spool stream not continuous: {rs}")

    # Transaction counts: one txn per invocation, same commit/abort split.
    # The spool stream only carries begin/commit/abort events, so compare the
    # keys the replay can reconstruct (slab recycling stats are in-process
    # only).
    live_txn = {k: v for k, v in live["txn"].items() if k in replay["txn"]}
    if live_txn != replay["txn"]:
        fail(f"{tag}: txn counts diverged: live {live['txn']} vs "
             f"replay {replay['txn']}")

    # Per-graft: join by trace_id; counts exact, fits within print precision.
    live_grafts = {g["trace_id"]: g for g in live["grafts"]}
    replay_grafts = {g["trace_id"]: g for g in replay["grafts"]}
    if set(live_grafts) != set(replay_grafts):
        fail(f"{tag}: graft sets diverged: live {sorted(live_grafts)} vs "
             f"replay {sorted(replay_grafts)}")
    aborts_total = 0
    for trace_id, lg in live_grafts.items():
        rg = replay_grafts[trace_id]
        name = lg.get("name", f"graft#{trace_id}")
        if lg["invocations"] != rg["invocations"]:
            fail(f"{tag}: {name}: invocations diverged: "
                 f"{lg['invocations']} vs {rg['invocations']}")
        if lg["aborts"] != rg["aborts"]:
            fail(f"{tag}: {name}: aborts diverged: "
                 f"{lg['aborts']} vs {rg['aborts']}")
        if lg["degraded"] != rg["degraded"]:
            fail(f"{tag}: {name}: degraded flag diverged: "
                 f"{lg['degraded']} vs {rg['degraded']}")
        aborts_total += lg["aborts"]
        check_fit_close(f"{tag}: {name}", lg["abort_cost"], rg["abort_cost"])
    if aborts_total == 0:
        fail(f"{tag}: workload produced no aborts; the golden test is vacuous")

    # The replay's global model rebuilds the union of per-graft samples —
    # compare it against the live report's merged "abort_cost_grafts" (the
    # live "abort_cost_global" is the txn-internal model, a narrower cost
    # window, and legitimately differs).
    check_fit_close(f"{tag}: all-grafts", live["abort_cost_grafts"],
                    replay["abort_cost"])

    # Same recorded durations -> identical latency histograms, and the
    # replayed per-tier counts still partition the invocation count.
    li, ri = live["latency"]["invoke"], replay["latency"]["invoke"]
    for key in ("p50_ns", "p95_ns", "p99_ns"):
        if li[key] != ri[key]:
            fail(f"{tag}: invoke latency {key} diverged: "
                 f"{li[key]} vs {ri[key]}")
    check_tier_sum(f"{tag}: replay", replay)
    for tier, lt in live["latency"]["tiers"].items():
        rt = replay["latency"]["tiers"][tier]
        if lt["count"] != rt["count"]:
            fail(f"{tag}: tier '{tier}' count diverged: "
                 f"{lt['count']} vs {rt['count']}")

    # A closed spool must terminate --follow promptly, exit 0.
    follow_report = run_json([graftstat, "--follow", spool, "--json",
                              "--interval-ms", "10"])
    follow = only_kernel(f"{tag}: --follow", follow_report, spool)
    if not follow["spool"]["closed"]:
        fail(f"{tag}: --follow did not see the close trailer: "
             f"{follow['spool']}")
    if follow["txn"] != {k: v for k, v in live["txn"].items()
                         if k in follow["txn"]}:
        fail(f"{tag}: --follow txn counts diverged: "
             f"{follow['txn']} vs {live['txn']}")

    # One attach path: following a closed spool to its end is replaying it.
    if (spool_report["mode"], follow_report["mode"]) != ("spool", "follow"):
        fail(f"{tag}: modes {spool_report['mode']!r} / "
             f"{follow_report['mode']!r}")
    if dict(follow_report, mode="spool") != spool_report:
        fail(f"{tag}: --follow report differs from --spool beyond mode:\n"
             f"{json.dumps(follow_report, sort_keys=True)}\nvs\n"
             f"{json.dumps(spool_report, sort_keys=True)}")
    return rs, aborts_total, len(live_grafts)


def check_corrupt(graftstat, golden, workdir):
    """One flipped payload byte classifies alike through every attach form."""
    corrupt_dir = os.path.join(workdir, "corrupt")
    shutil.rmtree(corrupt_dir, ignore_errors=True)
    os.makedirs(corrupt_dir)
    corrupt = os.path.join(corrupt_dir, "vspool.9.0.bin")
    shutil.copyfile(golden, corrupt)
    # File header (16 B) + first batch header (32 B) + 5 bytes of payload.
    with open(corrupt, "r+b") as f:
        f.seek(16 + 32 + 5)
        byte = f.read(1)[0]
        f.seek(16 + 32 + 5)
        f.write(bytes([byte ^ 0xFF]))
    for argv in (["--spool", corrupt],
                 ["--follow", corrupt, "--interval-ms", "10"],
                 ["--spool", corrupt_dir]):
        report = run_json([graftstat, "--json"] + argv, expect_exit=1)
        tag = f"corrupt {argv[0]} {argv[1]}"
        kernels = report["kernels"]
        if len(kernels) != 1:
            fail(f"{tag}: expected one kernel, got {len(kernels)}")
        cs = kernels[0]["spool"]
        if cs["status"] != "SPOOL_CORRUPT" or cs["corrupt_batches"] != 1:
            fail(f"{tag}: corrupt batch not classified: {cs}")


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <graftstat-binary> <workdir>")
    graftstat, workdir = sys.argv[1], sys.argv[2]
    weird = os.path.join(workdir, 'we"ird')
    os.makedirs(weird, exist_ok=True)

    spool = os.path.join(weird, "golden.vspool")
    live = run_json([graftstat, "--json", "--invocations", str(INVOCATIONS),
                     "--spool-out", spool])
    if live["spool_out"]["path"] != spool:
        fail(f"live spool_out path did not round-trip: {live['spool_out']}")
    if live["spool_out"]["lost_total"] != 0:
        fail(f"live run lost records: {live['spool_out']}")
    check_tier_sum("live", live)
    rs, aborts_total, graft_count = check_replay("replay", graftstat, live,
                                                 spool)

    # One corrupt batch, every attach form.
    check_corrupt(graftstat, spool, weird)

    print(f"spool_golden: OK ({INVOCATIONS} invocations, "
          f"{rs['records']} records, {aborts_total} aborts, "
          f"{graft_count} grafts match; corrupt batch flagged by every "
          f"attach form)")


if __name__ == "__main__":
    main()
