#!/usr/bin/env python3
"""Repository benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload nfs-create-stat --seed 1 \\
        --seconds 40 --trace 0

Builds perfbench/lifecycle.cpp against the library sources of this checkout
(into $CARGO_TARGET_DIR, default .bench_build), then starts it in
fresh processes until --seconds have passed: set-up-only processes for a
set-up median, then whole lifecycles. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
lifecycles and reports the per-layer metrics. Every run checks its outputs
(zero failed operations, clean fsck on every server volume, the canonical
result digests and the work-count ledger of perfbench/ledger.json) and
exits 1 when a check fails. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--record-ledger re-records perfbench/ledger.json for the workload at the
default seed (0). See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.json"
WORKLOADS = ("nfs-create-stat", "nfs-fanout-64k", "sharded-writebehind")
DEFAULT_SEED = 0
# Cold set-ups in fresh processes per run, besides each lifecycle's own:
# set-up time varies by tens of percent between processes, so its median
# needs many samples. They are cheap (under 0.1 s each).
SETUP_SAMPLES = 24
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the lifecycle runner; returns its path or exits 2."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    bdir = build_root / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench-lifecycle", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return bdir / "perfbench-lifecycle"


class ChildFailed(Exception):
    pass


def child(binary, workload, seed, *flags):
    """Runs one lifecycle process; returns (parsed JSON, host seconds taken)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(" ".join(cmd) + ": timed out")
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise ChildFailed("%s: exit code %d" % (" ".join(cmd),
                                                proc.returncode))
    return json.loads(lines[-1]), took


def median(values):
    return statistics.median(values)


def median_item(items, key):
    """The item whose key is the (lower) median, so its fields agree."""
    ordered = sorted(items, key=key)
    return ordered[(len(ordered) - 1) // 2]


def run_lifecycles(binary, args, spans_path):
    """Starts lifecycles until the time is up; returns (setups, untraced,
    traced). The first lifecycle of each kind also computes the digests."""
    deadline = time.monotonic() + args.seconds
    setups, untraced, traced = [], [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            out, _ = child(binary, args.workload, args.seed, "--setup-only")
            setups.append(out["setup_s"])
    kinds = [False, True] if args.trace else [False]
    while True:
        round_s = 0.0
        for traced_kind in kinds:
            into = traced if traced_kind else untraced
            flags = [] if into else ["--digest"]
            if traced_kind:
                flags.append("--trace")
                if not into:
                    flags += ["--spans", str(spans_path)]
            out, took = child(binary, args.workload, args.seed, *flags)
            into.append(out)
            round_s += took
        # Start another round only if one like the last still fits.
        if time.monotonic() + round_s > deadline:
            break
    setups += [s["setup_s"] for s in untraced]
    return setups, untraced, traced


def check(args, untraced, traced, ledger):
    """Returns the list of failed output checks (empty when all pass)."""
    errors = []
    lifecycles = untraced + traced
    for out in lifecycles:
        c = out["counts"]
        if out["fsck_errors"]:
            errors.append("fsck found %d errors" % out["fsck_errors"])
        if c["core.failed_requests"] or c["dfs.timed_out"]:
            errors.append("%d failed requests, %d timed out" %
                          (c["core.failed_requests"], c["dfs.timed_out"]))
    # A fixed seed replays bit for bit: every lifecycle's counts agree.
    shared = set.intersection(*(set(o["counts"]) for o in lifecycles))
    for key in sorted(shared):
        values = {o["counts"][key] for o in lifecycles}
        if len(values) > 1:
            errors.append("count %s differs between lifecycles: %s" %
                          (key, sorted(values)))
    digests = untraced[0]["digests"]
    if traced and traced[0]["digests"] != digests:
        errors.append("traced digests %s != untraced %s" %
                      (traced[0]["digests"], digests))
    if args.record_ledger:
        return errors
    entry = ledger.get(args.workload)
    if entry is None:
        return errors + ["no ledger entry for " + args.workload]
    checked = (list(digests) if args.seed == DEFAULT_SEED
               else entry["seed_invariant"])
    for op in checked:
        if digests.get(op) != entry["digests"].get(op):
            errors.append("%s digest %s != ledger %s" %
                          (op, digests.get(op), entry["digests"].get(op)))
    if args.seed == DEFAULT_SEED:
        counts = (traced or untraced)[0]["counts"]
        for key, want in sorted(entry["counts"].items()):
            if key in counts and counts[key] != want:
                errors.append("ledger count %s: %d != recorded %d" %
                              (key, counts[key], want))
    return errors


def end_to_end(setups, untraced):
    return {
        "total_wall_s": (median([o["total_wall_s"] for o in untraced]), "s"),
        "setup_s": (median(setups), "s"),
        "sim_ops_per_wall_s": (median([o["counts"]["core.sim_ops"] /
                                       o["run_s"] for o in untraced]),
                               "ops/s"),
        "peak_rss_mb": (median([o["peak_rss_kb"] / 1024.0
                                for o in untraced]), "MB"),
    }


def per_layer(untraced, traced):
    # Span timings come from one traced lifecycle, the one with the median
    # run phase, so submit + reply + dispatch self time add up to its run.
    rep = median_item(traced, key=lambda o: o["run_s"])
    t, c = rep["trace"], rep["counts"]
    ops = max(1, c["core.sim_ops"])
    reqs = max(1, c["fs.requests"])
    flushes = c["dfs.wb_flushes"]
    lookups = c["dfs.attr_hits"] + c["dfs.attr_misses"]
    rss_kb = median([o["peak_rss_kb"] for o in untraced])
    run_untraced = median([o["run_s"] for o in untraced])
    run_traced = median([o["run_s"] for o in traced])
    return {
        "sim.raw_event_ns": (median([o["trace"]["raw_event_ns"]
                                     for o in traced]), "ns"),
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_op": (c["sim.events"] / ops, "events/op"),
        "sim.event_pool": (c["sim.event_pool"], "count"),
        "sim.teardown_s": (median([o["teardown_s"] for o in untraced]), "s"),
        "sim.traced_run_s": (rep["run_s"], "s"),
        "sim.dispatch_self_s": (t["dispatch_self_s"], "s"),
        "dfs.submits": (c["dfs.submits"], "count"),
        "dfs.submits_per_op": (c["dfs.submits"] / ops, "submits/op"),
        "dfs.submit_self_s": (t["submit_self_s"], "s"),
        "dfs.submit_ns_p50": (t["submit_ns_p50"], "ns"),
        "dfs.submit_ns_p99": (t["submit_ns_p99"], "ns"),
        "dfs.rpcs": (c["dfs.rpcs"], "count"),
        "dfs.rpcs_per_op": (c["dfs.rpcs"] / ops, "rpcs/op"),
        "dfs.wb_coalesced": (c["dfs.wb_coalesced"], "count"),
        "dfs.wb_ops_per_flush": (c["dfs.wb_issued"] / flushes
                                 if flushes else 0.0, "ops/flush"),
        "dfs.splits": (c["dfs.splits"], "count"),
        "dfs.migrated": (c["dfs.migrated"], "count"),
        "dfs.stale_retries": (c["dfs.stale_retries"], "count"),
        "fs.replay_s": (median([o["trace"]["replay_s"] for o in traced]),
                        "s"),
        "fs.replay_ns_per_op": (t["replay_s"] * 1e9 / reqs, "ns"),
        "fs.dir_entries_scanned_per_op": (c["fs.dir_entries_scanned"] / reqs,
                                          "entries/op"),
        "fs.dir_entries_written_per_op": (c["fs.dir_entries_written"] / reqs,
                                          "entries/op"),
        "fs.inodes_touched_per_op": (c["fs.inodes_touched"] / reqs,
                                     "inodes/op"),
        "fs.inodes": (c["fs.inodes"], "count"),
        "fs.replay_errors": (c["fs.replay_errors"], "count"),
        "core.reply_self_s": (t["reply_self_s"], "s"),
        "core.reply_ns_p50": (t["reply_ns_p50"], "ns"),
        "core.reply_ns_p99": (t["reply_ns_p99"], "ns"),
        "core.failed_requests": (c["core.failed_requests"], "count"),
        "cluster.bytes_per_client": (rss_kb * 1024.0 / rep["clients"], "B"),
        "dfs.op_latency_sim_us_p50": (c["dfs.op_latency_sim_ns_p50"] / 1e3,
                                      "us"),
        "dfs.op_latency_sim_us_p99": (c["dfs.op_latency_sim_ns_p99"] / 1e3,
                                      "us"),
        "sim.server_busy_sim_s": (c["sim.server_busy_sim_ns"] / 1e9, "s"),
        "sim.net_messages": (c["sim.net_messages"], "count"),
        "sim.net_bytes": (c["sim.net_bytes"], "B"),
        "dfs.attr_hit_ratio": (c["dfs.attr_hits"] / lookups
                               if lookups else 0.0, "ratio"),
        "dfs.retransmits": (c["dfs.retransmits"], "count"),
        "dfs.timed_out": (c["dfs.timed_out"], "count"),
        "trace_overhead_share": (run_traced / run_untraced - 1, "ratio"),
    }


def record_ledger(args, untraced, traced):
    ledger = json.loads(LEDGER.read_text()) if LEDGER.is_file() else {}
    old = ledger.get(args.workload, {})
    ledger[args.workload] = {
        "digests": untraced[0]["digests"],
        "seed_invariant": old.get("seed_invariant", []),
        "counts": traced[0]["counts"],
    }
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    log("perfbench: recorded %s in %s" % (args.workload, LEDGER))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="schedule perturbation seed; 0 is the identity")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-ledger", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.record_ledger:
        if args.seed != DEFAULT_SEED:
            ap.error("--record-ledger records the default seed (0) only")
        args.trace = 1

    binary = build()
    spans = binary.parent / "spans" / ("%s-seed%d.json" %
                                       (args.workload, args.seed))
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        setups, untraced, traced = run_lifecycles(binary, args, spans)
    except ChildFailed as e:
        log("perfbench: " + str(e))
        return 1
    ledger = json.loads(LEDGER.read_text()) if LEDGER.is_file() else {}
    errors = check(args, untraced, traced, ledger)
    if args.record_ledger and not errors:
        record_ledger(args, untraced, traced)

    attempted = sum(o["counts"]["core.sim_ops"] +
                    o["counts"]["core.failed_requests"]
                    for o in untraced + traced)
    failed = sum(o["counts"]["core.failed_requests"]
                 for o in untraced + traced)
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(setups, untraced))
    print("perfbench %s seed %d: %d untraced and %d traced lifecycles, "
          "%d set-ups" % (args.workload, args.seed, len(untraced),
                          len(traced), len(setups)))
    for name, (value, unit) in metrics.items():
        print("  %-32s %16.6g %s" % (name, value, unit))
    print("  %-32s %16.6g %s" % ("failed_op_share",
                                 failed / max(1, attempted), "ratio"))
    if traced:
        print("  spans of the first traced lifecycle: %s" % spans)
    for e in errors:
        print("CHECK FAILED: " + e)
    print("checks: " + ("all passed" if not errors else
                        "%d failed" % len(errors)))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
