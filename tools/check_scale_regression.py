#!/usr/bin/env python3
"""Guard the clients-vs-throughput scale curve against regressions.

Compares a freshly measured BENCH_engine.json against the committed one
and fails (exit 1) when any shared curve point executed different work or
regressed by more than the threshold (default 10%).

Work is checked exactly: the simulation is deterministic, so the
`events` and `sim_ops` of every curve point shared with the baseline must
match to the unit on any host. A mismatch means the schedule itself
changed, not the machine.

Raw wall-clock numbers are machine-dependent, so the comparison is
host-normalized: each curve point's events/sec is divided by the same
run's raw-scheduler events/sec before comparing ratios. A slower CI
runner scales both numbers down together; a real scale-out regression
(e.g. an accidental O(n log n) step at large client counts) shows up as a
drop in the ratio at the affected points only.

One run's normalized rate spreads about as widely as the threshold on a
single host, so --measured may be given several times: the exact counts
are checked in every run, and the guard compares the per-point median of
the runs' normalized rates. One slow run out of three cannot fail the
gate; a real regression slows every run.

Usage:
  tools/check_scale_regression.py --baseline BENCH_engine.json \
      --measured build/BENCH_engine-1.json [--measured ...] \
      [--threshold 0.10]
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def normalized_curve(doc):
    """Map clients -> curve events/sec divided by raw-scheduler events/sec."""
    raw = doc.get("raw_scheduler", {}).get("events_per_sec", 0)
    if not raw:
        return {}
    out = {}
    for pt in doc.get("scale_curve", []):
        if pt.get("events_per_sec") and pt.get("clients"):
            out[int(pt["clients"])] = pt["events_per_sec"] / raw
    return out


def exact_count_mismatches(base_doc, got_doc):
    """List (clients, field, baseline, measured) for every deterministic
    count that differs at a curve point present in both runs."""
    base = {int(pt["clients"]): pt for pt in base_doc.get("scale_curve", [])}
    got = {int(pt["clients"]): pt for pt in got_doc.get("scale_curve", [])}
    out = []
    for clients in sorted(set(base) & set(got)):
        for field in ("events", "sim_ops"):
            want, have = base[clients].get(field), got[clients].get(field)
            if want is None or want != have:
                out.append((clients, field, want, have))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_engine.json")
    ap.add_argument("--measured", required=True, action="append",
                    help="freshly measured BENCH_engine.json; repeat for "
                         "several runs, compared by their per-point median")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional regression per point")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    got_docs = [load(path) for path in args.measured]
    base = normalized_curve(base_doc)
    if not base:
        print("check_scale_regression: baseline has no scale curve; "
              "nothing to guard")
        return 0
    runs = [normalized_curve(doc) for doc in got_docs]

    # A point is compared only when every run measured it.
    shared = sorted(set(base).intersection(*(set(r) for r in runs)))
    if not shared:
        print("check_scale_regression: no shared curve points between "
              "baseline and measured runs", file=sys.stderr)
        return 1

    failed = False
    for path, doc in zip(args.measured, got_docs):
        for clients, field, want, have in exact_count_mismatches(base_doc,
                                                                 doc):
            print(f"  {clients:>8} clients: {field} {have} vs baseline "
                  f"{want} MISMATCH ({path})")
            failed = True
    for clients in shared:
        rates = [r[clients] for r in runs]
        median = statistics.median(rates)
        ratio = median / base[clients]
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSED"
            failed = True
        spread = ""
        if len(rates) > 1:
            spread = f" [runs {min(rates):.4f}-{max(rates):.4f}]"
        print(f"  {clients:>8} clients: normalized {median:.4f}{spread} vs "
              f"baseline {base[clients]:.4f} ({ratio:.2%}) {status}")

    if failed:
        print(f"check_scale_regression: scale curve changed its exact work "
              f"counts or regressed more than {args.threshold:.0%} at one "
              f"or more points", file=sys.stderr)
        return 1
    print(f"check_scale_regression: {len(shared)} shared points with exact "
          f"events and sim_ops in {len(runs)} run(s), median within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
