#!/usr/bin/env python3
"""Self-test for tools/check_scale_regression.py.

The committed baseline must pass against itself, and a copy whose first
curve point differs by one executed event, or by one simulated op, must
fail: those counts are deterministic, so any difference is a changed
schedule rather than host noise.

With several measured runs the guard compares the per-point median of
their normalized rates: one run 40% slow at a point out of three passes
(their mean would not), two such runs fail, and a count mismatch in any
one run fails.

Usage:
  tests/check_scale_regression_test.py tools/check_scale_regression.py \
      BENCH_engine.json
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def run_guard(script, baseline, measured_docs):
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, script, "--baseline", baseline]
        for i, doc in enumerate(measured_docs):
            measured = os.path.join(tmp, f"measured-{i}.json")
            with open(measured, "w") as f:
                json.dump(doc, f)
            cmd += ["--measured", measured]
        return subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def slowed(doc, factor):
    """A copy of doc whose last curve point ran factor times as fast."""
    out = copy.deepcopy(doc)
    out["scale_curve"][-1]["events_per_sec"] *= factor
    return out


def main():
    script, baseline = sys.argv[1], sys.argv[2]
    with open(baseline) as f:
        doc = json.load(f)
    if not doc.get("scale_curve"):
        print("baseline has no scale curve to perturb", file=sys.stderr)
        return 1

    cases = [("baseline vs itself", [doc], 0)]
    for field in ("events", "sim_ops"):
        bumped = copy.deepcopy(doc)
        bumped["scale_curve"][0][field] += 1
        cases.append((f"one {field} value changed", [bumped], 1))
        cases.append((f"one {field} value changed in the third of three runs",
                      [doc, doc, bumped], 1))
    low = slowed(doc, 0.6)
    cases += [
        ("one run 40% slow at a point", [low], 1),
        ("one low run out of three", [doc, low, doc], 0),
        ("two low runs out of three", [low, doc, low], 1),
        ("three runs within the threshold", [doc, slowed(doc, 0.95), doc], 0),
    ]

    failed = False
    for name, measured, want in cases:
        got = run_guard(script, baseline, measured)
        status = "ok" if got == want else "FAILED"
        failed |= got != want
        print(f"{name}: exit {got} (want {want}) {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
