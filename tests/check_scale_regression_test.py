#!/usr/bin/env python3
"""Self-test for tools/check_scale_regression.py.

The committed baseline must pass against itself, and a copy whose first
curve point differs by one executed event, or by one simulated op, must
fail: those counts are deterministic, so any difference is a changed
schedule rather than host noise.

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


def run_guard(script, baseline, measured_doc):
    with tempfile.TemporaryDirectory() as tmp:
        measured = os.path.join(tmp, "measured.json")
        with open(measured, "w") as f:
            json.dump(measured_doc, f)
        return subprocess.run(
            [sys.executable, script, "--baseline", baseline,
             "--measured", measured],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main():
    script, baseline = sys.argv[1], sys.argv[2]
    with open(baseline) as f:
        doc = json.load(f)
    if not doc.get("scale_curve"):
        print("baseline has no scale curve to perturb", file=sys.stderr)
        return 1

    cases = [("baseline vs itself", doc, 0)]
    for field in ("events", "sim_ops"):
        bumped = copy.deepcopy(doc)
        bumped["scale_curve"][0][field] += 1
        cases.append((f"one {field} value changed", bumped, 1))

    failed = False
    for name, measured, want in cases:
        got = run_guard(script, baseline, measured)
        status = "ok" if got == want else "FAILED"
        failed |= got != want
        print(f"{name}: exit {got} (want {want}) {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
