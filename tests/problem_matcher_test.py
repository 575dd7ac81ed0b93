#!/usr/bin/env python3
"""Self-test for .github/dmeta-problem-matcher.json.

CI registers the matcher so that dmeta-analyze findings become inline PR
annotations. A finding line the matcher's regexp does not match is
silently dropped, so this runs the analyzer on a throwaway tree with one
line finding (wall-clock) and one whole-file finding (a header with no
include guard, printed without a line number) and requires every finding
line on stdout to match, with the file, line and rule groups read back
correctly.

Usage:
  tests/problem_matcher_test.py build/tools/dmeta-analyze \
      .github/dmeta-problem-matcher.json
"""

import json
import os
import re
import subprocess
import sys
import tempfile


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def main():
    analyzer, matcher_path = sys.argv[1], sys.argv[2]
    with open(matcher_path) as f:
        matcher = json.load(f)["problemMatcher"][0]
    if len(matcher["pattern"]) != 1:
        print("expected a single-line matcher pattern", file=sys.stderr)
        return 1
    pattern = matcher["pattern"][0]
    regexp = re.compile(pattern["regexp"])

    with tempfile.TemporaryDirectory() as root:
        write(root, "src/sim/Clock.cpp", "long f() { return time(0); }\n")
        write(root, "src/sim/Queue.h", "struct Queue {};\n")
        run = subprocess.run([analyzer, "--root", root],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)

    lines = run.stdout.splitlines()
    print(run.stdout, end="")
    if run.returncode != 1 or not lines:
        print(f"expected findings and exit 1, got exit {run.returncode}",
              file=sys.stderr)
        return 1

    seen = set()
    failed = False
    for line in lines:
        m = regexp.match(line)
        if not m:
            print(f"not matched: {line}", file=sys.stderr)
            failed = True
            continue
        seen.add((m.group(pattern["file"]), m.group(pattern["line"]),
                  m.group(pattern["code"])))

    for want in [("src/sim/Clock.cpp", "1", "wall-clock"),
                 ("src/sim/Queue.h", None, "header-guard")]:
        if want not in seen:
            print(f"no annotation for {want}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
