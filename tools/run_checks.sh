#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
#
# Pre-merge gate for the DMetabench tree. Runs, in order:
#
#   1. a plain RelWithDebInfo build of everything,
#   2. dmeta-analyze, the one static-analysis tool, over the source tree —
#      it also exports the call graph its scan built to
#      build/callgraph.dot (uploaded as a CI artifact) and must finish
#      inside a 20 s wall-time budget, so an interprocedural fixpoint
#      regression fails the gate instead of silently slowing every
#      presubmit,
#   3. the full ctest suite,
#   4. a verify-schedules smoke pass (3 permuted schedules per scenario),
#   5. an engine-throughput bench smoke at reduced sizes (writes
#      build/BENCH_engine.json; scale curve capped at 4096 clients),
#   6. the fault-injection smoke: bench_fault_degradation (E29) exits
#      nonzero when the op ledger, the post-run fsck or the determinism
#      check fails — and the E30 (sharded) and E31 (write-behind
#      crash-consistency) self-checking benches, whose JSON must
#      reproduce the committed BENCH_E30.json / BENCH_E31.json,
#   7. the perfbench work ledger: one lifecycle of each benchmark
#      workload at seed 0 must reproduce perfbench/ledger.json exactly
#      (CI runs it, and verify-schedules, only through this script),
#   8. the trace, fault, hash-table, inode-table, directory-index,
#      interval-log, journal and DRC side-index tests rebuilt under
#      ASan+UBSan (always — the trace layer threads ids through every
#      queue, the retry path keeps each RPC record alive across superseded
#      attempts, the open-addressing table shifts slots on every erase,
#      the interval log indexes a tail behind an offset, the journal's
#      commit hook may grow the frontier table under a running advance,
#      and the DRC links entries by key across erases; all must stay
#      memory-clean),
#   9. (optionally) the full suite rebuilt under sanitizers.
#
# Exits nonzero on the first failure. Usage:
#
#   tools/run_checks.sh [--sanitize[=address,undefined]] [-j N]
#
# or DMB_CHECK_SANITIZE=address,undefined tools/run_checks.sh. Run it from
# anywhere; paths are resolved relative to the repo root.
#
#===------------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
SANITIZE="${DMB_CHECK_SANITIZE:-}"

while [ $# -gt 0 ]; do
  case "$1" in
    --sanitize) SANITIZE="address,undefined" ;;
    --sanitize=*) SANITIZE="${1#--sanitize=}" ;;
    -j) JOBS="$2"; shift ;;
    -j*) JOBS="${1#-j}" ;;
    -h|--help)
      sed -n '2,41p' "$0"; exit 0 ;;
    *) echo "run_checks.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

step() { echo; echo "== $* =="; }

step "configure + build (build/)"
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"

step "dmeta-analyze (+ call-graph export, 20 s budget)"
ANALYZE_T0="$(date +%s)"
"$ROOT/build/tools/dmeta-analyze" --root "$ROOT" \
    --dot "$ROOT/build/callgraph.dot"
ANALYZE_SECS="$(( $(date +%s) - ANALYZE_T0 ))"
# The token-level rules, the whole-tree symbol table, call graph and taint
# fixpoint run in well under a second today; 20 s of headroom flags a
# complexity regression without flaking on slow CI runners.
if [ "$ANALYZE_SECS" -gt 20 ]; then
  echo "run_checks.sh: dmeta-analyze took ${ANALYZE_SECS}s (budget 20s)" >&2
  exit 1
fi

step "ctest"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

step "verify-schedules smoke (3 permuted schedules)"
"$ROOT/build/tools/dmetabench" verify-schedules --schedules 3

step "engine throughput smoke (reduced sizes)"
# Reduced sizes: this only proves the bench runs and writes its JSON; the
# committed BENCH_engine.json numbers come from a full-size run. The
# scale curve is capped at 4096 clients for the smoke.
"$ROOT/build/bench/bench_engine_throughput" --events 500000 \
    --problemsize 2000 --timelimit 2 --label smoke --curve-max 4096 \
    --out "$ROOT/build/BENCH_engine.json"

step "fault-injection smoke (E29: loss window + MDS crash)"
# Self-checking: the binary exits nonzero when any op is lost or double
# applied, the post-run fsck is dirty, or the faulted run is not
# schedule-invariant.
"$ROOT/build/bench/bench_fault_degradation"

step "sharded-metadata smoke (E30: scale-out, rebalance, kill-one-shard)"
# Self-checking: saturation scaling, the threshold curve, the E29-style
# exactly-once ledger with shard 0 crashed mid-run, bit-identical replay
# and verify-schedules invariance all gate the exit code. The run is a
# deterministic simulation, so the JSON it writes must reproduce the
# committed BENCH_E30.json.
"$ROOT/build/bench/bench_sharded_saturation" --out "$ROOT/build/BENCH_E30.json"
cmp "$ROOT/build/BENCH_E30.json" "$ROOT/BENCH_E30.json"

step "write-behind audit smoke (E31: mid-batch crash, exactly-once ledger)"
# Self-checking: the binary exits nonzero when a barrier-confirmed op is
# lost, double-applied or reordered across the mid-batch MDS crash, when
# the deferred and synchronous trees diverge, or when the run is not
# bit-for-bit replayable / schedule-invariant. Deterministic simulation:
# the JSON must reproduce the committed BENCH_E31.json.
"$ROOT/build/bench/bench_writebehind_audit" --out "$ROOT/build/BENCH_E31.json"
cmp "$ROOT/build/BENCH_E31.json" "$ROOT/BENCH_E31.json"

step "perfbench work ledger (exact counts and digests, seed 0)"
# run.py builds its own runner (into build/perfbench-ledger/) and exits
# nonzero when a digest or a deterministic work count differs from
# perfbench/ledger.json; no timing is compared.
for w in nfs-create-stat nfs-fanout-64k sharded-writebehind; do
  CARGO_TARGET_DIR="$ROOT/build/perfbench-ledger" \
      python3 "$ROOT/perfbench/run.py" --workload "$w" --seed 0 \
      --seconds 1 --trace 0
done

if [ -n "$SANITIZE" ]; then
  step "sanitizer build (build-sanitize/, DMB_SANITIZE=$SANITIZE)"
  cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
        -DDMB_SANITIZE="$SANITIZE" >/dev/null
  cmake --build "$ROOT/build-sanitize" -j "$JOBS"

  step "ctest under sanitizers"
  ctest --test-dir "$ROOT/build-sanitize" --output-on-failure -j "$JOBS"
else
  # Even without --sanitize, some tests always run under ASan+UBSan: the
  # trace layer threads ids through every internal queue, the retry path
  # keeps the reference-counted RPC record alive across retransmits,
  # orphaned replies and a mid-run server crash, and FlatIndex's
  # backward-shift erase moves slots and values around a wrapping probe
  # run — exactly the kind of code where lifetime and out-of-bounds bugs
  # hide. The FlatIndex differential tests, the inode-table tests and
  # the directory-index and path-walk tests cover the table and its users;
  # the interval-log tests cover the sparse per-process result logs; the
  # journal tests include a commit hook that appends records of new
  # volumes mid-advance, and the DRC differential test drives the
  # key-linked partition lists through evictions, prunes and splits.
  step "trace, fault, table, directory, interval-log, journal and DRC tests under ASan+UBSan (build-sanitize/)"
  cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
        -DDMB_SANITIZE="address,undefined" >/dev/null
  cmake --build "$ROOT/build-sanitize" -j "$JOBS" \
        --target trace_test fault_test flat_index_test fs_test path_walk_test \
        interval_log_test consistency_test sharded_test
  ctest --test-dir "$ROOT/build-sanitize" --output-on-failure -j "$JOBS" \
        -R '^Trace|^Fault|^Network|^FlatIndex\.|^FsInodes\.|DirIndexParamTest|PathWalkTest|^IntervalLog|^Journal\.|^ShardedDrc\.'
fi

echo
echo "run_checks.sh: all checks passed"
