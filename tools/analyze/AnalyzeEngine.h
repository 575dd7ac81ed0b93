//===- tools/analyze/AnalyzeEngine.h - Symbol-aware rules -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind tools/dmeta-analyze, the repo's one static-analysis
/// tool. Every file is read and tokenized once (analyze/Tokenizer.h);
/// the rules below work on its token stream, its sanitized lines (comments
/// stripped, literal contents blanked) and its raw lines, plus the
/// project include graph (analyze/IncludeGraph.h) and, for the
/// interprocedural rules, the whole-program symbol table and call graph.
///
/// Token-level rules (per file; DESIGN.md key decision 4 and the
/// hygiene the failure reports rely on):
///  - wall-clock:   host-clock spellings (std::chrono, time(),
///                  gettimeofday(), clock_gettime) anywhere in simulation
///                  code (src/sim, src/dfs, src/cluster) or in tests/,
///                  bench/ and tools/ — simulated components read
///                  Scheduler::now(), nothing reads the host clock.
///  - randomness:   stdlib randomness (rand(), srand(), drand48(),
///                  random_device, mt19937) in the same scopes — all
///                  randomness flows through the seeded support/Random Rng.
///  - trace-clock:  direct OpTraceSink calls (beginOp / stamp / finishOp)
///                  in src/sim or src/dfs outside sim/Trace.* and
///                  sim/Scheduler.* — components record trace points via
///                  Scheduler::traceBegin()/traceStamp(), so every
///                  timestamp reads the owning scheduler's clock.
///  - event-queue:  std::priority_queue / push_heap / pop_heap / make_heap
///                  in src/, bench/ or tools/ outside sim/EventQueue.* —
///                  pending-event ordering goes through the EventQueue
///                  interface so every event shares one (time, tie-key)
///                  order.
///  - raw-assert:   assert() or <cassert> under src/ or tools/ — use
///                  DMB_ASSERT / DMB_CHECK (support/Assert.h), which stay
///                  armed in release builds and report sim time.
///  - raii-guard:   in files using a host-thread mutex (std::mutex and
///                  friends, pthread_mutex_t), manual lock()/unlock()
///                  calls — acquisitions go through std::lock_guard /
///                  std::scoped_lock. SimMutex is exempt: its
///                  scheduler-driven protocol cannot be a scoped guard.
///  - fault-determinism: in files that handle a FaultPolicy in code, an
///                  Rng on a line that does not also name a Seed — fault
///                  rolls are a pure function of (FaultPolicy.Seed, send
///                  time); a sequential stream or an ad-hoc seed breaks
///                  replay and schedule-perturbation invariance.
///  - event-ref-capture: a default by-reference capture ([&] or [&, ...])
///                  in a lambda handed to Scheduler::at()/after() in src/
///                  or tools/ — the callback outlives the enclosing frame.
///                  Reported from callback-lifetime's walk, so a call
///                  spanning lines is seen, and a lambda nested inside the
///                  scheduled callback's body is not.
///  - header-guard: headers under src/, bench/ and tools/ must open with
///                  the canonical DMETABENCH_<DIR>_<FILE>_H guard.
///  - suppression-justification: every allow() hatch (see below) or
///                  clang-tidy NOLINT in src/, bench/ and tools/ must carry
///                  trailing text saying why the exception is sound.
///                  tests/ are exempt: fixtures there quote bare
///                  suppressions on purpose.
///  - error-table:  the FsError enum, its NumFsErrors count and the
///                  fsErrorName() case table (src/support/Error.{h,cpp})
///                  stay in sync with unique names.
///  - io:           a source file that cannot be read.
///
/// wall-clock, randomness, trace-clock and event-queue flag the spellings
/// of one source table; determinism-taint seeds from the same table, so
/// the two views of "nondeterminism source" cannot drift apart.
///
/// Symbol-aware rules:
///  - unordered-iteration: a range-for or .begin() loop over a
///    std::unordered_map/unordered_set variable whose body reaches an
///    output, trace, result or scheduling sink. Hash iteration order
///    depends on addresses and insertion history, so anything it emits
///    breaks bit-identical replay (DESIGN.md key decision 4). A loop that
///    only accumulates into a container which is std::sort-ed later in
///    the same scope is the sanctioned sort-before-emit spelling and is
///    not flagged.
///  - pointer-identity: pointer values leaking into ordering or output —
///    iteration over a pointer-keyed map/set (address order), "%p" in a
///    format string, streaming a pointer (<< &x, << (void*)x),
///    std::hash over a pointer type, or reinterpret_cast of a pointer to
///    an integer. Scope: src/, bench/ and tools/ (everything whose output
///    is compared across runs).
///  - callback-lifetime: per-capture escape analysis on lambdas handed to
///    Scheduler::at()/after() or stored in InplaceFunction variables —
///    spelled out or through any alias of it in the tree (ReplyCallback,
///    Scheduler::Action, ...): a
///    named by-reference capture ([&x]) or an address-of init-capture
///    ([p = &x]) dangles if the callback outlives the frame. tests/ and
///    bench/ are exempt (the capturing frame runs the scheduler to
///    completion); src/ and tools/ are not.
///  - discarded-error: a statement-expression call of a function whose
///    return type is FsError or MetaReply, with the result discarded.
///    With the PR-5 retry layer an ignored FsError::TimedOut is a silent
///    correctness hole. The function set is harvested from declarations
///    in the tree itself, so new APIs are covered automatically.
///  - nodiscard-annotation: an FsError/MetaReply-returning function
///    declared in a header without [[nodiscard]] — the compile-time half
///    of discarded-error ( -Werror turns the compiler into the second
///    gate).
///  - swallowed-completion-error: a completion lambda handed to an async
///    submission API (submit/enqueue/fsync/Issue/rpc/transact/failLocally/
///    process/processEager/dispatchAtShard/forward) that names its
///    MetaReply parameter (by value or MetaReply &&) but never reads
///    .Err/.ok() nor
///    forwards the reply. With the write-behind queue the completion is
///    the only place a deferred op's failure surfaces, so ignoring it
///    swallows the error; an unnamed `(MetaReply)` parameter is the
///    sanctioned explicit discard. tests/ and bench/ are exempt.
///  - layering / include-cycle / unused-include: see IncludeGraph.h.
///
/// Interprocedural rules (built on analyze/SymbolTable.h and
/// analyze/CallGraph.h — function summaries propagated over resolved call
/// edges to a fixpoint):
///  - determinism-taint: nondeterminism sources (std::random_device,
///    rand()/srand()/drand48(), time()/gettimeofday(), wall-clock ::now()
///    reads, getpid(), pointer-to-integer casts, pointer hashes) tracked
///    through local assignments and function returns; flagged when a
///    tainted value reaches a determinism sink — a trace/result call, a
///    printf/stream emission, a scheduled time, or a call whose callee
///    transitively reaches such a sink.
///  - error-path-propagation: the interprocedural half of
///    discarded-error. `auto`-returning wrappers that just forward an
///    FsError/MetaReply-returning call join the checked set
///    transitively, so discarding a wrapper's result is flagged too; and
///    a function that stores an error result in a local it never reads
///    afterwards ("swallowed error") is flagged at the assignment.
///  - blocking-in-callback: call-graph reachability from callback
///    contexts to primitives that must not run there. Quiescence checks
///    (Scheduler::addQuiescenceCheck) are read-only diagnostics: reaching
///    SimMutex::lock, Resource::request or Scheduler::at/after from one
///    is flagged. Ordinary at()/after() callbacks may use those (that is
///    the engine's continuation-passing design) but must never re-enter
///    the scheduler loop via Scheduler::run/runUntil.
///
/// A finding on a line containing "dmeta-analyze: allow(<rule>) <why>" is
/// suppressed; the justification text is enforced by the
/// suppression-justification rule.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H
#define DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H

#include "analyze/Diagnostics.h"
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace dmb {
namespace analyze {

/// Analyzes the repo tree under \p Root (src/, tests/, bench/, tools/).
/// \p FilesChecked, when non-null, receives the number of files scanned
/// (an unreadable file is an io finding, not a scanned file). \p Dot, when
/// non-null and some file was scanned, receives the call graph the scan
/// built, in Graphviz dot format.
std::vector<Finding> analyzeTree(const std::string &Root,
                                 size_t *FilesChecked = nullptr,
                                 std::ostream *Dot = nullptr);

/// Analyzes in-memory sources given as (RelPath, Content) pairs — the
/// unit-test entry point; identical semantics to analyzeTree.
std::vector<Finding>
analyzeSources(const std::vector<std::pair<std::string, std::string>> &Files);

/// Rule names understood by analyzeTree, for --rule validation.
const std::vector<std::string> &analyzeRuleNames();

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H
