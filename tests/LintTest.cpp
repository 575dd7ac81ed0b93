//===- tests/LintTest.cpp - dmeta-analyze's token-level rules -------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Fixtures for the per-file hygiene and determinism rules (wall-clock,
// randomness, trace-clock, event-queue, raw-assert, raii-guard,
// fault-determinism, event-ref-capture, header-guard,
// suppression-justification) and the error-table cross-check, driven
// through analyzeSources() and analyzeTree() like every other rule.
//
//===----------------------------------------------------------------------===//

#include "analyze/AnalyzeEngine.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace dmb::analyze;
namespace fs = std::filesystem;

namespace {

using Violation = Finding;

std::vector<Violation> lintOne(const std::string &RelPath,
                               const std::string &Content) {
  return analyzeSources({{RelPath, Content}});
}

bool hasRule(const std::vector<Violation> &Vs, const std::string &Rule) {
  for (const Violation &V : Vs)
    if (V.Rule == Rule)
      return true;
  return false;
}

/// The error-table findings for an Error.h / Error.cpp fixture pair. The
/// fixture header carries no include guard, which header-guard reports
/// too; only the table check is under test here.
std::vector<Violation> errorTable(const std::string &H,
                                  const std::string &Cpp) {
  std::vector<Violation> Vs;
  for (Violation &V : analyzeSources(
           {{"src/support/Error.h", H}, {"src/support/Error.cpp", Cpp}}))
    if (V.Rule == "error-table")
      Vs.push_back(std::move(V));
  return Vs;
}

/// Fixture that materialises a throwaway repo tree for analyzeTree().
class LintTreeTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = fs::temp_directory_path() /
           ("dmeta-rules-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(Root);
    fs::create_directories(Root);
  }
  void TearDown() override { fs::remove_all(Root); }

  void write(const std::string &Rel, const std::string &Content) {
    fs::path P = Root / Rel;
    fs::create_directories(P.parent_path());
    std::ofstream(P) << Content;
  }

  std::vector<Violation> lint(size_t *Files = nullptr) {
    return analyzeTree(Root.string(), Files);
  }

  fs::path Root;
};

// A host-clock call injected into simulation code is caught.
TEST_F(LintTreeTest, WallClockInjectedIntoSimIsCaught) {
  write("src/sim/Clock.cpp",
        "#include <chrono>\n"
        "long nowNs() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch()"
        ".count();\n"
        "}\n");
  size_t Files = 0;
  std::vector<Violation> Vs = lint(&Files);
  EXPECT_EQ(1u, Files);
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("src/sim/Clock.cpp", Vs[0].File);
  EXPECT_EQ(3, Vs[0].Line);
  EXPECT_EQ("wall-clock", Vs[0].Rule);
  EXPECT_NE(std::string::npos, Vs[0].Message.find("std::chrono"));
  EXPECT_NE(std::string::npos,
            renderFinding(Vs[0]).find("src/sim/Clock.cpp:3: [wall-clock]"));
}

TEST_F(LintTreeTest, GettimeofdayAndTimeCallsAreCaught) {
  write("src/dfs/Probe.cpp", "void f() { gettimeofday(&tv, 0); }\n");
  write("src/cluster/Seed.cpp", "long g() { return time(0); }\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(2u, Vs.size());
  EXPECT_EQ("wall-clock", Vs[0].Rule);
  EXPECT_EQ("wall-clock", Vs[1].Rule);
}

TEST_F(LintTreeTest, WallClockAllowedOutsideDeterministicScope) {
  // src/analysis post-processes results on the host; the host clock is
  // legal there (and in src/support etc.).
  write("src/analysis/Stamp.cpp",
        "#include <chrono>\n"
        "auto t() { return std::chrono::system_clock::now(); }\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, UnseededRandomnessInTestsIsCaught) {
  write("tests/Flaky.cpp",
        "#include <random>\n"
        "int pick() { std::random_device rd; return rd(); }\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("randomness", Vs[0].Rule);
  EXPECT_EQ(2, Vs[0].Line);
}

TEST_F(LintTreeTest, DirectSinkStampInDfsIsCaught) {
  // A component stamping the sink directly bypasses the owning
  // scheduler's clock — the trace-clock rule catches it.
  write("src/dfs/Probe.cpp",
        "void f(dmb::OpTraceSink &S, uint64_t Id) {\n"
        "  S.stamp(Id, dmb::TracePoint::NetOut, 0);\n"
        "}\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("trace-clock", Vs[0].Rule);
  EXPECT_EQ(2, Vs[0].Line);
  EXPECT_NE(std::string::npos, Vs[0].Message.find("traceStamp"));
}

TEST(LintContent, TraceClockScopeAndExemptions) {
  // The sink and the scheduler implement the recording; they are exempt.
  EXPECT_TRUE(
      lintOne("src/sim/Trace.cpp", "void f() { R.stamp(1, P, Now); }\n")
          .empty());
  EXPECT_TRUE(lintOne("src/sim/Scheduler.cpp",
                      "void g() { Trace->stamp(Id, P, Now); }\n")
                  .empty());
  // The Scheduler facade calls are the sanctioned spelling everywhere:
  // traceStamp( does not contain a bare "stamp(" token.
  EXPECT_TRUE(lintOne("src/dfs/NfsFs.cpp",
                      "void h() { Sched.traceStamp(P); }\n")
                  .empty());
  // beginOp/finishOp are banned in scope too.
  EXPECT_TRUE(hasRule(lintOne("src/sim/Resource.cpp",
                              "void f() { Sink.beginOp(\"x\", 0); }\n"),
                      "trace-clock"));
  EXPECT_TRUE(hasRule(lintOne("src/dfs/FileServer.cpp",
                              "void f() { Sink.finishOp(1, 0); }\n"),
                      "trace-clock"));
  // Outside src/sim and src/dfs the rule does not apply.
  EXPECT_FALSE(hasRule(lintOne("src/analysis/T.cpp",
                               "void f() { Sink.stamp(1, P, 0); }\n"),
                       "trace-clock"));
  // The suppression escape hatch works (with its mandatory justification
  // — a bare allow() would trip suppression-justification).
  EXPECT_TRUE(
      lintOne("src/dfs/X.cpp",
              "void f() { S.stamp(1, P, 0); } // dmeta-analyze: allow("
              "trace-clock) sink owns the clock here\n")
          .empty());
}

TEST_F(LintTreeTest, RawAssertAndCassertInSrcAreCaught) {
  write("src/fs/Tree.cpp",
        "#include <cassert>\n"
        "void f(int n) { assert(n > 0); }\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(2u, Vs.size());
  EXPECT_EQ("raw-assert", Vs[0].Rule);
  EXPECT_EQ(1, Vs[0].Line);
  EXPECT_EQ("raw-assert", Vs[1].Rule);
  EXPECT_EQ(2, Vs[1].Line);
}

TEST_F(LintTreeTest, AssertInTestsIsFine) {
  // gtest's own machinery may assert; the raw-assert rule is src/-only.
  write("tests/Foo.cpp", "void f(int n) { assert(n > 0); }\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, WrongHeaderGuardIsCaught) {
  write("src/sim/Queue.h",
        "#ifndef QUEUE_H\n"
        "#define QUEUE_H\n"
        "#endif\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("header-guard", Vs[0].Rule);
  EXPECT_NE(std::string::npos,
            Vs[0].Message.find("DMETABENCH_SIM_QUEUE_H"));
}

TEST_F(LintTreeTest, CorrectGuardsPassIncludingBenchAndUmbrella) {
  write("src/sim/Queue.h",
        "#ifndef DMETABENCH_SIM_QUEUE_H\n"
        "#define DMETABENCH_SIM_QUEUE_H\n"
        "#endif\n");
  write("bench/BenchUtil.h",
        "#ifndef DMETABENCH_BENCH_BENCHUTIL_H\n"
        "#define DMETABENCH_BENCH_BENCHUTIL_H\n"
        "#endif\n");
  write("src/dmetabench/DMetabench.h",
        "#ifndef DMETABENCH_DMETABENCH_H\n"
        "#define DMETABENCH_DMETABENCH_H\n"
        "#endif\n");
  size_t Files = 0;
  EXPECT_TRUE(lint(&Files).empty());
  EXPECT_EQ(3u, Files);
}

TEST_F(LintTreeTest, DefineMustImmediatelyFollowIfndef) {
  write("src/sim/Queue.h",
        "#ifndef DMETABENCH_SIM_QUEUE_H\n"
        "#include <vector>\n"
        "#define DMETABENCH_SIM_QUEUE_H\n"
        "#endif\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("header-guard", Vs[0].Rule);
  EXPECT_EQ(2, Vs[0].Line);
}

TEST_F(LintTreeTest, AllowCommentSuppressesFinding) {
  write("src/sim/Clock.cpp",
        "long f() { return time(0); } "
        "// dmeta-analyze: allow(wall-clock) boot stamp only\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, StringLiteralsAndCommentsDoNotTrip) {
  write("src/sim/Doc.cpp",
        "// Never call std::rand or time() in sim code.\n"
        "const char *Hint = \"replace std::chrono::steady_clock::now()\";\n"
        "/* block comments are stripped too, like strings */\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, MultiLineBlockCommentsDoNotTrip) {
  // The sanitizer carries block-comment state across lines: a banned
  // token on an interior comment line must not fire, while real code
  // after the closing */ must still be scanned.
  write("src/sim/Doc.cpp",
        "/* Design note:\n"
        "   early prototypes read std::chrono and called time(0) here;\n"
        "   the scheduler clock replaced them. */\n"
        "long f();\n"
        "/* inline */ long g() { return time(0); }\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("wall-clock", Vs[0].Rule);
  EXPECT_EQ(5, Vs[0].Line);
}

TEST_F(LintTreeTest, RawStringLiteralsDoNotTrip) {
  // R"(...)" contents are literal data even across lines, and a
  // custom-delimiter raw string may contain an embedded )" sequence.
  write("src/sim/Fixture.cpp",
        "const char *Tsv = R\"(header\n"
        "std::rand gettimeofday time(0)\n"
        ")\";\n"
        "const char *Odd = R\"x(contains )\" and mt19937)x\";\n"
        "long g() { return time(0); }\n");
  std::vector<Violation> Vs = lint();
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("wall-clock", Vs[0].Rule);
  EXPECT_EQ(5, Vs[0].Line);
}

TEST_F(LintTreeTest, BareTokenMatchingAvoidsFalsePositives) {
  write("src/sim/Run.cpp",
        "void runtime(int x);\n"
        "void f() { runtime(3); static_assert(1 + 1 == 2); }\n"
        "void g(bool B) { DMB_ASSERT(B, \"must hold\"); }\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, ToolsTreeIsWalkedAndLinted) {
  // tools/ is in scope for wall-clock, raw-assert and header-guard: the
  // CLI drives simulations whose results must replay bit-for-bit.
  write("tools/probe/Probe.cpp",
        "#include <cassert>\n"
        "long f() { return time(0); }\n");
  write("tools/probe/Probe.h",
        "#ifndef PROBE_H\n"
        "#define PROBE_H\n"
        "#endif\n");
  size_t Files = 0;
  std::vector<Violation> Vs = lint(&Files);
  EXPECT_EQ(2u, Files);
  EXPECT_TRUE(hasRule(Vs, "raw-assert"));
  EXPECT_TRUE(hasRule(Vs, "wall-clock"));
  EXPECT_TRUE(hasRule(Vs, "header-guard"));
  for (const Violation &V : Vs) {
    if (V.Rule == "header-guard") {
      EXPECT_NE(std::string::npos,
                V.Message.find("DMETABENCH_TOOLS_PROBE_PROBE_H"));
    }
  }
}

TEST(LintContent, EventRefCaptureRule) {
  // A [&] lambda handed to the scheduler outlives its frame — caught in
  // src/ and tools/.
  EXPECT_TRUE(hasRule(lintOne("src/sim/Retry.cpp",
                              "void f() { S.after(5, [&]() { go(); }); }\n"),
                      "event-ref-capture"));
  EXPECT_TRUE(hasRule(lintOne("tools/Cli.cpp",
                              "void f() { S.at(T, [&, N]() { run(N); }); }\n"),
                      "event-ref-capture"));
  // Capturing this or explicit by-value captures are the sanctioned
  // spellings.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { S.after(5, [this]() { step(); }); }\n"),
      "event-ref-capture"));
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { S.after(5, [N]() { run(N); }); }\n"),
      "event-ref-capture"));
  // A [&] before the call (e.g. an unrelated lambda argument earlier on
  // the line) only counts when it follows the at(/after( token.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { sort(B, E, [&](int A, int Z) { return A < Z; }); }"
              "\n"),
      "event-ref-capture"));
  // tests/ and bench/ run the scheduler from the capturing frame itself.
  EXPECT_FALSE(hasRule(lintOne("tests/SimTest.cpp",
                               "TEST(S, T) { S.after(5, [&]() { ++N; }); }\n"),
                       "event-ref-capture"));
  EXPECT_FALSE(hasRule(lintOne("bench/Bench.cpp",
                               "void f() { S.at(T, [&]() { ++N; }); }\n"),
                       "event-ref-capture"));
  // The escape hatch names the rule.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { S.after(5, [&]() { go(); }); } "
              "// dmeta-analyze: allow(event-ref-capture) frame outlives S\n"),
      "event-ref-capture"));
}

TEST(LintContent, EventRefCaptureSpanningLinesIsCaught) {
  // The capture list need not share a line with the at(/after( call.
  std::vector<Violation> Vs = lintOne("src/dfs/Retry.cpp",
                                      "void f(Scheduler &S) {\n"
                                      "  int X = 0;\n"
                                      "  S.after(5,\n"
                                      "          [&] { ++X; });\n"
                                      "}\n");
  ASSERT_EQ(1u, Vs.size());
  EXPECT_EQ("event-ref-capture", Vs[0].Rule);
  EXPECT_EQ(4, Vs[0].Line);
}

TEST(LintContent, RefLambdaInsideAByValueCallbackIsFine) {
  // A [&] lambda in the scheduled callback's body runs inside that
  // callback, while the frame it captures is live.
  EXPECT_TRUE(lintOne("src/dfs/Retry.cpp",
                      "struct R {\n"
                      "  void f(Scheduler &S) {\n"
                      "    S.after(5, [this] {\n"
                      "      std::sort(B, E, [&](int A, int Z) {\n"
                      "        return A < Z;\n"
                      "      });\n"
                      "    });\n"
                      "  }\n"
                      "};\n")
                  .empty());
  EXPECT_TRUE(lintOne("src/dfs/Retry.cpp",
                      "void f(Scheduler &S) { S.after(5, [this] { "
                      "std::sort(B, E, [&](int A, int Z) { return A < Z; }); "
                      "}); }\n")
                  .empty());
}

TEST(LintContent, RaiiGuardRule) {
  // Manual lock()/unlock() in a file using a host mutex is caught...
  std::vector<Violation> Vs =
      lintOne("src/support/Pool.cpp",
              "std::mutex M;\n"
              "void f() { M.lock(); work(); M.unlock(); }\n");
  EXPECT_TRUE(hasRule(Vs, "raii-guard"));
  EXPECT_TRUE(hasRule(lintOne("src/support/Pool.cpp",
                              "pthread_mutex_t M;\n"
                              "void f() { pthread_mutex_lock(&M); }\n"),
                      "raii-guard"));
  // ...but RAII guards over the same mutex are the sanctioned spelling.
  EXPECT_FALSE(hasRule(
      lintOne("src/support/Pool.cpp",
              "std::mutex M;\n"
              "void f() { std::lock_guard<std::mutex> G(M); work(); }\n"),
      "raii-guard"));
  // SimMutex has a scheduler-driven lock()/unlock() protocol that RAII
  // cannot express; files without a host mutex type are out of scope.
  EXPECT_FALSE(hasRule(
      lintOne("src/dfs/Locking.cpp",
              "void f(dmb::SimMutex &M) { M.lock(Ctx); M.unlock(); }\n"),
      "raii-guard"));
  // The escape hatch works here too.
  EXPECT_FALSE(hasRule(
      lintOne("src/support/Pool.cpp",
              "std::mutex M;\n"
              "void f() { M.lock(); } // dmeta-analyze: allow(raii-guard)\n"),
      "raii-guard"));
}

TEST(LintContent, FaultDeterminismRule) {
  // A sequential Rng stream in fault-policy code ties rolls to event
  // order; an Rng constructed without the policy Seed unties them from
  // the scenario — both caught.
  EXPECT_TRUE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void roll(dmb::FaultPolicy &P) { dmb::Rng R; use(R); }\n"),
      "fault-determinism"));
  EXPECT_TRUE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "struct Link { dmb::FaultPolicy Faults; dmb::Rng FaultRng; "
              "};\n"),
      "fault-determinism"));
  // Deriving the Rng from the policy Seed at the point of use is the
  // sanctioned spelling.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void roll(dmb::FaultPolicy &P, long Now) {\n"
              "  dmb::Rng R(P.Seed ^ mix(Now));\n"
              "}\n"),
      "fault-determinism"));
  // Files that do not handle a FaultPolicy in code are out of scope —
  // stored seeded streams are legal elsewhere (e.g. SnapshotJob)...
  EXPECT_FALSE(hasRule(lintOne("src/workload/Noise.cpp", "dmb::Rng R;\n"),
                       "fault-determinism"));
  // ...and a comment-only mention does not pull a file into scope.
  EXPECT_FALSE(hasRule(
      lintOne("src/workload/Noise.cpp",
              "// pair with a FaultPolicy partition window\n"
              "dmb::Rng R;\n"),
      "fault-determinism"));
  // "Rng" only matches as a whole word.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void f(dmb::FaultPolicy &P) { RngState S; use(S); }\n"),
      "fault-determinism"));
  // The escape hatch names the rule.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void f(dmb::FaultPolicy &P) { dmb::Rng R; use(R); } "
              "// dmeta-analyze: allow(fault-determinism) replay-stable\n"),
      "fault-determinism"));
}

TEST(LintContent, EventQueueRule) {
  // A hand-rolled priority queue or heap primitive near the scheduler
  // bypasses sim/EventQueue's tie discipline — caught in src/, bench/
  // and tools/.
  EXPECT_TRUE(hasRule(
      lintOne("src/sim/Timers.cpp",
              "std::priority_queue<Ev> Q;\n"),
      "event-queue"));
  EXPECT_TRUE(hasRule(
      lintOne("tools/Cli.cpp",
              "void f() { std::push_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  EXPECT_TRUE(hasRule(
      lintOne("bench/Bench.cpp",
              "void f() { std::pop_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  EXPECT_TRUE(hasRule(
      lintOne("src/core/Sched.cpp",
              "void f() { std::make_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  // The EventQueue implementation itself is the one sanctioned home.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/EventQueue.cpp",
              "void f() { std::push_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/EventQueue.h",
              "std::priority_queue<Ev> Q;\n"),
      "event-queue"));
  // Identifiers merely containing the token do not fire.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Timers.cpp",
              "void f() { my_push_heap(H); }\n"),
      "event-queue"));
  // The escape hatch names the rule.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Timers.cpp",
              "std::priority_queue<Ev> Q; // dmeta-analyze: allow("
              "event-queue) not scheduling, a top-k result buffer\n"),
      "event-queue"));
}

TEST(LintContent, AllowHatchIsRuleSpecific) {
  // An allow() naming a different rule must not suppress the finding,
  // and one allow() does not blanket the whole line's other findings.
  std::vector<Violation> Vs = lintOne(
      "src/sim/Clock.cpp",
      "long f() { return time(0); } // dmeta-analyze: allow(randomness)\n");
  EXPECT_TRUE(hasRule(Vs, "wall-clock"));
  Vs = lintOne("src/sim/Clock.cpp",
               "long f() { srand(1); return time(0); } "
               "// dmeta-analyze: allow(wall-clock)\n");
  EXPECT_FALSE(hasRule(Vs, "wall-clock"));
  EXPECT_TRUE(hasRule(Vs, "randomness"));
}

TEST(LintContent, MultipleRulesOnOneFile) {
  std::vector<Violation> Vs = lintOne("src/sim/Bad.cpp",
                                      "#include <cassert>\n"
                                      "int f() { return rand(); }\n");
  EXPECT_TRUE(hasRule(Vs, "raw-assert"));
  EXPECT_TRUE(hasRule(Vs, "randomness"));
}

TEST(LintErrorTable, InSyncTablePasses) {
  std::string H = "enum class FsError {\n  Ok,\n  NoEnt,\n};\n"
                  "inline constexpr unsigned NumFsErrors = 2;\n";
  std::string Cpp = "switch (E) {\n"
                    "case FsError::Ok: return \"OK\";\n"
                    "case FsError::NoEnt: return \"ENOENT\";\n"
                    "}\n";
  std::vector<Violation> Vs = errorTable(H, Cpp);
  EXPECT_TRUE(Vs.empty());
}

TEST(LintErrorTable, DriftIsCaught) {
  // Enum grew a member but neither the count nor the name table followed.
  std::string H = "enum class FsError {\n  Ok,\n  NoEnt,\n  Stale,\n};\n"
                  "inline constexpr unsigned NumFsErrors = 2;\n";
  std::string Cpp = "switch (E) {\n"
                    "case FsError::Ok: return \"OK\";\n"
                    "case FsError::NoEnt: return \"ENOENT\";\n"
                    "}\n";
  std::vector<Violation> Vs = errorTable(H, Cpp);
  ASSERT_FALSE(Vs.empty());
  for (const Violation &V : Vs)
    EXPECT_EQ("error-table", V.Rule);
}

TEST(LintErrorTable, DuplicateNameIsCaught) {
  std::string H = "enum class FsError {\n  Ok,\n  NoEnt,\n};\n"
                  "inline constexpr unsigned NumFsErrors = 2;\n";
  std::string Cpp = "switch (E) {\n"
                    "case FsError::Ok: return \"OK\";\n"
                    "case FsError::NoEnt: return \"OK\";\n"
                    "}\n";
  std::vector<Violation> Vs = errorTable(H, Cpp);
  EXPECT_TRUE(hasRule(Vs, "error-table"));
}

// The shipped tree is clean under the token-level rules, and each of them
// is registered with the engine so a scan of the real tree runs it.
TEST(LintRealTree, SourceTreeIsClean) {
  const std::vector<std::string> &Names = analyzeRuleNames();
  for (const char *R :
       {"wall-clock", "randomness", "trace-clock", "event-queue", "raw-assert",
        "raii-guard", "fault-determinism", "event-ref-capture", "header-guard",
        "suppression-justification", "error-table"})
    EXPECT_NE(Names.end(), std::find(Names.begin(), Names.end(), R)) << R;
  size_t Files = 0;
  std::vector<Violation> Vs = analyzeTree(DMB_SOURCE_ROOT, &Files);
  EXPECT_GT(Files, 100u);
  for (const Violation &V : Vs)
    ADD_FAILURE() << renderFinding(V);
}

} // namespace
