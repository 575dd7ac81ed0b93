//===- tools/dmeta-analyze.cpp - The repo's static analyzer ---------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Driver for the repo's one static-analysis tool: token-level hygiene
/// and determinism bans, symbol-aware determinism, lifetime and error
/// discipline, interprocedural dataflow over the whole-program symbol
/// table and call graph, and layering over src/, tests/, bench/ and
/// tools/. Registered as a ctest, so `ctest` fails on findings like on a
/// failing unit test. `--dot <file>` exports the call graph. See
/// tools/analyze/AnalyzeEngine.h for the rule catalogue, ToolMain.h for
/// flags and exit codes, and DESIGN.md ("Static analysis").
///
//===----------------------------------------------------------------------===//

#include "analyze/ToolMain.h"

int main(int Argc, char **Argv) { return dmb::analyze::toolMain(Argc, Argv); }
