//===- tests/SupportTest.cpp - Unit tests for src/support -----------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Format.h"
#include "support/Interner.h"
#include "support/Random.h"
#include "support/Result.h"
#include "support/TextTable.h"
#include <gtest/gtest.h>
#include <set>

using namespace dmb;

namespace {

TEST(Error, NamesAreCanonical) {
  EXPECT_STREQ("OK", fsErrorName(FsError::Ok));
  EXPECT_STREQ("EEXIST", fsErrorName(FsError::Exists));
  EXPECT_STREQ("ENOENT", fsErrorName(FsError::NoEnt));
  EXPECT_STREQ("EXDEV", fsErrorName(FsError::XDev));
  EXPECT_STREQ("ENOTEMPTY", fsErrorName(FsError::NotEmpty));
  EXPECT_STREQ("ESTALE", fsErrorName(FsError::Stale));
}

TEST(Error, ExhaustiveNameRoundTrip) {
  // Runtime twin of dmeta-analyze's error-table check: every code has a
  // distinct canonical name that parses back to the same code.
  std::set<std::string> Seen;
  for (unsigned I = 0; I < NumFsErrors; ++I) {
    FsError E = static_cast<FsError>(I);
    const char *Name = fsErrorName(E);
    EXPECT_STRNE("UNKNOWN", Name) << "code " << I;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name " << Name;
    FsError Back = FsError::Ok;
    ASSERT_TRUE(fsErrorFromName(Name, Back)) << Name;
    EXPECT_EQ(E, Back) << Name;
  }
  EXPECT_EQ(NumFsErrors, Seen.size());
  FsError Out = FsError::Ok;
  EXPECT_FALSE(fsErrorFromName("ENOSYS", Out));
  EXPECT_FALSE(fsErrorFromName("", Out));
  EXPECT_FALSE(fsErrorFromName("eexist", Out));
}

TEST(Error, FromNameRejectsUnknownNames) {
  // A failed lookup must reject near-misses exactly and leave the
  // out-parameter untouched, so callers can trust it after a false return.
  FsError Out = FsError::Stale;
  EXPECT_FALSE(fsErrorFromName("UNKNOWN", Out)); // fallback render, not a name
  EXPECT_FALSE(fsErrorFromName("ENOEN", Out));   // prefix of ENOENT
  EXPECT_FALSE(fsErrorFromName("ENOENTX", Out)); // trailing garbage
  EXPECT_FALSE(fsErrorFromName("ENOENT ", Out)); // trailing whitespace
  EXPECT_FALSE(fsErrorFromName(" ENOENT", Out)); // leading whitespace
  EXPECT_FALSE(fsErrorFromName("Ok", Out));      // enum spelling, not the name
  EXPECT_EQ(FsError::Stale, Out);
}

TEST(Result, HoldsValue) {
  Result<int> R = 42;
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(42, *R);
  EXPECT_EQ(FsError::Ok, R.error());
  EXPECT_EQ(42, R.valueOr(7));
}

TEST(Result, HoldsError) {
  Result<int> R = FsError::NoEnt;
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(FsError::NoEnt, R.error());
  EXPECT_EQ(7, R.valueOr(7));
}

TEST(Result, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> R = std::make_unique<int>(5);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(5, **R);
}

TEST(Format, Printf) {
  EXPECT_EQ("x=3 y=abc", format("x=%d y=%s", 3, "abc"));
  EXPECT_EQ("", format("%s", ""));
  EXPECT_EQ("3.14", format("%.2f", 3.14159));
}

TEST(Format, JoinSplit) {
  std::vector<std::string> Parts = {"a", "b", "c"};
  EXPECT_EQ("a/b/c", join(Parts, "/"));
  EXPECT_EQ(Parts, split("a/b/c", '/'));
  std::vector<std::string> WithEmpty = {"", "x", ""};
  EXPECT_EQ(WithEmpty, split("/x/", '/'));
  EXPECT_EQ(std::vector<std::string>{""}, split("", '/'));
}

TEST(Format, StartsWith) {
  EXPECT_TRUE(startsWith("/mnt/nfs/test", "/mnt/nfs"));
  EXPECT_FALSE(startsWith("/mnt", "/mnt/nfs"));
}

TEST(Format, ParseUnsignedAcceptsOnlyWholeNumbers) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(0u, V);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(UINT64_MAX, V);
  V = 7;
  for (const char *Bad : {"", "x", "8x", " 8", "-1", "+1", "1.5",
                          "18446744073709551616"})
    EXPECT_FALSE(parseUnsigned(Bad, V)) << '"' << Bad << '"';
  EXPECT_EQ(7u, V); // failures leave the output untouched
}

TEST(Random, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(Random, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Random, ExponentialMean) {
  Rng R(11);
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.exponential(3.0);
  EXPECT_NEAR(3.0, Sum / N, 0.1);
}

TEST(Random, NormalMoments) {
  Rng R(13);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal(10.0, 2.0);
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(10.0, Mean, 0.1);
  EXPECT_NEAR(4.0, Var, 0.3);
}

TEST(Random, BelowStaysInRange) {
  Rng R(17);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.below(5);
    EXPECT_LT(V, 5u);
    Seen.insert(V);
  }
  EXPECT_EQ(5u, Seen.size());
}

TEST(Interner, IdsAreDenseAndStable) {
  Interner I;
  EXPECT_EQ(0u, I.intern("volume"));
  EXPECT_EQ(1u, I.intern("scratch"));
  // Re-interning returns the existing id.
  EXPECT_EQ(0u, I.intern("volume"));
  EXPECT_EQ(2u, I.size());
  EXPECT_EQ("volume", I.name(0));
  EXPECT_EQ("scratch", I.name(1));
}

TEST(Interner, FindDoesNotIntern) {
  Interner I;
  EXPECT_EQ(Interner::None, I.find("volume"));
  EXPECT_EQ(0u, I.size());
  I.intern("volume");
  EXPECT_EQ(0u, I.find("volume"));
  EXPECT_EQ(Interner::None, I.find("volum"));
}

TEST(Interner, NamesStayValidAcrossGrowth) {
  // The id -> name vector points into the map's nodes; references must
  // survive arbitrarily many later interns (rehashes move buckets, not
  // nodes).
  Interner I;
  I.intern("first");
  const std::string *First = &I.name(0);
  for (int K = 0; K < 1000; ++K)
    I.intern("vol" + std::to_string(K));
  EXPECT_EQ(First, &I.name(0));
  EXPECT_EQ("first", I.name(0));
  EXPECT_EQ(1001u, I.size());
  EXPECT_EQ(500u, I.find("vol499"));
}

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "ops/s"});
  T.addRow({"NFS", "5000"});
  T.addRow({"Lustre", "12000"});
  std::string Out = T.render();
  EXPECT_NE(std::string::npos, Out.find("name"));
  EXPECT_NE(std::string::npos, Out.find("Lustre"));
  EXPECT_NE(std::string::npos, Out.find("12000"));
  EXPECT_EQ(2u, T.numRows());
  // Numeric cells are right-aligned: "5000" is preceded by a space pad.
  EXPECT_NE(std::string::npos, Out.find(" 5000"));
}

} // namespace
