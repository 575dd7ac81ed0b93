//===- tests/PathWalkTest.cpp - Path-walk edge cases ----------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge cases of LocalFileSystem's path walk (thesis \S 2.3.1): repeated
/// and trailing slashes, "." and ".." in every position, symlinks as the
/// last component with and without following, relative and absolute
/// symlink targets with components after them, a symlink to "/", the
/// ELOOP threshold and over-long components. Every case runs on all three
/// directory indexes, and the walk's OpCost is pinned alongside the
/// outcome: the modelled service time depends on it.
///
//===----------------------------------------------------------------------===//

#include "fs/LocalFileSystem.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

class PathWalkTest : public ::testing::TestWithParam<DirIndexKind> {
protected:
  PathWalkTest() : Fs(config()) {}

  static FsConfig config() {
    FsConfig C;
    C.DirIndex = GetParam();
    return C;
  }

  OpCtx ctx() {
    OpCtx Ctx;
    Ctx.Creds.Uid = 1000;
    Ctx.Creds.Gid = 1000;
    return Ctx;
  }

  /// Builds /a, /a/b and the regular file /a/b/f.
  void makeTree() {
    OpCtx Ctx = ctx();
    ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
    ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
    Result<FileHandle> Fh = Fs.open(Ctx, "/a/b/f", OpenWrite | OpenCreate);
    ASSERT_TRUE(Fh.ok());
    ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  }

  /// The inode stat() reports for \p Path, or 0 with the error in \p Err.
  InodeNum ino(const std::string &Path, FsError *Err = nullptr) {
    OpCtx Ctx = ctx();
    Result<Attr> A = Fs.stat(Ctx, Path);
    if (Err)
      *Err = A.error();
    return A.ok() ? A->Ino : 0;
  }

  /// The cost stat() charges for walking \p Path.
  OpCost statCost(const std::string &Path) {
    OpCtx Ctx = ctx();
    (void)Fs.stat(Ctx, Path);
    return Ctx.Cost;
  }

  static void expectSameCost(const OpCost &X, const OpCost &Y) {
    EXPECT_EQ(X.InodesTouched, Y.InodesTouched);
    EXPECT_EQ(X.DirEntriesScanned, Y.DirEntriesScanned);
    EXPECT_EQ(X.SymlinksFollowed, Y.SymlinksFollowed);
  }

  LocalFileSystem Fs;
};

TEST_P(PathWalkTest, RepeatedSlashesAreOneSeparator) {
  makeTree();
  InodeNum B = ino("/a/b");
  ASSERT_NE(0u, B);
  EXPECT_EQ(B, ino("//a//b"));
  EXPECT_EQ(B, ino("///a/////b"));
  EXPECT_EQ(ino("/a/b/f"), ino("//a//b//f"));
  expectSameCost(statCost("/a/b"), statCost("//a//b"));
  // The root spelled with several slashes is still the root.
  EXPECT_EQ(ino("/"), ino("//"));
  expectSameCost(statCost("/"), statCost("///"));
}

TEST_P(PathWalkTest, TrailingSlashesAreIgnored) {
  makeTree();
  EXPECT_EQ(ino("/a/b"), ino("/a/b/"));
  EXPECT_EQ(ino("/a/b"), ino("/a/b//"));
  expectSameCost(statCost("/a/b"), statCost("/a/b/"));
  OpCtx Ctx = ctx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/c/", 0755));
  EXPECT_EQ(FileType::Directory, Fs.stat(Ctx, "/a/c")->Type);
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/a/c//", 0755));
  EXPECT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/a/c/"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a/c").error());
}

TEST_P(PathWalkTest, DotInTheMiddleAndLast) {
  makeTree();
  EXPECT_EQ(ino("/a/b"), ino("/a/./b"));
  EXPECT_EQ(ino("/a/b/f"), ino("/./a/././b/f"));
  EXPECT_EQ(ino("/a"), ino("/a/."));
  EXPECT_EQ(ino("/"), ino("/."));
  // "." walks its directory (one inode) but probes no entry.
  OpCost Plain = statCost("/a/b");
  OpCost Dotted = statCost("/a/./b");
  EXPECT_EQ(Plain.InodesTouched + 1, Dotted.InodesTouched);
  EXPECT_EQ(Plain.DirEntriesScanned, Dotted.DirEntriesScanned);
  OpCtx Ctx = ctx();
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/a/.", 0755));
  EXPECT_EQ(FsError::Busy, Fs.rmdir(Ctx, "/a/b/."));
  EXPECT_EQ(FsError::IsDir, Fs.unlink(Ctx, "/a/."));
  EXPECT_EQ(FsError::Busy, Fs.rename(Ctx, "/a/b/.", "/a/z"));
}

TEST_P(PathWalkTest, DotDotInTheMiddleAndLast) {
  makeTree();
  EXPECT_EQ(ino("/a/b"), ino("/a/b/../b"));
  EXPECT_EQ(ino("/a/b/f"), ino("/a/b/../../a/b/f"));
  EXPECT_EQ(ino("/a"), ino("/a/b/.."));
  EXPECT_EQ(ino("/"), ino("/a/.."));
  // ".." at the root is the root itself, in the middle and last.
  EXPECT_EQ(ino("/"), ino("/.."));
  EXPECT_EQ(ino("/"), ino("/../.."));
  EXPECT_EQ(ino("/a/b"), ino("/../a/b"));
  EXPECT_EQ(ino("/a/b"), ino("/../../a/../a/b"));
  // ".." walks its directory like any other component.
  EXPECT_EQ(statCost("/a/b").InodesTouched + 1,
            statCost("/a/b/..").InodesTouched);
  OpCtx Ctx = ctx();
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/a/b/..", 0755));
  EXPECT_EQ(FsError::Busy, Fs.rmdir(Ctx, "/a/b/.."));
  EXPECT_EQ(FsError::Busy, Fs.rename(Ctx, "/a/b/f", "/a/.."));
  // A ".." through a regular file fails: the file is not a directory.
  EXPECT_EQ(FsError::NotDir, Fs.stat(Ctx, "/a/b/f/..").error());
}

TEST_P(PathWalkTest, SymlinkAsLastComponent) {
  makeTree();
  OpCtx Ctx = ctx();
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/b", "/l"));
  // FollowLast on (stat) resolves to the target, off (lstat) to the link.
  EXPECT_EQ(ino("/a/b"), ino("/l"));
  EXPECT_EQ(FileType::Directory, Fs.stat(Ctx, "/l")->Type);
  Result<Attr> L = Fs.lstat(Ctx, "/l");
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(FileType::Symlink, L->Type);
  EXPECT_NE(ino("/a/b"), L->Ino);
  EXPECT_EQ(1u, statCost("/l").SymlinksFollowed);
  OpCtx LCtx = ctx();
  (void)Fs.lstat(LCtx, "/l");
  EXPECT_EQ(0u, LCtx.Cost.SymlinksFollowed);
  // Non-following mutations act on the link itself.
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/l", 0755));
  EXPECT_EQ(FsError::Ok, Fs.rename(Ctx, "/l", "/m"));
  EXPECT_EQ(FsError::Ok, Fs.unlink(Ctx, "/m"));
  EXPECT_NE(0u, ino("/a/b"));
}

TEST_P(PathWalkTest, CreateThroughDanglingSymlinkUsesTargetName) {
  makeTree();
  OpCtx Ctx = ctx();
  // Absolute and relative dangling targets: open(O_CREAT) follows the
  // last component and creates the name the target spells.
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/new-abs", "/dangle-abs"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "b/new-rel", "/a/dangle-rel"));
  for (const char *P : {"/dangle-abs", "/a/dangle-rel"}) {
    Result<FileHandle> Fh = Fs.open(Ctx, P, OpenWrite | OpenCreate);
    ASSERT_TRUE(Fh.ok()) << P;
    ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  }
  EXPECT_EQ(FileType::Regular, Fs.stat(Ctx, "/a/new-abs")->Type);
  EXPECT_EQ(FileType::Regular, Fs.stat(Ctx, "/a/b/new-rel")->Type);
  EXPECT_EQ(ino("/a/new-abs"), ino("/dangle-abs"));
  EXPECT_TRUE(Fs.fsck().clean());
}

TEST_P(PathWalkTest, SymlinkTargetsFollowedByRemainingComponents) {
  makeTree();
  OpCtx Ctx = ctx();
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/b", "/abs"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "b", "/a/rel"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "../a/./b/", "/a/up"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/abs", "/chain"));
  InodeNum F = ino("/a/b/f");
  ASSERT_NE(0u, F);
  EXPECT_EQ(F, ino("/abs/f"));
  EXPECT_EQ(F, ino("/a/rel/f"));
  EXPECT_EQ(F, ino("/a/up/f"));
  EXPECT_EQ(F, ino("/chain/f"));
  // ".." after a followed link leaves the link's target, not the link.
  EXPECT_EQ(F, ino("/chain/../b/f"));
  EXPECT_EQ(ino("/a"), ino("/abs/.."));
  EXPECT_EQ(1u, statCost("/abs/f").SymlinksFollowed);
  EXPECT_EQ(2u, statCost("/chain/f").SymlinksFollowed);
  EXPECT_EQ(5u, statCost("/abs/f").InodesTouched);
  // The remaining components resolve against the target's directory.
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a/rel/missing").error());
  EXPECT_EQ(FsError::NotDir, Fs.stat(Ctx, "/abs/f/x").error());
  // Creating below a symlinked directory lands in the target.
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/rel/sub", 0755));
  EXPECT_EQ(ino("/a/b/sub"), ino("/a/rel/sub"));
}

TEST_P(PathWalkTest, SymlinkToRoot) {
  makeTree();
  OpCtx Ctx = ctx();
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/", "/r"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "//", "/a/r2"));
  EXPECT_EQ(ino("/"), ino("/r"));
  EXPECT_EQ(ino("/"), ino("/r/"));
  EXPECT_EQ(ino("/"), ino("/a/r2"));
  EXPECT_EQ(ino("/a/b/f"), ino("/r/a/b/f"));
  EXPECT_EQ(ino("/a/b"), ino("/a/r2/a/r2/a/b"));
  EXPECT_EQ(FileType::Symlink, Fs.lstat(Ctx, "/r")->Type);
  EXPECT_EQ(1u, statCost("/r").SymlinksFollowed);
  // Creating "through" a link to the root names no leaf.
  EXPECT_EQ(FsError::IsDir,
            Fs.open(Ctx, "/r", OpenWrite | OpenCreate).error());
}

TEST_P(PathWalkTest, LoopAtMaxSymlinkDepthPlusOne) {
  OpCtx Ctx = ctx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/t", 0755));
  int Max = Fs.config().MaxSymlinkDepth;
  // /s<i> -> /s<i+1> for i < Max, /s<Max> -> /t: stat("/s1") follows
  // exactly Max links; stat("/s0") one more.
  for (int I = 0; I < Max; ++I)
    ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/s" + std::to_string(I + 1),
                                      "/s" + std::to_string(I)));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/t", "/s" + std::to_string(Max)));
  EXPECT_EQ(ino("/t"), ino("/s1"));
  EXPECT_EQ(static_cast<uint64_t>(Max), statCost("/s1").SymlinksFollowed);
  FsError Err = FsError::Ok;
  EXPECT_EQ(0u, ino("/s0", &Err));
  EXPECT_EQ(FsError::Loop, Err);
  EXPECT_EQ(FsError::Loop, Fs.stat(Ctx, "/s0/x").error());
  // lstat stops at the link itself, however long the chain behind it.
  EXPECT_TRUE(Fs.lstat(Ctx, "/s0").ok());
}

TEST_P(PathWalkTest, OverLongComponentIsNameTooLong) {
  makeTree();
  OpCtx Ctx = ctx();
  uint32_t Max = Fs.config().NameMax;
  std::string Long(Max + 1, 'x');
  std::string Fits(Max, 'y');
  EXPECT_EQ(FsError::NameTooLong, Fs.stat(Ctx, "/" + Long).error());
  EXPECT_EQ(FsError::NameTooLong, Fs.stat(Ctx, "/a/" + Long + "/f").error());
  EXPECT_EQ(FsError::NameTooLong, Fs.mkdir(Ctx, "/a/b/" + Long, 0755));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a/" + Fits).error());
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/" + Fits, 0755));
  EXPECT_EQ(FileType::Directory, Fs.stat(Ctx, "/a/" + Fits + "/")->Type);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PathWalkTest,
                         ::testing::Values(DirIndexKind::Linear,
                                           DirIndexKind::Hashed,
                                           DirIndexKind::BTree),
                         [](const auto &Info) {
                           return dirIndexKindName(Info.param);
                         });

} // namespace
