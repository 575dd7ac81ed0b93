//===- tests/FsTest.cpp - Unit tests for the local file system ------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the POSIX semantics of \S 2.1-2.3 and \S 2.6 of the thesis:
/// name uniqueness, link counts, deferred unlink, atomic rename, permission
/// walks, symlink resolution, sparse files and directory index behaviour.
///
//===----------------------------------------------------------------------===//

#include "fs/CostModel.h"
#include "fs/LocalFileSystem.h"
#include "support/Random.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

OpCtx userCtx(SimTime Now = 0) {
  OpCtx Ctx;
  Ctx.Creds.Uid = 1000;
  Ctx.Creds.Gid = 1000;
  Ctx.Now = Now;
  return Ctx;
}

OpCtx rootCtx(SimTime Now = 0) {
  OpCtx Ctx;
  Ctx.Creds.Uid = 0;
  Ctx.Creds.Gid = 0;
  Ctx.Now = Now;
  return Ctx;
}

/// Creates an empty file the way the MakeFiles plugin does:
/// open(O_CREAT)/close (thesis Table 3.5).
FsError touch(LocalFileSystem &Fs, OpCtx &Ctx, const std::string &Path) {
  Result<FileHandle> Fh =
      Fs.open(Ctx, Path, OpenWrite | OpenCreate, 0644);
  if (!Fh.ok())
    return Fh.error();
  return Fs.close(Ctx, *Fh);
}

class FsTest : public ::testing::Test {
protected:
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
};

//===----------------------------------------------------------------------===//
// Directories
//===----------------------------------------------------------------------===//

TEST_F(FsTest, MkdirCreatesDirectory) {
  EXPECT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  Result<Attr> A = Fs.stat(Ctx, "/a");
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(FileType::Directory, A->Type);
  EXPECT_EQ(2u, A->Nlink);
  EXPECT_EQ(1000u, A->Uid);
}

TEST_F(FsTest, MkdirExistingFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/a", 0755));
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/", 0755));
}

TEST_F(FsTest, MkdirMissingParentFails) {
  EXPECT_EQ(FsError::NoEnt, Fs.mkdir(Ctx, "/a/b", 0755));
}

TEST_F(FsTest, NestedDirectoriesLinkCounts) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/c", 0755));
  // A directory's nlink is 2 plus one per subdirectory ("..").
  EXPECT_EQ(4u, Fs.stat(Ctx, "/a")->Nlink);
  ASSERT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/a/c"));
  EXPECT_EQ(3u, Fs.stat(Ctx, "/a")->Nlink);
}

TEST_F(FsTest, RmdirNonEmptyFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/f"));
  EXPECT_EQ(FsError::NotEmpty, Fs.rmdir(Ctx, "/a"));
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/a/f"));
  EXPECT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/a"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a").error());
}

TEST_F(FsTest, RmdirOnFileFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::NotDir, Fs.rmdir(Ctx, "/f"));
}

TEST_F(FsTest, DotAndDotDotResolve) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  EXPECT_EQ(Fs.stat(Ctx, "/a")->Ino, Fs.stat(Ctx, "/a/b/..")->Ino);
  EXPECT_EQ(Fs.stat(Ctx, "/a")->Ino, Fs.stat(Ctx, "/a/.")->Ino);
  // Root's dot-dot points to root itself.
  EXPECT_EQ(Fs.stat(Ctx, "/")->Ino, Fs.stat(Ctx, "/..")->Ino);
}

TEST_F(FsTest, ReaddirContainsDotEntries) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/x"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/y"));
  Result<std::vector<DirEntry>> Entries = Fs.readdir(Ctx, "/a");
  ASSERT_TRUE(Entries.ok());
  ASSERT_EQ(4u, Entries->size());
  EXPECT_EQ(".", (*Entries)[0].Name);
  EXPECT_EQ("..", (*Entries)[1].Name);
}

TEST_F(FsTest, TrailingAndRepeatedSlashesTolerated) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  EXPECT_TRUE(Fs.stat(Ctx, "/a/").ok());
  EXPECT_TRUE(Fs.stat(Ctx, "//a").ok());
}

TEST_F(FsTest, RelativePathRejected) {
  EXPECT_EQ(FsError::Invalid, Fs.mkdir(Ctx, "a", 0755));
  EXPECT_EQ(FsError::Invalid, Fs.stat(Ctx, "").error());
}

TEST_F(FsTest, NameTooLongRejected) {
  std::string Long(300, 'x');
  EXPECT_EQ(FsError::NameTooLong, Fs.mkdir(Ctx, "/" + Long, 0755));
}

//===----------------------------------------------------------------------===//
// Files, open/close, deferred unlink
//===----------------------------------------------------------------------===//

TEST_F(FsTest, CreateAndStatFile) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<Attr> A = Fs.stat(Ctx, "/f");
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(FileType::Regular, A->Type);
  EXPECT_EQ(1u, A->Nlink);
  EXPECT_EQ(0u, A->Size);
}

TEST_F(FsTest, OpenExclFailsOnExisting) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<FileHandle> Fh =
      Fs.open(Ctx, "/f", OpenWrite | OpenCreate | OpenExcl);
  EXPECT_EQ(FsError::Exists, Fh.error());
}

TEST_F(FsTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(FsError::NoEnt, Fs.open(Ctx, "/nope", OpenRead).error());
}

TEST_F(FsTest, UnlinkedOpenFileLingersUntilClose) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/tmpfile", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/tmpfile"));
  // The directory entry is gone, but the inode lives (UNIX temp file
  // idiom, \S 2.3.1): writes still succeed.
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/tmpfile").error());
  EXPECT_TRUE(Fs.write(Ctx, *Fh, 100).ok());
  uint64_t InodesBefore = Fs.numInodes();
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  EXPECT_EQ(InodesBefore - 1, Fs.numInodes());
}

TEST_F(FsTest, UnlinkOnDirectoryFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::IsDir, Fs.unlink(Ctx, "/d"));
}

TEST_F(FsTest, RemoveDispatchesByType) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Ok, Fs.remove(Ctx, "/d"));
  EXPECT_EQ(FsError::Ok, Fs.remove(Ctx, "/f"));
  EXPECT_EQ(FsError::NoEnt, Fs.remove(Ctx, "/gone"));
}

TEST_F(FsTest, WriteExtendsAndAllocatesBlocks) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 10000).ok());
  Result<Attr> A = Fs.fstat(Ctx, *Fh);
  EXPECT_EQ(10000u, A->Size);
  EXPECT_EQ(3u, A->Blocks); // ceil(10000/4096)
  EXPECT_EQ(3u, Fs.allocatedBlocks());
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/f"));
  EXPECT_EQ(0u, Fs.allocatedBlocks());
}

TEST_F(FsTest, SparseFileViaSeek) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.seek(Ctx, *Fh, 1000000).ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 1).ok());
  EXPECT_EQ(1000001u, Fs.fstat(Ctx, *Fh)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, AppendRepositionsBeforeWrite) {
  Result<FileHandle> A = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(Fs.write(Ctx, *A, 100).ok());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *A));
  Result<FileHandle> B = Fs.open(Ctx, "/f", OpenWrite | OpenAppend);
  ASSERT_TRUE(B.ok());
  ASSERT_TRUE(Fs.write(Ctx, *B, 50).ok());
  EXPECT_EQ(150u, Fs.fstat(Ctx, *B)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *B));
}

TEST_F(FsTest, ReadStopsAtEof) {
  Result<FileHandle> Fh =
      Fs.open(Ctx, "/f", OpenRead | OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 100).ok());
  ASSERT_TRUE(Fs.seek(Ctx, *Fh, 0).ok());
  EXPECT_EQ(100u, *Fs.read(Ctx, *Fh, 1000));
  EXPECT_EQ(0u, *Fs.read(Ctx, *Fh, 1000));
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, TruncateFreesBlocks) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 100000).ok());
  uint64_t Before = Fs.allocatedBlocks();
  ASSERT_EQ(FsError::Ok, Fs.ftruncate(Ctx, *Fh, 0));
  EXPECT_LT(Fs.allocatedBlocks(), Before);
  EXPECT_EQ(0u, Fs.fstat(Ctx, *Fh)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, OpenTruncClearsFile) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<FileHandle> A = Fs.open(Ctx, "/f", OpenWrite);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(Fs.write(Ctx, *A, 5000).ok());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *A));
  Result<FileHandle> B = Fs.open(Ctx, "/f", OpenWrite | OpenTrunc);
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(0u, Fs.fstat(Ctx, *B)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *B));
}

TEST_F(FsTest, WriteOnReadOnlyHandleFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenRead);
  ASSERT_TRUE(Fh.ok());
  EXPECT_EQ(FsError::BadFd, Fs.write(Ctx, *Fh, 10).error());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, BadHandleRejected) {
  EXPECT_EQ(FsError::BadFd, Fs.close(Ctx, 999999));
  EXPECT_EQ(FsError::BadFd, Fs.write(Ctx, 999999, 1).error());
  EXPECT_EQ(FsError::BadFd, Fs.fstat(Ctx, 999999).error());
}

//===----------------------------------------------------------------------===//
// Links
//===----------------------------------------------------------------------===//

TEST_F(FsTest, HardlinkSharesInode) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.link(Ctx, "/f", "/g"));
  EXPECT_EQ(Fs.stat(Ctx, "/f")->Ino, Fs.stat(Ctx, "/g")->Ino);
  EXPECT_EQ(2u, Fs.stat(Ctx, "/f")->Nlink);
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/f"));
  // The file remains reachable through the second link.
  EXPECT_EQ(1u, Fs.stat(Ctx, "/g")->Nlink);
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/g"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/g").error());
}

TEST_F(FsTest, HardlinkToDirectoryForbidden) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::Perm, Fs.link(Ctx, "/d", "/d2"));
}

TEST_F(FsTest, HardlinkToExistingNameFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/g"));
  EXPECT_EQ(FsError::Exists, Fs.link(Ctx, "/f", "/g"));
}

TEST_F(FsTest, SymlinkResolvesToTarget) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/real", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/real/f"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/real", "/lnk"));
  EXPECT_EQ(Fs.stat(Ctx, "/real/f")->Ino, Fs.stat(Ctx, "/lnk/f")->Ino);
  // stat follows; lstat does not.
  EXPECT_EQ(FileType::Directory, Fs.stat(Ctx, "/lnk")->Type);
  EXPECT_EQ(FileType::Symlink, Fs.lstat(Ctx, "/lnk")->Type);
  EXPECT_EQ("/real", *Fs.readlink(Ctx, "/lnk"));
}

TEST_F(FsTest, RelativeSymlink) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/target"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "target", "/a/lnk"));
  EXPECT_EQ(Fs.stat(Ctx, "/a/target")->Ino, Fs.stat(Ctx, "/a/lnk")->Ino);
}

TEST_F(FsTest, DanglingSymlinkStatFails) {
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/nowhere", "/lnk"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/lnk").error());
  EXPECT_TRUE(Fs.lstat(Ctx, "/lnk").ok());
}

TEST_F(FsTest, SymlinkLoopDetected) {
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/b", "/a"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a", "/b"));
  EXPECT_EQ(FsError::Loop, Fs.stat(Ctx, "/a").error());
}

TEST_F(FsTest, ReadlinkOnNonSymlinkFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Invalid, Fs.readlink(Ctx, "/f").error());
}

//===----------------------------------------------------------------------===//
// Rename
//===----------------------------------------------------------------------===//

TEST_F(FsTest, RenameMovesFile) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  InodeNum Ino = Fs.stat(Ctx, "/f")->Ino;
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/f", "/d/g"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/f").error());
  EXPECT_EQ(Ino, Fs.stat(Ctx, "/d/g")->Ino);
}

TEST_F(FsTest, RenameReplacesExistingFileAtomically) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/b"));
  InodeNum AIno = Fs.stat(Ctx, "/a")->Ino;
  uint64_t Before = Fs.numInodes();
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/a", "/b"));
  EXPECT_EQ(AIno, Fs.stat(Ctx, "/b")->Ino);
  EXPECT_EQ(Before - 1, Fs.numInodes()); // The victim inode was reaped.
}

TEST_F(FsTest, RenameDirIntoOwnSubtreeFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  EXPECT_EQ(FsError::Invalid, Fs.rename(Ctx, "/a", "/a/b/c"));
}

TEST_F(FsTest, RenameDirOntoNonEmptyDirFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/b", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/b/f"));
  EXPECT_EQ(FsError::NotEmpty, Fs.rename(Ctx, "/a", "/b"));
}

TEST_F(FsTest, RenameDirOntoEmptyDirSucceeds) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/f"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/b", 0755));
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/a", "/b"));
  EXPECT_TRUE(Fs.stat(Ctx, "/b/f").ok());
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a").error());
}

TEST_F(FsTest, RenameFileOntoDirFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::IsDir, Fs.rename(Ctx, "/f", "/d"));
  EXPECT_EQ(FsError::NotDir, Fs.rename(Ctx, "/d", "/f"));
}

TEST_F(FsTest, RenameOntoSelfIsNoOp) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Ok, Fs.rename(Ctx, "/f", "/f"));
  EXPECT_TRUE(Fs.stat(Ctx, "/f").ok());
}

TEST_F(FsTest, RenameDirAcrossParentsFixesDotDotAndNlink) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/b", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/sub", 0755));
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/a/sub", "/b/sub"));
  EXPECT_EQ(2u, Fs.stat(Ctx, "/a")->Nlink);
  EXPECT_EQ(3u, Fs.stat(Ctx, "/b")->Nlink);
  EXPECT_EQ(Fs.stat(Ctx, "/b")->Ino, Fs.stat(Ctx, "/b/sub/..")->Ino);
}

//===----------------------------------------------------------------------===//
// Permissions
//===----------------------------------------------------------------------===//

TEST_F(FsTest, PathWalkRequiresExecuteOnEveryDirectory) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/locked", 0700));
  ASSERT_EQ(FsError::Ok, touch(Fs, Root, "/locked/f"));
  // A non-root user cannot pass through a 0700 directory owned by root
  // (\S 2.3.1: x-permission needed on the whole path).
  EXPECT_EQ(FsError::Access, Fs.stat(Ctx, "/locked/f").error());
  EXPECT_TRUE(Fs.stat(Root, "/locked/f").ok());
}

TEST_F(FsTest, CreateRequiresWriteOnParent) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/ro", 0755));
  EXPECT_EQ(FsError::Access, touch(Fs, Ctx, "/ro/f"));
  EXPECT_EQ(FsError::Access, Fs.mkdir(Ctx, "/ro/d", 0755));
  EXPECT_EQ(FsError::Access, Fs.symlink(Ctx, "/x", "/ro/l"));
}

TEST_F(FsTest, UnlinkRequiresWriteOnParent) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/ro", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Root, "/ro/f"));
  EXPECT_EQ(FsError::Access, Fs.unlink(Ctx, "/ro/f"));
}

TEST_F(FsTest, OpenChecksModeBits) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/pub", 0777));
  Result<FileHandle> Fh =
      Fs.open(Root, "/pub/secret", OpenWrite | OpenCreate, 0600);
  ASSERT_TRUE(Fh.ok());
  EXPECT_EQ(FsError::Ok, Fs.close(Root, *Fh));
  EXPECT_EQ(FsError::Access, Fs.open(Ctx, "/pub/secret", OpenRead).error());
}

TEST_F(FsTest, ChmodOnlyByOwnerOrRoot) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, touch(Fs, Root, "/f"));
  EXPECT_EQ(FsError::Perm, Fs.chmod(Ctx, "/f", 0777));
  EXPECT_EQ(FsError::Ok, Fs.chmod(Root, "/f", 0777));
  EXPECT_EQ(0777u, Fs.stat(Ctx, "/f")->Mode);
}

TEST_F(FsTest, ChownOnlyByRoot) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Perm, Fs.chown(Ctx, "/f", 42, 42));
  OpCtx Root = rootCtx();
  EXPECT_EQ(FsError::Ok, Fs.chown(Root, "/f", 42, 42));
  EXPECT_EQ(42u, Fs.stat(Ctx, "/f")->Uid);
}

TEST_F(FsTest, GroupPermissionsApply) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/g", 0770));
  ASSERT_EQ(FsError::Ok, Fs.chown(Root, "/g", 0, 1000));
  // Ctx has gid 1000 => group class grants rwx.
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/g/f"));
  OpCtx Other = userCtx();
  Other.Creds.Uid = 2000;
  Other.Creds.Gid = 2000;
  EXPECT_EQ(FsError::Access, Fs.stat(Other, "/g/f").error());
}

//===----------------------------------------------------------------------===//
// Timestamps
//===----------------------------------------------------------------------===//

TEST_F(FsTest, TimestampsMaintained) {
  OpCtx T1 = userCtx(seconds(1.0));
  ASSERT_EQ(FsError::Ok, touch(Fs, T1, "/f"));
  Result<Attr> A = Fs.stat(T1, "/f");
  EXPECT_EQ(seconds(1.0), A->Mtime);
  EXPECT_EQ(seconds(1.0), A->Ctime);

  OpCtx T2 = userCtx(seconds(5.0));
  Result<FileHandle> Fh = Fs.open(T2, "/f", OpenWrite);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(T2, *Fh, 10).ok());
  EXPECT_EQ(FsError::Ok, Fs.close(T2, *Fh));
  EXPECT_EQ(seconds(5.0), Fs.stat(T2, "/f")->Mtime);

  OpCtx T3 = userCtx(seconds(9.0));
  EXPECT_EQ(FsError::Ok, Fs.utimes(T3, "/f", seconds(2.0), seconds(3.0)));
  Result<Attr> B = Fs.stat(T3, "/f");
  EXPECT_EQ(seconds(2.0), B->Atime);
  EXPECT_EQ(seconds(3.0), B->Mtime);
  EXPECT_EQ(seconds(9.0), B->Ctime);
}

TEST_F(FsTest, MkdirUpdatesParentMtime) {
  OpCtx T1 = userCtx(seconds(1.0));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(T1, "/d", 0755));
  OpCtx T2 = userCtx(seconds(7.0));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(T2, "/d/sub", 0755));
  EXPECT_EQ(seconds(7.0), Fs.stat(T2, "/d")->Mtime);
}

//===----------------------------------------------------------------------===//
// Extended attributes
//===----------------------------------------------------------------------===//

TEST_F(FsTest, XattrRoundTrip) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.setxattr(Ctx, "/f", "user.color", "blue"));
  ASSERT_EQ(FsError::Ok, Fs.setxattr(Ctx, "/f", "user.size", "XL"));
  EXPECT_EQ("blue", *Fs.getxattr(Ctx, "/f", "user.color"));
  Result<std::vector<std::string>> Keys = Fs.listxattr(Ctx, "/f");
  ASSERT_TRUE(Keys.ok());
  EXPECT_EQ(2u, Keys->size());
  ASSERT_EQ(FsError::Ok, Fs.removexattr(Ctx, "/f", "user.color"));
  EXPECT_EQ(FsError::NoAttr, Fs.getxattr(Ctx, "/f", "user.color").error());
  EXPECT_EQ(FsError::NoAttr, Fs.removexattr(Ctx, "/f", "user.color"));
}

//===----------------------------------------------------------------------===//
// Capacity limits
//===----------------------------------------------------------------------===//

TEST(FsLimits, InodeLimitYieldsNoSpace) {
  FsConfig C;
  C.MaxInodes = 3; // root + 2 more
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/a"));
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/b"));
  EXPECT_EQ(FsError::NoSpace, touch(Fs, Ctx, "/c"));
  // Deleting frees the inode for reuse (\S 2.4.2 flexible inode counts).
  EXPECT_EQ(FsError::Ok, Fs.unlink(Ctx, "/a"));
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/c"));
}

TEST(FsLimits, BlockLimitYieldsNoSpace) {
  FsConfig C;
  C.MaxBlocks = 2;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  EXPECT_TRUE(Fs.write(Ctx, *Fh, 8192).ok());
  EXPECT_EQ(FsError::NoSpace, Fs.write(Ctx, *Fh, 8192).error());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

//===----------------------------------------------------------------------===//
// Inode table (indexed by inode number; numbers are never reused)
//===----------------------------------------------------------------------===//

TEST(FsInodes, CountTracksCreateUnlinkAndReapAfterLastClose) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  EXPECT_EQ(1u, Fs.numInodes()); // root
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/a"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/d/a", "/s"));
  EXPECT_EQ(4u, Fs.numInodes());
  ASSERT_EQ(FsError::Ok, Fs.link(Ctx, "/d/a", "/h"));
  EXPECT_EQ(4u, Fs.numInodes()); // a hard link is no new inode
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/h"));
  EXPECT_EQ(4u, Fs.numInodes());

  // An unlinked open file lingers until its last handle closes.
  Result<FileHandle> Fh1 = Fs.open(Ctx, "/d/a", OpenRead);
  Result<FileHandle> Fh2 = Fs.open(Ctx, "/d/a", OpenRead);
  ASSERT_TRUE(Fh1.ok() && Fh2.ok());
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/d/a"));
  EXPECT_EQ(4u, Fs.numInodes());
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh1));
  EXPECT_EQ(4u, Fs.numInodes());
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh2));
  EXPECT_EQ(3u, Fs.numInodes());

  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/s"));
  ASSERT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/d"));
  EXPECT_EQ(1u, Fs.numInodes());
  EXPECT_TRUE(Fs.fsck().clean());
}

TEST(FsInodes, NumbersOnlyGrow) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a"));
  InodeNum A = Fs.stat(Ctx, "/a")->Ino;
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/a"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a"));
  EXPECT_GT(Fs.stat(Ctx, "/a")->Ino, A);
}

TEST(FsInodes, LimitBoundaryAppliesToEveryCreatingOp) {
  FsConfig C;
  C.MaxInodes = 4; // root + 3 more
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/f"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/d/f", "/s"));
  EXPECT_EQ(4u, Fs.numInodes());
  EXPECT_EQ(FsError::NoSpace, touch(Fs, Ctx, "/g"));
  EXPECT_EQ(FsError::NoSpace, Fs.mkdir(Ctx, "/e", 0755));
  EXPECT_EQ(FsError::NoSpace, Fs.symlink(Ctx, "/d/f", "/t"));
  // A hard link needs no inode, so it still succeeds at the limit.
  EXPECT_EQ(FsError::Ok, Fs.link(Ctx, "/d/f", "/h"));
  EXPECT_EQ(4u, Fs.numInodes());
  // A refused create leaves no entry behind.
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/g").error());
  EXPECT_EQ(FsError::NoEnt, Fs.lstat(Ctx, "/t").error());

  // Freeing one inode makes room for exactly one more.
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/s"));
  EXPECT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/e", 0755));
  EXPECT_EQ(FsError::NoSpace, touch(Fs, Ctx, "/g"));
  EXPECT_TRUE(Fs.fsck().clean());
}

} // namespace

namespace dmb {
/// Frees an inode behind the directory tree's back.
struct LocalFileSystemTestPeer {
  static void dropInode(LocalFileSystem &Fs, InodeNum Ino) {
    Fs.destroyInode(*Fs.getInode(Ino));
  }
};
} // namespace dmb

namespace {

TEST(FsInodes, FsckReportsPerInodeErrorsInInodeNumberOrder) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));  // inode 2
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/c"));     // 3
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/b"));     // 4
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/e"));       // 5
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/x"));       // 6, then a hole
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/x"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/a"));     // 7
  ASSERT_EQ(2u, Fs.stat(Ctx, "/d")->Ino);
  ASSERT_EQ(7u, Fs.stat(Ctx, "/d/a")->Ino);

  // Dropping /d's inode orphans its children; their names sort in the
  // reverse of their inode numbers.
  LocalFileSystemTestPeer::dropInode(Fs, 2);
  LocalFileSystem::FsckReport R = Fs.fsck();
  EXPECT_EQ(5u, R.InodesChecked); // 1, 3, 4, 5, 7
  EXPECT_EQ(1u, R.DirectoriesChecked);
  std::vector<std::string> Expected = {
      "entry 'd' in dir 1 references missing inode 2",
      "dir inode 1 nlink=3, expected 2",
      "orphan inode 3 (nlink=1, open=0)",
      "orphan inode 4 (nlink=1, open=0)",
      "orphan inode 7 (nlink=1, open=0)",
  };
  EXPECT_EQ(Expected, R.Errors);
}

//===----------------------------------------------------------------------===//
// Inline data (WAFL 64-byte files, \S 4.3.4)
//===----------------------------------------------------------------------===//

TEST(FsInline, SmallFilesAllocateNoBlocks) {
  FsConfig C;
  C.InlineDataMax = 64;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 64).ok());
  EXPECT_EQ(0u, Fs.fstat(Ctx, *Fh)->Blocks);
  // The 65th byte spills out of the inode into a real block.
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 1).ok());
  EXPECT_EQ(1u, Fs.fstat(Ctx, *Fh)->Blocks);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

//===----------------------------------------------------------------------===//
// Cost accounting and directory indexes
//===----------------------------------------------------------------------===//

TEST(FsCost, LinearDirectoryScansGrowWithSize) {
  FsConfig C;
  C.DirIndex = DirIndexKind::Linear;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f" + std::to_string(I)));

  OpCtx Early = userCtx();
  ASSERT_TRUE(Fs.stat(Early, "/f0").ok());
  OpCtx Late = userCtx();
  ASSERT_TRUE(Fs.stat(Late, "/f99").ok());
  EXPECT_GT(Late.Cost.DirEntriesScanned, Early.Cost.DirEntriesScanned);
}

TEST(FsCost, HashedDirectoryScansStayFlat) {
  FsConfig C;
  C.DirIndex = DirIndexKind::Hashed;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f" + std::to_string(I)));
  OpCtx Probe = userCtx();
  ASSERT_TRUE(Fs.stat(Probe, "/f99").ok());
  EXPECT_LE(Probe.Cost.DirEntriesScanned, 2u);
}

TEST(FsCost, CostModelMonotoneInWork) {
  CostModel M;
  OpCost Small, Large;
  Small.DirEntriesScanned = 1;
  Large.DirEntriesScanned = 100000;
  EXPECT_GT(M.serviceTime(Large), M.serviceTime(Small));
  OpCost Payload;
  Payload.BytesWritten = 100000000;
  EXPECT_GT(M.serviceTime(Payload), M.serviceTime(Small));
}

TEST(FsCost, DirectorySizeIntrospection) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/f" + std::to_string(I)));
  EXPECT_EQ(10u, Fs.directorySize("/d"));
  EXPECT_EQ(0u, Fs.directorySize("/missing"));
}

//===----------------------------------------------------------------------===//
// Directory index property sweep (all kinds behave identically modulo cost)
//===----------------------------------------------------------------------===//

class DirIndexParamTest : public ::testing::TestWithParam<DirIndexKind> {};

TEST_P(DirIndexParamTest, InsertLookupEraseList) {
  auto Index = makeDirectoryIndex(GetParam());
  OpCost Cost;
  for (int I = 0; I < 500; ++I) {
    // Built with += — GCC 12's -Wrestrict misfires on the "f" +
    // to_string temporary chain once it inlines the insert.
    std::string Name = "f";
    Name += std::to_string(I);
    Index->insert(DirEntry{Name, static_cast<InodeNum>(I + 10),
                           FileType::Regular},
                  Cost);
  }
  EXPECT_EQ(500u, Index->size());
  for (int I = 0; I < 500; I += 7) {
    std::string Name = "f";
    Name += std::to_string(I);
    const DirEntry *E = Index->lookup(Name, Cost);
    ASSERT_NE(nullptr, E);
    EXPECT_EQ(static_cast<InodeNum>(I + 10), E->Ino);
  }
  EXPECT_EQ(nullptr, Index->lookup("missing", Cost));
  EXPECT_TRUE(Index->erase("f0", Cost));
  EXPECT_FALSE(Index->erase("f0", Cost));
  EXPECT_EQ(499u, Index->size());
  std::vector<DirEntry> All;
  Index->list(All, Cost);
  EXPECT_EQ(499u, All.size());
}

TEST_P(DirIndexParamTest, FileSystemBehaviourIdenticalAcrossIndexes) {
  FsConfig C;
  C.DirIndex = GetParam();
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  for (int I = 0; I < 50; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/f" + std::to_string(I)));
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(50u, Fs.directorySize("/d"));
  Result<std::vector<DirEntry>> Entries = Fs.readdir(Ctx, "/d");
  ASSERT_TRUE(Entries.ok());
  EXPECT_EQ(52u, Entries->size()); // 50 files + "." + "..".
  for (int I = 0; I < 50; ++I)
    ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/d/f" + std::to_string(I)));
  EXPECT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/d"));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DirIndexParamTest,
                         ::testing::Values(DirIndexKind::Linear,
                                           DirIndexKind::Hashed,
                                           DirIndexKind::BTree),
                         [](const auto &Info) {
                           return dirIndexKindName(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Randomized invariant property test
//===----------------------------------------------------------------------===//

TEST(FsProperty, RandomOperationsPreserveInvariants) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  Rng R(20090119); // Thesis defence date as seed.
  std::vector<std::string> Dirs = {"/"};
  std::vector<std::string> Files;
  uint64_t LiveFiles = 0, LiveDirs = 1;

  for (int Step = 0; Step < 5000; ++Step) {
    switch (R.below(5)) {
    case 0: { // mkdir
      std::string Parent = Dirs[R.below(Dirs.size())];
      std::string Path = (Parent == "/" ? "" : Parent) + "/d" +
                         std::to_string(Step);
      if (succeeded(Fs.mkdir(Ctx, Path, 0755))) {
        Dirs.push_back(Path);
        ++LiveDirs;
      }
      break;
    }
    case 1: { // create file
      std::string Parent = Dirs[R.below(Dirs.size())];
      std::string Path = (Parent == "/" ? "" : Parent) + "/f" +
                         std::to_string(Step);
      Result<FileHandle> Fh = Fs.open(Ctx, Path, OpenWrite | OpenCreate);
      if (Fh.ok()) {
        EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
        Files.push_back(Path);
        ++LiveFiles;
      }
      break;
    }
    case 2: { // unlink a random file
      if (Files.empty())
        break;
      size_t I = R.below(Files.size());
      if (succeeded(Fs.unlink(Ctx, Files[I]))) {
        Files.erase(Files.begin() + static_cast<ptrdiff_t>(I));
        --LiveFiles;
      }
      break;
    }
    case 3: { // stat something
      if (!Files.empty()) {
        EXPECT_TRUE(Fs.stat(Ctx, Files[R.below(Files.size())]).ok());
      }
      break;
    }
    case 4: { // rename a file into another directory
      if (Files.empty())
        break;
      size_t I = R.below(Files.size());
      std::string Parent = Dirs[R.below(Dirs.size())];
      std::string To = (Parent == "/" ? "" : Parent) + "/r" +
                       std::to_string(Step);
      if (succeeded(Fs.rename(Ctx, Files[I], To)))
        Files[I] = To;
      break;
    }
    }
  }
  // Invariant: inode count equals root + live dirs (-1 for root already
  // counted) + live files.
  EXPECT_EQ(LiveDirs + LiveFiles, Fs.numInodes());
  EXPECT_EQ(0u, Fs.openHandleCount());
  // Every tracked file is reachable.
  for (const std::string &F : Files)
    EXPECT_TRUE(Fs.stat(Ctx, F).ok()) << F;
}

} // namespace
