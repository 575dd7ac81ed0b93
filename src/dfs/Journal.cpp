//===- dfs/Journal.cpp -----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/Journal.h"
#include "dfs/FileServer.h"
#include "support/Assert.h"
#include <new>

using namespace dmb;

bool MetadataJournal::isJournalable(const MetaRequest &Req) {
  switch (Req.Op) {
  case MetaOp::Mkdir:
  case MetaOp::Rmdir:
  case MetaOp::Unlink:
  case MetaOp::Remove:
  case MetaOp::Rename:
  case MetaOp::Link:
  case MetaOp::Symlink:
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
    return true;
  case MetaOp::Open:
    // Creating opens are replayed as create+close.
    return (Req.Flags & OpenCreate) != 0;
  default:
    return false;
  }
}

std::optional<uint64_t> MetadataJournal::append(std::string_view Volume,
                                                const MetaRequest &Req,
                                                SimTime Now) {
  if (!isJournalable(Req))
    return std::nullopt;
  uint32_t Vol = Volumes.intern(Volume);
  if (Vol >= Frontier.size())
    Frontier.resize(Vol + 1, 0);
  if (Count == Capacity) {
    size_t N = chunkSize(Chunks.size());
    Chunks.push_back(static_cast<Record *>(::operator new(N * sizeof(Record))));
    Capacity += N;
  }
  Record *R = ::new (&record(Count)) Record;
  R->Volume = Vol;
  R->Op = Req.Op;
  R->Creds = Req.Creds;
  R->Flags = Req.Flags;
  R->Mode = Req.Mode;
  R->Uid = Req.Uid;
  R->Gid = Req.Gid;
  R->Atime = Req.Atime;
  R->Mtime = Req.Mtime;
  R->At = Now;
  R->Path = Req.Path;
  if (!Req.Path2.empty() || !Req.Value.empty()) {
    Extras.emplace_back(Req.Path2, Req.Value);
    R->Extra = static_cast<uint32_t>(Extras.size());
  }
  return ++Count;
}

MetaRequest MetadataJournal::request(const Record &R) const {
  MetaRequest Req;
  Req.Op = R.Op;
  Req.Creds = R.Creds;
  Req.Flags = R.Flags;
  Req.Mode = R.Mode;
  Req.Uid = R.Uid;
  Req.Gid = R.Gid;
  Req.Atime = R.Atime;
  Req.Mtime = R.Mtime;
  Req.Path = R.Path;
  if (R.Extra) {
    Req.Path2 = Extras[R.Extra - 1].first;
    Req.Value = Extras[R.Extra - 1].second;
  }
  return Req;
}

MetadataJournal::~MetadataJournal() {
  for (size_t I = 0; I < Count; ++I)
    record(I).~Record();
  for (Record *Chunk : Chunks)
    ::operator delete(Chunk);
}

void MetadataJournal::commit(uint64_t Seq) {
  // Sequence numbers are dense and 1-based.
  if (Seq == 0 || Seq > Count)
    return;
  Record &R = record(Seq - 1);
  if (R.Discarded || R.Persisted)
    return;
  R.Persisted = true;
  advanceFrontier(R.Volume);
}

void MetadataJournal::advanceFrontier(uint32_t Volume) {
  // Re-read the frontier slot on every step: the hook may append records,
  // including the first record of a new volume, which grows Frontier.
  while (Frontier[Volume] < Count) {
    Record &R = record(Frontier[Volume]);
    if (R.Volume != Volume || R.Discarded || R.Committed) {
      ++Frontier[Volume];
      continue;
    }
    if (!R.Persisted)
      break; // hole: later persisted records stay held
    R.Committed = true;
    uint64_t Seq = ++Frontier[Volume]; // the record's position + 1
    if (CommitHook)
      CommitHook(Seq);
  }
}

size_t MetadataJournal::discardUncommitted(std::string_view Volume) {
  uint32_t Vol = Volumes.find(Volume);
  if (Vol == Interner::None)
    return 0;
  size_t N = 0;
  for (size_t I = 0; I < Count; ++I) {
    Record &R = record(I);
    if (!R.Committed && !R.Discarded && R.Volume == Vol) {
      R.Discarded = true;
      ++N;
    }
  }
  return N;
}

void MetadataJournal::commitAll() {
  for (size_t I = 0; I < Count; ++I) {
    Record &R = record(I);
    if (!R.Discarded) {
      R.Persisted = true;
      R.Committed = true;
    }
  }
}

size_t MetadataJournal::committedCount() const {
  size_t N = 0;
  for (size_t I = 0; I < Count; ++I)
    if (record(I).Committed)
      ++N;
  return N;
}

size_t MetadataJournal::uncommittedCount(std::string_view Volume) const {
  uint32_t Vol = Volumes.find(Volume);
  if (Vol == Interner::None)
    return 0;
  size_t N = 0;
  for (size_t I = 0; I < Count; ++I) {
    const Record &R = record(I);
    if (!R.Committed && !R.Discarded && R.Volume == Vol)
      ++N;
  }
  return N;
}

void MetadataJournal::replay(std::string_view Volume,
                             LocalFileSystem &Fs) const {
  uint32_t Vol = Volumes.find(Volume);
  if (Vol == Interner::None)
    return;
  for (size_t I = 0; I < Count; ++I) {
    const Record &R = record(I);
    if (!R.Committed || R.Volume != Vol)
      continue;
    OpCost Cost;
    MetaReply Reply = FileServer::execute(Fs, request(R), R.At, Cost);
    // A successful creating open leaves a handle; close it right away.
    if (R.Op == MetaOp::Open && Reply.ok()) {
      OpCtx Ctx;
      Ctx.Creds = R.Creds;
      Ctx.Now = R.At;
      [[maybe_unused]] FsError CloseErr = Fs.close(Ctx, Reply.Fh);
      DMB_ASSERT(CloseErr == FsError::Ok,
                 "journal replay: closing a just-opened handle failed");
    }
  }
}
