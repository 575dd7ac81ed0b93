//===- dfs/Journal.h - Metadata write-ahead journal ---------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metadata logging as in thesis \S 2.7.1: a write-ahead change log for
/// namespace mutations. With asynchronous logging "some metadata
/// operations might be lost, but the file system can still be made
/// consistent" — replaying the committed prefix of the journal into a
/// fresh store reconstructs a consistent namespace after a crash.
///
/// Only logical namespace operations are journaled; file *data* beyond
/// the existence/size recorded by creates is not (data durability needs
/// fsync, \S 2.6.4).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_JOURNAL_H
#define DMETABENCH_DFS_JOURNAL_H

#include "dfs/Message.h"
#include "fs/LocalFileSystem.h"
#include "support/Interner.h"
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// Redo log of namespace mutations, per server (records carry their
/// volume). Volume names are interned into dense journal-local ids on
/// first append: a record carries the id, and the per-volume commit
/// frontier is a vector indexed by it. Records live in chunks, so
/// appending never moves a record and never doubles the peak footprint
/// the way a regrowing vector does.
///
/// The log is the largest structure of a long sharded run (every create
/// and every split migration appends), so a record keeps only what replay
/// re-executes: the fields of a path-based mutation, with the rarely set
/// second path and xattr value out of line. Sequence numbers are record
/// positions plus one.
class MetadataJournal {
public:
  MetadataJournal() = default;
  MetadataJournal(const MetadataJournal &) = delete;
  MetadataJournal &operator=(const MetadataJournal &) = delete;
  ~MetadataJournal();

  /// True when \p Req can be re-executed from the log (path-based
  /// namespace mutations; handle-based data ops cannot).
  static bool isJournalable(const MetaRequest &Req);

  /// Appends a record; returns its sequence number, or nullopt when the
  /// operation is not journalable.
  std::optional<uint64_t> append(std::string_view Volume,
                                 const MetaRequest &Req, SimTime Now);

  /// Marks \p Seq's stable write as finished. A record only *commits*
  /// (becomes replayable, visible to isCommitted(), eligible for the
  /// onCommit hook) once every earlier non-discarded record of the same
  /// volume has committed too: a redo log is only usable up to its first
  /// hole, so the committed set must stay a per-volume log prefix even
  /// when a multi-threaded server finishes stable writes out of append
  /// order. Out-of-order persists are held and released in log order.
  void commit(uint64_t Seq);

  /// True when \p Seq exists and has been committed (false for pending,
  /// held-out-of-order, or discarded records).
  bool isCommitted(uint64_t Seq) const {
    return Seq != 0 && Seq <= Count && record(Seq - 1).Committed;
  }

  /// True when \p Seq exists and was discarded by a crash.
  bool isDiscarded(uint64_t Seq) const {
    return Seq != 0 && Seq <= Count && record(Seq - 1).Discarded;
  }

  /// Registers the single commit observer: fires once per record, in
  /// per-volume log order, when the record commits. Servers park replies
  /// or dirty-op accounting on this to ack in prefix order.
  void onCommit(std::function<void(uint64_t)> Hook) {
    CommitHook = std::move(Hook);
  }

  /// Marks everything not lost to a crash as durable (synchronous-journal
  /// mode). Discarded records stay discarded: resurrecting them would
  /// replay operations whose effects a crash already destroyed.
  void commitAll();

  /// Re-executes the committed records for \p Volume into \p Fs in log
  /// order. Replay is idempotent per record; errors are ignored (redo
  /// into a fresh store cannot conflict). A volume never appended to
  /// replays nothing.
  void replay(std::string_view Volume, LocalFileSystem &Fs) const;

  /// Invalidates the uncommitted records of \p Volume (what a crash
  /// destroys); returns how many were lost.
  size_t discardUncommitted(std::string_view Volume);

  size_t size() const { return Count; }
  size_t committedCount() const;
  /// Records for \p Volume that were appended but not committed — what a
  /// crash loses under asynchronous logging. Persisted records held
  /// behind an unpersisted predecessor count too: on disk the log has a
  /// hole before them, so a crash cannot use them.
  size_t uncommittedCount(std::string_view Volume) const;

private:
  /// One logged mutation.
  struct Record {
    uint32_t Volume = 0; ///< journal-local volume id
    MetaOp Op = MetaOp::Stat;
    Cred Creds;
    uint32_t Flags = 0;
    uint32_t Mode = 0;
    uint32_t Uid = 0;
    uint32_t Gid = 0;
    /// Index + 1 into Extras of Path2 and Value; 0 = both empty.
    uint32_t Extra = 0;
    bool Persisted = false; ///< stable write finished (may still be held)
    bool Committed = false;
    bool Discarded = false; ///< lost in a crash; can no longer commit
    SimTime Atime = 0;
    SimTime Mtime = 0;
    SimTime At = 0; ///< execution time, replayed as the op's clock
    std::string Path;
  };

  /// Record storage: raw chunks whose records are constructed as they are
  /// appended. Chunk sizes double from FirstChunk records up to
  /// ChunkRecords and stay there, so a small journal stays small and a
  /// fresh chunk costs no page touches beyond the records in use.
  static constexpr size_t FirstChunk = 4;
  static constexpr size_t ChunkRecords = 256;
  /// Chunks below ChunkRecords, and the records they hold.
  static constexpr size_t RampChunks = 6;
  static constexpr size_t RampRecords = ChunkRecords - FirstChunk;
  static_assert(FirstChunk << RampChunks == ChunkRecords);

  static size_t chunkSize(size_t Chunk) {
    return Chunk < RampChunks ? FirstChunk << Chunk : ChunkRecords;
  }
  Record &record(size_t I) {
    if (I < RampRecords) {
      size_t K = std::bit_width(I / FirstChunk + 1) - 1;
      return Chunks[K][I - FirstChunk * ((size_t(1) << K) - 1)];
    }
    I -= RampRecords;
    return Chunks[RampChunks + I / ChunkRecords][I % ChunkRecords];
  }
  const Record &record(size_t I) const {
    return const_cast<MetadataJournal *>(this)->record(I);
  }

  /// Commits the longest committable prefix of \p Volume starting at the
  /// volume's frontier, firing CommitHook per newly committed record.
  void advanceFrontier(uint32_t Volume);

  /// The request \p R logged, as replay re-executes it.
  MetaRequest request(const Record &R) const;

  std::vector<Record *> Chunks;
  size_t Count = 0;    ///< records appended
  size_t Capacity = 0; ///< records the chunks hold
  /// Path2 and Value of the records that set either (renames, links,
  /// symlinks, setxattrs).
  std::vector<std::pair<std::string, std::string>> Extras;
  Interner Volumes; ///< volume name -> journal-local id
  /// Per-volume scan position, by volume id: index of the first record
  /// that may still commit; every earlier record of the volume is
  /// committed or discarded.
  std::vector<size_t> Frontier;
  std::function<void(uint64_t)> CommitHook;
};

} // namespace dmb

#endif // DMETABENCH_DFS_JOURNAL_H
