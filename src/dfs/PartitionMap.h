//===- dfs/PartitionMap.h - GIGA+-style directory partitioning --*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partition map of the sharded metadata service (ROADMAP item 1,
/// GIGA+/IndexFS): each directory starts as a single partition and splits
/// incrementally — partition p at split depth d hands the entries whose
/// name-hash has bit d set to a new partition p + 2^d. Which partitions
/// exist is a 64-bit presence bitmap, so a directory spreads over at most
/// 64 partitions and a client can cache the whole map of a directory in
/// one word. Routing needs only the bitmap: start from the low 6 bits of
/// the hash and clear the most significant bit until the index is present
/// — the classic GIGA+ lookup.
///
/// Physically, partition p of a directory lives as the flat server-side
/// directory "/giga/<token>.<p>" on the owning shard, where <token> is the
/// 64-bit FNV-1a hash of the directory's *virtual* path. Clients translate
/// virtual paths to these physical entry paths before sending; servers
/// never see virtual paths.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_PARTITIONMAP_H
#define DMETABENCH_DFS_PARTITIONMAP_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dmb {

/// 64-bit FNV-1a, the name/path hash of the partitioned namespace. Chosen
/// for bit-stable determinism across platforms, not speed.
uint64_t fnv1a64(std::string_view S);

/// Authoritative per-directory partitioning state.
struct GigaDir {
  std::string VPath;   ///< virtual path ("/a/b"); tokens are one-way
  uint64_t Token = 0;  ///< fnv1a64(VPath)
  uint64_t Bitmap = 1; ///< bit i set => partition i exists; bit 0 always
  /// Split depth per partition: partition p covers hashes with
  /// h mod 2^Depth[p] == p.
  std::array<uint8_t, 64> Depth{};
  /// Live entries per partition, maintained by the mutation watchers and
  /// adjusted directly during migrations. Drives split decisions only —
  /// emptiness checks read the real partition directories.
  std::array<uint32_t, 64> Count{};
};

/// The authoritative map: directory token -> GigaDir, plus a global epoch
/// that bumps on every structural change (register, unregister, split).
/// Replies carry the epoch so stale clients know to refresh.
class PartitionMap {
public:
  static constexpr unsigned MaxRadix = 6;       ///< 2^6 = 64 partitions max
  static constexpr unsigned MaxPartitions = 64; ///< presence bitmap width

  /// GIGA+ lookup: the partition of \p Hash under \p Bitmap. Starts from
  /// the low MaxRadix bits and drops the most significant bit until the
  /// index is present; bit 0 is always set, so this terminates.
  static unsigned partitionOf(uint64_t Hash, uint64_t Bitmap);

  /// The name hash used for entry placement.
  static uint64_t hashName(std::string_view Leaf) { return fnv1a64(Leaf); }

  /// Physical path of partition \p Partition of the directory \p Token:
  /// "/giga/<token as 16 hex digits>.<partition>".
  static std::string partitionDirName(uint64_t Token, unsigned Partition);
  /// Appends partitionDirName(\p Token, \p Partition) to \p Out, without
  /// a temporary.
  static void appendPartitionDirName(std::string &Out, uint64_t Token,
                                     unsigned Partition);

  /// A parsed physical path. Leaf is empty when the path names the
  /// partition directory itself; it views the parsed string.
  struct ParsedPath {
    uint64_t Token = 0;
    unsigned Partition = 0;
    std::string_view Leaf;
  };
  /// Parses "/giga/<hex16>.<p>[/<leaf>]". Returns false for anything else
  /// (such paths bypass the partition machinery untranslated).
  static bool parse(std::string_view PhysPath, ParsedPath &Out);

  /// True when the entry hashed \p Hash leaves a partition of depth
  /// \p OldDepth for the new sibling during a split.
  static bool movesOnSplit(uint64_t Hash, unsigned OldDepth) {
    return (Hash >> OldDepth) & 1;
  }

  /// The child index partition \p P of \p D would split into, or
  /// MaxPartitions when P cannot split further (radix exhausted or the
  /// child index would exceed \p MaxParts).
  static unsigned splitChild(const GigaDir &D, unsigned P, unsigned MaxParts);

  /// \name Authoritative state
  /// @{

  /// Registers \p VPath (idempotent). A new registration bumps the epoch.
  GigaDir &registerDir(const std::string &VPath);
  /// Forgets a directory (idempotent); bumps the epoch when present.
  void unregisterDir(uint64_t Token);
  /// Looks up a directory's state; nullptr when unknown.
  GigaDir *dir(uint64_t Token);
  const GigaDir *dir(uint64_t Token) const;
  /// Records a split of \p P into \p Child and bumps the epoch.
  void commitSplit(GigaDir &D, unsigned P, unsigned Child);

  uint64_t epoch() const { return Epoch; }
  size_t dirCount() const { return Dirs.size(); }
  /// @}

private:
  std::unordered_map<uint64_t, GigaDir> Dirs;
  uint64_t Epoch = 1;
};

} // namespace dmb

#endif // DMETABENCH_DFS_PARTITIONMAP_H
