//===- dfs/AttrCache.h - Client attribute/dentry cache ----------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A time-bounded attribute cache keyed by path — the client-side cache
/// whose behaviour the StatFiles / StatNocacheFiles / StatMultinodeFiles
/// plugins probe (thesis \S 3.4.3). A TTL of zero disables expiry
/// (callback/invalidation-based systems like AFS).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_ATTRCACHE_H
#define DMETABENCH_DFS_ATTRCACHE_H

#include "dfs/Message.h"
#include "fs/Types.h"
#include "support/FlatIndex.h"
#include <optional>
#include <string>
#include <string_view>

namespace dmb {

/// The directory containing \p Path ("/a/b" -> "/a", "/a" -> "/", "/" ->
/// ""). Paths in the simulator are absolute and normalised, so a plain
/// rightmost-slash split suffices.
inline std::string_view parentPath(std::string_view Path) {
  size_t Slash = Path.rfind('/');
  if (Slash == std::string_view::npos || Path == "/")
    return {};
  return Slash == 0 ? std::string_view("/") : Path.substr(0, Slash);
}

/// Path -> Attr cache with per-entry expiry.
class AttrCache {
public:
  /// \p Ttl of 0 means entries never expire (invalidation-only caches).
  explicit AttrCache(SimDuration Ttl) : Ttl(Ttl) {}

  /// Stores attributes observed at \p Now.
  void insert(const std::string &Path, const Attr &A, SimTime Now);

  /// Returns fresh attributes or nullopt on miss/expiry.
  std::optional<Attr> lookup(std::string_view Path, SimTime Now);

  /// Drops one entry (mutation invalidation / callback break).
  void invalidate(std::string_view Path);

  /// Drops every entry a queued-but-unflushed (or just-applied) mutation
  /// makes stale: the primary path, the secondary path (rename target,
  /// link name), and — for namespace-shape changes (create, unlink,
  /// rename, link, mkdir, rmdir) — the parent directory entries, whose
  /// size/mtime the mutation changes. A client queueing \p Req in a
  /// write-behind pipeline must call this at enqueue time, not at reply
  /// time: between the local ack and the flush, a cached stat would
  /// otherwise observe pre-mutation attributes the application already
  /// overwrote.
  void invalidateForMutation(const MetaRequest &Req);

  /// Drops everything (drop_caches, remount).
  void clear();

  size_t size() const { return Entries.size(); }
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Entry {
    std::string Path;
    Attr A;
    SimTime InsertedAt = 0;
  };
  struct PathOf {
    std::string_view operator()(const Entry &E) const { return E.Path; }
  };

  SimDuration Ttl;
  /// Lookups and invalidations take views (a parent directory is a prefix
  /// of the request path) without building a key.
  FlatIndex<Entry, PathOf> Entries;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace dmb

#endif // DMETABENCH_DFS_ATTRCACHE_H
