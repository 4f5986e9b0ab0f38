// Content-addressed, size-capped artifact store with an in-memory hot layer
// (DESIGN.md §10).
//
// Layering:
//  * Memory: key → shared_ptr<const ScheduleArtifact>, LRU-capped. The hot
//    layer makes repeated lookups within one process (sweep matrices,
//    the batch compile service) pointer-cheap.
//  * Disk (optional): one `<key>.json` per artifact under the store
//    directory. Writes go through fs::atomicWriteFile (unique temp +
//    rename), so concurrent sweep threads — or separate processes sharing
//    one cache directory — never expose partial files; racing writers of
//    one content-addressed key write identical bytes and the last rename
//    wins harmlessly. Disk usage is LRU-capped: inserting past
//    `maxDiskBytes` evicts the least-recently-used keys' files.
//
// `resolve` is the store's one query: lookup-or-schedule, computing a
// missing key only once. Every disk load verifies the artifact: its format
// tag, stats block and schedule fingerprint (ScheduleArtifact::fromJson),
// then every layer of verifySchedule (sched/validate.hpp) against the
// composition and CDFG the caller built the key from, so a file edited and
// re-fingerprinted by hand fails like a torn one. A failing file counts as
// `invalid`, is deleted best-effort, and reads as a miss, so `resolve`
// recomputes it. A memory hit was verified when it was loaded or computed
// and costs one probe.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "artifact/artifact.hpp"

namespace cgra::artifact {

struct StoreOptions {
  /// On-disk directory; empty runs the store memory-only.
  std::string directory;
  /// Disk budget in bytes; exceeding it evicts least-recently-used entries.
  std::size_t maxDiskBytes = 256ull << 20;
  /// Hot-layer capacity in artifacts.
  std::size_t maxMemoryEntries = 1024;
};

/// Hit/miss/evict counters, surfaced through SweepReport and `cgra-tool`.
struct StoreCounters {
  std::uint64_t hits = 0;        ///< lookups served (memory or disk)
  std::uint64_t memoryHits = 0;
  std::uint64_t diskHits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;   ///< disk files evicted by the size cap
  std::uint64_t invalid = 0;     ///< corrupt/stale files discarded on load

  /// Fraction of lookups served from either layer, in [0, 1]; 0 before the
  /// first lookup. The serve-mode live metrics report this as a percentage.
  double hitRate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// The counters' JSON layout (json.hpp), the hit rate as a percentage; the
/// stats document of the compile service carries it as `"store"`.
inline constexpr auto kStoreCountersLayout =
    json::layout<8>([](auto& c, auto& s) {
      c.field("diskHits", s.diskHits);
      c.field("evictions", s.evictions);
      c.expect("hitRatePct", s.hitRate() * 100.0);
      c.field("hits", s.hits);
      c.field("inserts", s.inserts);
      c.field("invalid", s.invalid);
      c.field("memoryHits", s.memoryHits);
      c.field("misses", s.misses);
    });

class ArtifactStore {
public:
  /// Opens (and creates) the store. With a directory, existing `*.json`
  /// entries are indexed (size + mtime recency) so the LRU cap spans
  /// previous runs. Throws cgra::Error when the directory is unusable.
  explicit ArtifactStore(StoreOptions options = {});

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Where `resolve` found its artifact: the hot layer, the directory,
  /// this call's `compute`, or another caller's flight it joined.
  enum class Source : std::uint8_t { Memory, Disk, Computed, Joined };
  struct Resolved {
    std::shared_ptr<const ScheduleArtifact> artifact;
    Source source;
  };

  /// Returns the artifact for `key`, the job key of `graph` on `comp`,
  /// running `compute` on a miss and inserting its result. A schedule
  /// loaded from disk must pass verifySchedule(schedule, &comp, &graph).
  /// Concurrent callers of one missing key join a single flight, so
  /// `compute` runs once. When `compute` (nothing is cached) or the disk
  /// write throws, every caller of the flight throws: the owner its
  /// exception, the others a cgra::Error with its message. Counts exactly
  /// one hit or one miss. Thread-safe.
  Resolved resolve(const std::string& key, const Composition& comp,
                   const Cdfg& graph,
                   const std::function<ScheduleArtifact()>& compute);

  StoreCounters counters() const;
  std::size_t memoryEntries() const;
  std::size_t diskBytes() const;
  const std::string& directory() const { return options_.directory; }

private:
  struct MemoryEntry {
    std::shared_ptr<const ScheduleArtifact> artifact;
    std::list<std::string>::iterator lruIt;  ///< position in memoryLru_
  };
  struct DiskEntry {
    std::size_t bytes = 0;
    std::list<std::string>::iterator lruIt;  ///< position in lru_
  };

  /// resolve's two halves, run by a flight's owner. lookup loads and
  /// verifies `key` from the directory, or returns nullptr on a miss (an
  /// unverifiable file is one); insert publishes one
  /// (memory, then disk when configured), evicting LRU disk entries past
  /// the byte cap. Each releases the flight when it fills the memory tier.
  std::shared_ptr<const ScheduleArtifact> lookup(const std::string& key,
                                                 const Composition& comp,
                                                 const Cdfg& graph);
  void insert(std::shared_ptr<const ScheduleArtifact> artifact);

  std::string pathForKey(const std::string& key) const;
  void touchDiskLocked(const std::string& key);
  void addDiskEntryLocked(const std::string& key, std::size_t bytes);
  void evictPastCapLocked();
  void rememberLocked(const std::string& key,
                      std::shared_ptr<const ScheduleArtifact> artifact);

  StoreOptions options_;
  mutable std::mutex mu_;
  StoreCounters counters_;
  // Hot layer: key → artifact + recency (front of memoryLru_ = most recent).
  std::unordered_map<std::string, MemoryEntry> memory_;
  std::list<std::string> memoryLru_;
  // Disk index: key → size + recency (front of lru_ = most recent).
  std::unordered_map<std::string, DiskEntry> disk_;
  std::list<std::string> lru_;
  std::size_t diskBytes_ = 0;
  // Keys being resolved now; a failure lands as its message (see resolve).
  struct Landing {
    std::shared_ptr<const ScheduleArtifact> artifact;  ///< null on failure
    std::string error;
  };
  std::unordered_map<std::string, std::shared_future<Landing>> flights_;
};

}  // namespace cgra::artifact
