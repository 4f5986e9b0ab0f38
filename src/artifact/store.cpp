#include "artifact/store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "sched/validate.hpp"
#include "support/fs.hpp"

namespace cgra::artifact {

namespace sfs = std::filesystem;

ArtifactStore::ArtifactStore(StoreOptions options)
    : options_(std::move(options)) {
  if (options_.directory.empty()) return;
  fs::ensureWritableDir(options_.directory);

  // Index pre-existing entries, oldest-mtime first, so the LRU order of a
  // reopened store approximates the previous runs' access recency and the
  // byte cap applies across process lifetimes.
  std::vector<std::pair<sfs::file_time_type, sfs::path>> found;
  for (const auto& entry : sfs::directory_iterator(options_.directory)) {
    if (!entry.is_regular_file()) continue;
    const sfs::path& p = entry.path();
    if (p.extension() != ".json") continue;
    std::error_code ec;
    const auto mtime = sfs::last_write_time(p, ec);
    if (!ec) found.emplace_back(mtime, p);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [mtime, p] : found) {
    std::error_code ec;
    const std::size_t bytes = static_cast<std::size_t>(sfs::file_size(p, ec));
    if (ec) continue;
    addDiskEntryLocked(p.stem().string(), bytes);
  }
  evictPastCapLocked();
}

std::string ArtifactStore::pathForKey(const std::string& key) const {
  return (sfs::path(options_.directory) / (key + ".json")).string();
}

void ArtifactStore::rememberLocked(
    const std::string& key, std::shared_ptr<const ScheduleArtifact> artifact) {
  if (options_.maxMemoryEntries == 0) return;
  if (const auto it = memory_.find(key); it != memory_.end()) {
    it->second.artifact = std::move(artifact);
    memoryLru_.splice(memoryLru_.begin(), memoryLru_, it->second.lruIt);
    return;
  }
  memoryLru_.push_front(key);
  memory_.emplace(key, MemoryEntry{std::move(artifact), memoryLru_.begin()});
  while (memory_.size() > options_.maxMemoryEntries) {
    memory_.erase(memoryLru_.back());
    memoryLru_.pop_back();
  }
}

void ArtifactStore::touchDiskLocked(const std::string& key) {
  const auto it = disk_.find(key);
  if (it == disk_.end()) return;
  lru_.erase(it->second.lruIt);
  lru_.push_front(key);
  it->second.lruIt = lru_.begin();
}

void ArtifactStore::addDiskEntryLocked(const std::string& key,
                                       std::size_t bytes) {
  if (const auto it = disk_.find(key); it != disk_.end()) {
    diskBytes_ -= it->second.bytes;
    diskBytes_ += bytes;
    it->second.bytes = bytes;
    touchDiskLocked(key);
    return;
  }
  lru_.push_front(key);
  disk_[key] = DiskEntry{bytes, lru_.begin()};
  diskBytes_ += bytes;
}

void ArtifactStore::evictPastCapLocked() {
  while (diskBytes_ > options_.maxDiskBytes && !lru_.empty()) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    const auto it = disk_.find(victim);
    if (it != disk_.end()) {
      diskBytes_ -= it->second.bytes;
      disk_.erase(it);
    }
    std::error_code ec;
    sfs::remove(pathForKey(victim), ec);
    ++counters_.evictions;
    // The hot layer may legitimately outlive the file, so a memory entry
    // stays: resolve serves it from memory and never re-publishes it; the
    // file comes back only when a later miss recomputes the key.
  }
}

std::shared_ptr<const ScheduleArtifact> ArtifactStore::lookup(
    const std::string& key, const Composition& comp, const Cdfg& graph) {
  // No memory probe: resolve made it when claiming the key's flight, and
  // only that flight fills the memory tier for the key.
  if (options_.directory.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.misses;
    return nullptr;
  }

  // Disk probe outside the lock: parsing a large artifact must not serialize
  // other threads' lookups. The filesystem is the source of truth; the
  // index may lag behind another process, so probe the file directly. The
  // file is opened once: one that is absent, or that another thread evicts
  // before the open, is a miss; once open, its bytes stay readable.
  const std::string path = pathForKey(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.misses;
    return nullptr;
  }
  std::shared_ptr<ScheduleArtifact> loaded;
  try {
    std::ostringstream text;
    text << in.rdbuf();
    loaded = std::make_shared<ScheduleArtifact>(
        ScheduleArtifact::fromJson(json::parse(text.str())));
    if (loaded->key != key)
      throw Error("artifact: key field does not match filename");
    if (loaded->ok)
      requireValidSchedule(loaded->schedule, "artifact", &comp, &graph);
  } catch (const std::exception&) {
    // Corrupt, truncated, stale-format or forged file: discard and miss.
    std::error_code ec;
    sfs::remove(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = disk_.find(key); it != disk_.end()) {
      diskBytes_ -= it->second.bytes;
      lru_.erase(it->second.lruIt);
      disk_.erase(it);
    }
    ++counters_.invalid;
    ++counters_.misses;
    return nullptr;
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.hits;
  ++counters_.diskHits;
  std::error_code ec;
  const std::size_t bytes = static_cast<std::size_t>(
      sfs::file_size(path, ec));
  if (!ec) addDiskEntryLocked(key, bytes);
  rememberLocked(key, loaded);
  flights_.erase(key);  // published: later callers hit the memory tier
  return loaded;
}

ArtifactStore::Resolved ArtifactStore::resolve(
    const std::string& key, const Composition& comp, const Cdfg& graph,
    const std::function<ScheduleArtifact()>& compute) {
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto hit = memory_.find(key); hit != memory_.end()) {
    ++counters_.hits;
    ++counters_.memoryHits;
    // Bump recency in both layers.
    memoryLru_.splice(memoryLru_.begin(), memoryLru_, hit->second.lruIt);
    touchDiskLocked(key);
    return {hit->second.artifact, Source::Memory};
  }
  const auto [it, owner] = flights_.try_emplace(key);
  if (!owner) {
    ++counters_.misses;
    const std::shared_future<Landing> joined = it->second;
    lock.unlock();
    const Landing& landing = joined.get();
    if (landing.artifact == nullptr) throw Error(landing.error);
    return {landing.artifact, Source::Joined};
  }
  std::promise<Landing> flight;
  it->second = flight.get_future().share();
  lock.unlock();

  // This caller owns the flight. lookup (on a disk hit) or insert releases
  // it in the critical section that fills the memory tier.
  Resolved out{nullptr, Source::Disk};
  try {
    out.artifact = lookup(key, comp, graph);
    if (out.artifact == nullptr) {
      auto computed = std::make_shared<const ScheduleArtifact>(compute());
      CGRA_ASSERT(computed->key == key);
      out = {std::move(computed), Source::Computed};
      insert(out.artifact);
    }
  } catch (const std::exception& e) {
    if (out.artifact == nullptr) {  // else insert() already released it
      lock.lock();
      flights_.erase(key);
    }
    flight.set_value({nullptr, e.what()});
    throw;
  }
  flight.set_value({out.artifact, {}});
  return out;
}

void ArtifactStore::insert(
    std::shared_ptr<const ScheduleArtifact> artifact) {
  CGRA_ASSERT(artifact != nullptr && !artifact->key.empty());
  const std::string key = artifact->key;

  std::string serialized;
  // Compact form: cache files are machine-read far more often than
  // human-read, and the compact dump roughly halves both the disk footprint
  // and the warm-lookup parse time.
  if (!options_.directory.empty()) serialized = artifact->toJson().dump(0);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.inserts;
    rememberLocked(key, artifact);
    flights_.erase(key);  // published: later callers hit the memory tier
  }

  if (options_.directory.empty()) return;
  // Atomic publication: concurrent writers of one content-addressed key
  // write identical bytes; whichever rename lands last wins harmlessly.
  fs::atomicWriteFile(pathForKey(key), serialized + "\n");

  std::lock_guard<std::mutex> lock(mu_);
  addDiskEntryLocked(key, serialized.size() + 1);
  evictPastCapLocked();
}

StoreCounters ArtifactStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t ArtifactStore::memoryEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_.size();
}

std::size_t ArtifactStore::diskBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diskBytes_;
}

}  // namespace cgra::artifact
