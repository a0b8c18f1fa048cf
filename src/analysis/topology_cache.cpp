#include "analysis/topology_cache.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace oneport::analysis {

std::shared_ptr<const RoutedPlatform>
ShardedTopologyCache::TopologyCacheShard::get(
    const std::string& topology, const std::vector<double>& cycle_times,
    double link, std::uint64_t seed) {
  Key key{topology, seed, link, cycle_times};
  {
    util::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  // Build outside the lock: a first-use race may construct the same
  // platform twice, but emplace keeps the first insert and hands the
  // winner to every caller (losers included), so per key there is one
  // canonical immutable instance.
  auto built = std::make_shared<const RoutedPlatform>(
      make_topology_platform(topology, cycle_times, link, seed));
  util::MutexLock lock(mutex_);
  return entries_.emplace(std::move(key), std::move(built)).first->second;
}

std::size_t ShardedTopologyCache::TopologyCacheShard::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

ShardedTopologyCache::ShardedTopologyCache(std::size_t shards)
    : shards_(std::max<std::size_t>(1, shards)) {}

std::size_t ShardedTopologyCache::shard_for(
    const std::string& topology, std::uint64_t seed) const noexcept {
  // Name + seed decide the shard; link and cycle times almost never vary
  // for one name within a process, and a collision only costs sharing a
  // lock, never a wrong value.  SplitMix64-style finalizer over the
  // string hash keeps low bits well mixed for the modulo.
  std::uint64_t h = std::hash<std::string>{}(topology) + 0x9e3779b97f4a7c15ULL * (seed + 1);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return static_cast<std::size_t>(h % shards_.size());
}

std::shared_ptr<const RoutedPlatform> ShardedTopologyCache::get(
    const std::string& topology, const std::vector<double>& cycle_times,
    double link, std::uint64_t seed) {
  return shards_[shard_for(topology, seed)].get(topology, cycle_times, link,
                                                seed);
}

std::size_t ShardedTopologyCache::total_entries() const {
  std::size_t total = 0;
  for (const TopologyCacheShard& s : shards_) total += s.size();
  return total;
}

ShardedTopologyCache& process_topology_cache() noexcept {
  // 8 shards comfortably covers the distinct-network parallelism of a
  // grid sweep or a service's workers without bloating idle processes.
  static auto* cache = new ShardedTopologyCache(8);
  return *cache;
}

}  // namespace oneport::analysis
