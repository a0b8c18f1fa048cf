// Sharded routed-platform cache.
//
// One process-wide cache (`process_topology_cache()`) serves every
// caller -- run_sweep, the scheduler service and the benches -- keyed by
// (topology name, seed, link, cycle times).  Lookups route by key hash
// into a fixed array of independently locked shards, so workers
// building distinct networks never serialize on one lock.
//
// Each shard keeps the first-insert-wins contract: values are built
// OUTSIDE the lock (construction is exactly the expensive part being
// cached); a first-use race may build a platform twice, but
// `map::emplace` keeps the first insert and every caller -- the losing
// builder included -- receives that winning pointer, so per key there
// is always one canonical immutable instance.  The contract is pinned
// by tests/concurrency_stress_test.cpp and tests/service_test.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "platform/routing.hpp"
#include "util/annotations.hpp"

namespace oneport::analysis {

/// A fixed set of independently locked shards mapping (topology name,
/// seed, link, cycle times) -> immutable RoutedPlatform.  Thread-safe;
/// `get` routes by key hash, so distinct networks build under distinct
/// locks.
class ShardedTopologyCache {
 public:
  /// `shards` is clamped to at least 1.
  explicit ShardedTopologyCache(std::size_t shards);
  ShardedTopologyCache(const ShardedTopologyCache&) = delete;
  ShardedTopologyCache& operator=(const ShardedTopologyCache&) = delete;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }

  /// Deterministic shard index for a key (exposed so tests can assert
  /// the routing is stable).
  [[nodiscard]] std::size_t shard_for(const std::string& topology,
                                      std::uint64_t seed) const noexcept;

  /// Returns the canonical platform for the key, building it (outside
  /// the shard lock) on first use.
  [[nodiscard]] std::shared_ptr<const RoutedPlatform> get(
      const std::string& topology, const std::vector<double>& cycle_times,
      double link = 1.0, std::uint64_t seed = 1);

  /// Total cached networks across shards (tests/diagnostics).
  [[nodiscard]] std::size_t total_entries() const;

 private:
  /// One independently locked shard; see the first-insert-wins contract
  /// in the header comment.
  class TopologyCacheShard {
   public:
    [[nodiscard]] std::shared_ptr<const RoutedPlatform> get(
        const std::string& topology, const std::vector<double>& cycle_times,
        double link, std::uint64_t seed);
    [[nodiscard]] std::size_t size() const;

   private:
    using Key =
        std::tuple<std::string, std::uint64_t, double, std::vector<double>>;

    mutable util::Mutex mutex_;
    std::map<Key, std::shared_ptr<const RoutedPlatform>> entries_
        OP_GUARDED_BY(mutex_);
  };

  std::vector<TopologyCacheShard> shards_;
};

/// The process-wide routed-platform cache: the first call per key builds
/// the platform and its RoutingTable (Floyd-Warshall for the unstructured
/// names and the ':swp' policy, XY/alternating/up-down construction for
/// mesh/torus/fattree); every later call -- from any thread -- returns
/// the same immutable instance.  The full suffixed name and the seed are
/// key components, so "mesh3x3", "mesh3x3:swp" and "mesh3x3:het0.5" (or
/// one ':het' shape under two seeds) never alias; cycle times participate
/// too, so sweeps over different base platforms stay distinct.  Leaked
/// intentionally: cached routing tables must outlive every schedule
/// still pointing into them at static-destruction time.
[[nodiscard]] ShardedTopologyCache& process_topology_cache() noexcept;

}  // namespace oneport::analysis
