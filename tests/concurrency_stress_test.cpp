// Concurrency stress for the repo's load-bearing shared state and its
// fork-join helper: the thread pool (repeated fork/join, exceptions
// inside lanes), the process-wide sharded routed-platform cache, and the
// profiler's per-thread slab registry.  (The scheduler service built on
// top of all three has its own battery in tests/service_test.cpp.)
//
// These suites are the dynamic half of the static correctness layer:
// Clang -Wthread-safety proves lock discipline over the
// OP_GUARDED_BY-annotated members at compile time, and this binary runs
// under BOTH sanitizer CI legs (label `pool`: the ASan+UBSan job's full
// battery and the TSan job's pool slice) to catch what annotations
// cannot -- ordering bugs, missed notifications, racy initialization.
// Worker counts are forced >= 4 so parallel_for really spawns threads
// even on single-core runners (ThreadPool(0) would collapse to inline
// mode there and test nothing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/topology_cache.hpp"
#include "platform/routing.hpp"
#include "util/profiler.hpp"
#include "util/thread_pool.hpp"

namespace oneport {
namespace {

constexpr unsigned kWorkers = 4;

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolStress, ContendedSubmitDrainCycles) {
  const ThreadPool pool(kWorkers);
  ASSERT_EQ(pool.size(), kWorkers);
  std::atomic<std::uint64_t> sum{0};
  // Many fork/join rounds of many tiny indices on one pool: every round
  // spawns, races on the shared index counter, and joins its lanes.
  constexpr int kRounds = 50;
  constexpr std::size_t kJobsPerRound = 64;
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(kJobsPerRound, [&sum](std::size_t) {
      sum.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kRounds * kJobsPerRound));
}

TEST(ThreadPoolStress, ParallelForWritesEverySlotExactlyOnce) {
  ThreadPool pool(kWorkers);
  constexpr std::size_t kCount = 10'000;
  std::vector<int> hits(kCount, 0);
  pool.parallel_for(kCount, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kCount));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolStress, FirstTaskExceptionRethrownPoolStaysUsable) {
  const ThreadPool pool(kWorkers);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&ran](std::size_t i) {
                                   ran.fetch_add(1, std::memory_order_relaxed);
                                   if (i % 10 == 3) {
                                     throw std::runtime_error(
                                         "task " + std::to_string(i) +
                                         " failed");
                                   }
                                 }),
               std::runtime_error);
  // Every lane stops pulling indices at its first throw and the others
  // keep going, so the kWorkers lanes ran exactly the prefix holding the
  // first kWorkers throwing indices (3, 13, 23, 33) and not 43: the
  // join returned, and no throwing lane wedged it...
  EXPECT_GE(ran.load(), 34);
  EXPECT_LE(ran.load(), 43);
  // ...and the same object completes a clean call afterwards, with no
  // error left over from the first one.
  std::atomic<int> after{0};
  pool.parallel_for(32, [&after](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 32);
}

TEST(ThreadPoolStress, ParallelForRethrowsFromWorker) {
  ThreadPool pool(kWorkers);
  EXPECT_THROW(
      pool.parallel_for(1'000,
                        [](std::size_t i) {
                          if (i == 777) throw std::logic_error("boom");
                        }),
      std::logic_error);
}

// ----------------------------------------- process_topology_cache()

// Regression shape for the satellite audit of the cache's locking: many
// workers demanding the same small key set concurrently.  The contract
// is that every caller receives the SAME RoutedPlatform instance per
// key -- a racy first build is allowed to construct twice, but
// map::emplace keeps the first insert and hands the winner to every
// caller, losers included.  Run under TSan this also proves the
// build-outside-the-lock window touches no shared mutable state.  The
// key set spans multiple shards, so the contract is pinned across shard
// boundaries too.
TEST(TopologyCacheStress, ConcurrentHitsShareOneInstancePerKey) {
  const std::vector<double> cycles{4.0, 5.0, 6.0, 10.0};
  const std::vector<std::string> names{"ring", "star", "mesh2x2",
                                       "mesh2x2:het0.5:swp"};
  constexpr std::size_t kLookups = 256;
  std::vector<std::shared_ptr<const RoutedPlatform>> got(kLookups);
  ThreadPool pool(kWorkers);
  pool.parallel_for(kLookups, [&](std::size_t i) {
    // Distinct seeds multiply the key space; i % 2 seeds collide across
    // workers so both the build path and the hit path stay contended.
    got[i] = analysis::process_topology_cache().get(
        names[i % names.size()], cycles, /*link=*/1.0, /*seed=*/i % 2);
  });
  for (std::size_t i = 0; i < kLookups; ++i) {
    ASSERT_NE(got[i], nullptr);
    for (std::size_t j = i + 1; j < kLookups; ++j) {
      if (i % names.size() == j % names.size() && i % 2 == j % 2) {
        EXPECT_EQ(got[i].get(), got[j].get())
            << "cache returned two instances for one key (" << i << ", " << j
            << ")";
      }
    }
  }
}

// The sharded cache singleton under a wide key set: distinct keys land
// in distinct shards (distinct locks), and re-demanding the whole set
// concurrently must neither rebuild nor cross wires between shards.
TEST(TopologyCacheStress, ShardedSingletonHoldsAcrossWideKeySet) {
  analysis::ShardedTopologyCache& cache = analysis::process_topology_cache();
  const std::vector<double> cycles{3.0, 7.0, 9.0};
  const std::vector<std::string> names{"ring", "star", "line", "mesh2x2",
                                       "torus2x2", "fattree1x2"};
  constexpr std::size_t kLookups = 240;
  std::vector<std::shared_ptr<const RoutedPlatform>> got(kLookups);
  ThreadPool pool(kWorkers);
  pool.parallel_for(kLookups, [&](std::size_t i) {
    got[i] = cache.get(names[i % names.size()], cycles, /*link=*/1.0,
                       /*seed=*/7 + i % 4);
  });
  for (std::size_t i = 0; i < kLookups; ++i) {
    ASSERT_NE(got[i], nullptr);
    // Same key (name, seed) => same instance, even when routed through
    // different submitting threads and resolved in different orders.
    const std::size_t peer = i + names.size() * 4;
    if (peer < kLookups) {
      EXPECT_EQ(got[i].get(), got[peer].get())
          << "sharded cache returned two instances for one key (" << i
          << ", " << peer << ")";
    }
  }
}

// ------------------------------------------------ profiler slab registry

TEST(ProfilerStress, ConcurrentBumpsAggregateExactly) {
  const prof::Counts before = prof::aggregate();
  {
    prof::ScopedProfiler scoped(true);
    ThreadPool pool(kWorkers);
    constexpr std::size_t kBumps = 20'000;
    pool.parallel_for(kBumps, [](std::size_t) {
      prof::bump(prof::Counter::kOverlayResets);
    });
    const prof::Counts totals = prof::aggregate();
    const auto overlay =
        static_cast<std::size_t>(prof::Counter::kOverlayResets);
    EXPECT_EQ(totals[overlay] - before[overlay], kBumps)
        << "per-thread slabs lost or double-counted bumps under contention";
    // Aggregation while workers are live must also be race-free; TSan
    // checks that here (values are only asserted at quiescence above).
    pool.parallel_for(1'000, [](std::size_t) {
      prof::bump(prof::Counter::kPruneEvals);
      (void)prof::aggregate();
    });
  }
}

}  // namespace
}  // namespace oneport
