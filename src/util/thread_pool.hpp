// A fork-join helper for farming independent experiment points
// (scheduler runs are pure functions of graph x platform, so the only
// shared state a point needs is read-only).
//
// Design notes:
//   * ThreadPool only stores a width; parallel_for() is the whole API.
//     Each call starts min(count, width) lanes -- the caller runs lane 0
//     itself, the rest run on threads that live for that one call --
//     and joins them before returning.  Lanes pull indices from an
//     atomic counter, and results land in caller-owned slots, so output
//     ordering is deterministic regardless of which lane finishes first.
//   * a lane that throws stops pulling indices and parks its exception
//     in its own slot; after the join the lowest lane's exception is
//     rethrown on the calling thread, so a failed validation inside a
//     lane still fails the sweep loudly.  Each lane writes only its own
//     slot and the join orders those writes before the read, so there
//     is no lock and nothing for -Wthread-safety to check.
//   * one lane (width 1, or a single index) never spawns a thread: fn
//     runs inline on the caller, which keeps single-core machines and
//     ONEPORT_WORKERS=1 runs free of threading overhead (and trivially
//     deterministic).
//   * the TSan CI leg checks the fork/join under contention
//     (tests/concurrency_stress_test.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/env_knobs.hpp"
#include "util/profiler.hpp"

namespace oneport {

class ThreadPool {
 public:
  /// `workers` == 0 picks ONEPORT_WORKERS, falling back to the hardware
  /// concurrency (at least 1).
  explicit ThreadPool(unsigned workers = 0)
      : width_(workers == 0 ? default_workers() : workers) {}

  [[nodiscard]] unsigned size() const noexcept { return width_; }

  [[nodiscard]] static unsigned default_workers() noexcept {
    const long knob = env::integer(env::Knob::kWorkers, 0);
    if (knob > 0) return static_cast<unsigned>(knob);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Runs fn(i) for every i in [0, count) on up to size() lanes and
  /// blocks until all complete; rethrows a lane's exception.
  template <typename Fn>
  void parallel_for(std::size_t count, Fn&& fn) const {
    const std::size_t lanes = std::min<std::size_t>(count, width_);
    if (lanes <= 1) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(lanes);
    const auto lane = [&](std::size_t slot) {
      try {
        run_lane([&] {
          for (std::size_t i = next.fetch_add(1); i < count;
               i = next.fetch_add(1)) {
            fn(i);
          }
        });
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    };
    {
      // jthreads join on destruction, also when a later spawn throws.
      std::vector<std::jthread> threads;
      threads.reserve(lanes - 1);
      for (std::size_t slot = 1; slot < lanes; ++slot) {
        threads.emplace_back(lane, slot);
      }
      lane(0);
    }
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

 private:
  /// Profiler wiring: each completed lane counts toward kPoolTasks and
  /// its wall time toward kPoolTaskNanos, on the running thread's own
  /// slab.  The clock is read only while the profiler is enabled, so the
  /// disabled path stays a relaxed load + untaken branch.
  template <typename Body>
  static void run_lane(const Body& body) {
    if (!prof::enabled()) {
      body();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto dt = std::chrono::steady_clock::now() - t0;
    prof::bump(prof::Counter::kPoolTasks);
    prof::bump(prof::Counter::kPoolTaskNanos,
               static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                       .count()));
  }

  unsigned width_;
};

}  // namespace oneport
