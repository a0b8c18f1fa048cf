// Test-only reference timeline: a sorted vector of busy intervals,
// scanned linearly from a binary-searched lower bound.  It is the
// differential oracle for the production GapTimeline
// (sched/timeline.hpp): the tests demand bitwise-equal next_fit,
// is_free and busy_intervals from both on every input.  Simple to audit
// on purpose; do not optimize it.
#pragma once

#include <span>
#include <vector>

#include "sched/interval.hpp"

namespace oneport::testsupport {

class ReferenceTimeline {
 public:
  /// Earliest start >= `ready` such that [start, start+duration) is free.
  /// duration == 0 always fits at `ready`.
  [[nodiscard]] double next_fit(double ready, double duration) const;

  /// Marks [start, end) busy.  Throws std::logic_error when the slot
  /// conflicts with an existing reservation (library bug).  Degenerate
  /// intervals are ignored.
  void reserve(double start, double end);

  [[nodiscard]] bool is_free(double start, double end) const;

  /// End of the last busy interval (0 when empty).
  [[nodiscard]] double horizon() const noexcept {
    return busy_.empty() ? 0.0 : busy_.back().end;
  }

  [[nodiscard]] std::span<const Interval> busy() const noexcept {
    return busy_;
  }
  /// Materialized busy intervals -- the accessor GapTimeline shares, so
  /// tests can compare the two structurally.
  [[nodiscard]] std::vector<Interval> busy_intervals() const {
    return {busy_.begin(), busy_.end()};
  }
  [[nodiscard]] bool empty() const noexcept { return busy_.empty(); }
  void clear() noexcept { busy_.clear(); }

  /// Total busy time.
  [[nodiscard]] double busy_time() const noexcept;

 private:
  // Sorted by start; pairwise non-overlapping (touching allowed; adjacent
  // reservations are merged to keep the vector short).
  std::vector<Interval> busy_;
};

}  // namespace oneport::testsupport
