#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "sched/timeline.hpp"
#include "support/reference_timeline.hpp"
#include "support/scenario.hpp"
#include "util/rng.hpp"

namespace oneport {
namespace {

using testsupport::ReferenceTimeline;

// Every contract test below runs against both the production GapTimeline
// and the test-only ReferenceTimeline oracle (a sorted busy vector).
// They must agree not just on semantics but on the exact doubles they
// return: the oracle replay at the end of this file feeds real schedules'
// reservations to both and compares every answer bitwise.
template <typename T>
class TimelineContractTest : public ::testing::Test {};

using TimelineTypes = ::testing::Types<ReferenceTimeline, GapTimeline>;
TYPED_TEST_SUITE(TimelineContractTest, TimelineTypes);

TYPED_TEST(TimelineContractTest, EmptyFitsAnywhere) {
  TypeParam t;
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.next_fit(3.5, 5.0), 3.5);
  EXPECT_DOUBLE_EQ(t.horizon(), 0.0);
  EXPECT_TRUE(t.empty());
}

TYPED_TEST(TimelineContractTest, FitsIntoExactGap) {
  TypeParam t;
  t.reserve(0.0, 2.0);
  t.reserve(5.0, 8.0);
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 3.0), 2.0);  // the [2,5) hole
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 4.0), 8.0);  // too big -> after the end
  EXPECT_DOUBLE_EQ(t.next_fit(6.0, 1.0), 8.0);  // ready inside a busy slot
  EXPECT_DOUBLE_EQ(t.next_fit(2.0, 2.0), 2.0);
}

TYPED_TEST(TimelineContractTest, ZeroDurationAlwaysFits) {
  TypeParam t;
  t.reserve(0.0, 10.0);
  EXPECT_DOUBLE_EQ(t.next_fit(4.0, 0.0), 4.0);
}

TYPED_TEST(TimelineContractTest, ReserveRejectsOverlap) {
  TypeParam t;
  t.reserve(0.0, 2.0);
  EXPECT_THROW(t.reserve(1.0, 3.0), std::logic_error);
  EXPECT_THROW(t.reserve(-1.0, 0.5), std::logic_error);
  EXPECT_NO_THROW(t.reserve(2.0, 3.0));  // touching is fine
}

TYPED_TEST(TimelineContractTest, ReserveMergesTouchingIntervals) {
  TypeParam t;
  t.reserve(0.0, 1.0);
  t.reserve(2.0, 3.0);
  t.reserve(1.0, 2.0);  // bridges both neighbours
  const std::vector<Interval> busy = t.busy_intervals();
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_DOUBLE_EQ(busy[0].start, 0.0);
  EXPECT_DOUBLE_EQ(busy[0].end, 3.0);
  EXPECT_DOUBLE_EQ(t.busy_time(), 3.0);
}

TYPED_TEST(TimelineContractTest, IsFree) {
  TypeParam t;
  t.reserve(2.0, 4.0);
  EXPECT_TRUE(t.is_free(0.0, 2.0));
  EXPECT_TRUE(t.is_free(4.0, 9.0));
  EXPECT_FALSE(t.is_free(3.0, 5.0));
  EXPECT_FALSE(t.is_free(1.0, 3.0));
  EXPECT_TRUE(t.is_free(3.0, 3.0));  // degenerate
}

TYPED_TEST(TimelineContractTest, NextFitRejectsNegativeDuration) {
  TypeParam t;
  EXPECT_THROW((void)t.next_fit(0.0, -1.0), std::invalid_argument);
}

TYPED_TEST(TimelineContractTest, ClearResets) {
  TypeParam t;
  t.reserve(0.0, 5.0);
  t.reserve(7.0, 9.0);
  EXPECT_FALSE(t.empty());
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.horizon(), 0.0);
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 100.0), 0.0);
  t.reserve(1.0, 2.0);  // usable again after clear
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 2.0), 2.0);
}

// ------------------------------------- adversarial gap patterns

/// Many small gaps: 100 unit reservations leaving 0.5-wide holes; a
/// 0.5-slot fits into the first hole, a 0.6-slot only after everything.
TYPED_TEST(TimelineContractTest, ManySmallGaps) {
  TypeParam t;
  for (int i = 0; i < 100; ++i) {
    const double start = 1.5 * i;
    t.reserve(start, start + 1.0);
  }
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 0.5), 1.0);    // the [1, 1.5) hole
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 0.6), 149.5);  // no interior hole fits
  EXPECT_DOUBLE_EQ(t.next_fit(76.0, 0.5), 76.0);  // mid-sequence hole
  EXPECT_DOUBLE_EQ(t.next_fit(76.2, 0.5), 77.5);  // partially eaten hole
  EXPECT_EQ(t.busy_intervals().size(), 100u);
  // Fill one hole and the neighbours merge into a triple-length run.
  t.reserve(10.0, 10.5);
  EXPECT_EQ(t.busy_intervals().size(), 99u);
  EXPECT_DOUBLE_EQ(t.next_fit(9.0, 0.5), 11.5);
}

/// Eps-touching reservations must merge exactly like exactly-touching
/// ones, and next_fit may start inside the eps shadow of a busy end.
TYPED_TEST(TimelineContractTest, EpsTouchingReservations) {
  TypeParam t;
  t.reserve(0.0, 1.0);
  t.reserve(1.0 + 0.5 * kTimeEps, 2.0);  // within tolerance: merges
  ASSERT_EQ(t.busy_intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(t.busy_intervals()[0].end, 2.0);
  // A slot requested within eps *before* the busy end is granted as-is:
  // the reference scan treats the busy interval as already over.
  const double ready = 2.0 - 0.5 * kTimeEps;
  EXPECT_DOUBLE_EQ(t.next_fit(ready, 1.0), ready);
  // ...but asking well inside the busy interval snaps to its end.
  EXPECT_DOUBLE_EQ(t.next_fit(1.5, 1.0), 2.0);
}

/// Zero-duration fits never move and never conflict, even inside busy
/// intervals or exactly at boundaries.
TYPED_TEST(TimelineContractTest, ZeroDurationFits) {
  TypeParam t;
  t.reserve(0.0, 2.0);
  t.reserve(3.0, 5.0);
  for (const double at : {0.0, 1.0, 2.0, 2.5, 3.0, 4.999, 5.0, 100.0}) {
    EXPECT_DOUBLE_EQ(t.next_fit(at, 0.0), at) << "at=" << at;
    EXPECT_TRUE(t.is_free(at, at));
  }
  // Degenerate reservations are ignored entirely, even inside busy slots.
  t.reserve(1.0, 1.0);
  t.reserve(4.0, 4.0 + 0.5 * kTimeEps);
  EXPECT_EQ(t.busy_intervals().size(), 2u);
}

/// Backward-jumping readies: after appending at the far end, queries way
/// back in time must still see the old holes (exercises the gap cursor).
TYPED_TEST(TimelineContractTest, BackwardJumpsAfterAppends) {
  TypeParam t;
  double cursor = 0.0;
  for (int i = 0; i < 50; ++i) {  // back-to-back appends, hole at [24,25)
    const double next = (i == 16) ? cursor + 1.0 : cursor;
    t.reserve(next, next + 1.5);
    cursor = next + 1.5;
  }
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 1.0), 24.0);  // the punched hole
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 1.5), cursor);
  EXPECT_DOUBLE_EQ(t.next_fit(10.0, 0.5), 24.0);
  t.reserve(24.0, 25.0);  // plug it; everything merges into one run
  EXPECT_EQ(t.busy_intervals().size(), 1u);
}

TEST(Interval, OverlapSemantics) {
  EXPECT_TRUE(overlaps({0.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(overlaps({0.0, 2.0}, {2.0, 3.0}));  // touching
  EXPECT_FALSE(overlaps({0.0, 2.0}, {5.0, 6.0}));
  EXPECT_FALSE(overlaps({1.0, 1.0}, {0.0, 9.0}));  // degenerate
}

// ----------------------------------------------- differential fuzzing

/// Drives the gap timeline and the reference oracle through an identical
/// random op sequence and demands exactly equal answers and busy
/// structures at every step.
class TimelineDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineDifferentialTest, ImplementationsAgreeExactly) {
  SplitMix64 rng(GetParam());
  ReferenceTimeline reference;
  GapTimeline gap;
  for (int i = 0; i < 400; ++i) {
    const double ready = rng.uniform(0.0, 60.0);
    const double duration =
        rng.below(8) == 0 ? 0.0 : rng.uniform(0.0, 4.0);
    const double fit_ref = reference.next_fit(ready, duration);
    const double fit_gap = gap.next_fit(ready, duration);
    ASSERT_EQ(fit_ref, fit_gap)  // bitwise: no tolerance
        << "step " << i << " ready=" << ready << " duration=" << duration;
    const double probe_end = ready + rng.uniform(0.0, 5.0);
    ASSERT_EQ(reference.is_free(ready, probe_end),
              gap.is_free(ready, probe_end))
        << "step " << i;
    if (rng.below(3) != 0) {  // reserve the found slot 2/3 of the time
      reference.reserve(fit_ref, fit_ref + duration);
      gap.reserve(fit_gap, fit_gap + duration);
    }
    ASSERT_EQ(reference.busy_intervals(), gap.busy_intervals())
        << "step " << i;
    ASSERT_EQ(reference.horizon(), gap.horizon()) << "step " << i;
  }
  EXPECT_NEAR(reference.busy_time(), gap.busy_time(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineDifferentialTest,
                         ::testing::Values<std::uint64_t>(7, 21, 99, 1234,
                                                          777777));

// --------------------------------------------------------- overlays

TEST(TimelineOverlay, SeesBaseAndExtras) {
  GapTimeline base;
  base.reserve(0.0, 2.0);
  TimelineOverlay overlay(base);
  overlay.add(3.0, 5.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.0), 2.0);  // the [2,3) hole
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 2.0), 5.0);  // hole too small
  EXPECT_DOUBLE_EQ(overlay.next_fit(4.0, 1.0), 5.0);
}

TEST(TimelineOverlay, ExtrasDoNotMutateBase) {
  GapTimeline base;
  TimelineOverlay overlay(base);
  overlay.add(0.0, 4.0);
  EXPECT_TRUE(base.empty());
  EXPECT_DOUBLE_EQ(base.next_fit(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.0), 4.0);
}

TEST(TimelineOverlay, UnsortedAddsHandled) {
  GapTimeline base;
  TimelineOverlay overlay(base);
  overlay.add(6.0, 8.0);
  overlay.add(0.0, 2.0);
  overlay.add(3.0, 4.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 2.0), 4.0);  // between 4 and 6
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 3.0), 8.0);
}

TEST(TimelineOverlay, ResetKeepsViewFreshAcrossBases) {
  GapTimeline first, second;
  first.reserve(0.0, 10.0);
  TimelineOverlay overlay(first);
  overlay.add(12.0, 14.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 3.0), 14.0);
  overlay.reset(second);  // extras dropped, base swapped
  EXPECT_TRUE(overlay.extras().empty());
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 3.0), 0.0);
}

TEST(TimelineOverlay, ManyExtrasOrderedPass) {
  GapTimeline base;
  base.reserve(0.0, 1.0);
  TimelineOverlay overlay(base);
  for (int i = 1; i <= 50; ++i) {  // extras [2i, 2i+1): unit holes between
    overlay.add(2.0 * i, 2.0 * i + 1.0);
  }
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.5), 101.0);  // past every extra
  EXPECT_DOUBLE_EQ(overlay.next_fit(50.0, 1.0), 51.0);
}

// --------------------------------------------------------- joint fit

/// Builds an overlay over `base` from a busy list: even-indexed intervals
/// are reserved in the base, odd-indexed ones added as extras, so probes
/// cross both the base and the extras paths.  `base` must be empty and
/// outlive the overlay.
TimelineOverlay split_overlay(GapTimeline& base,
                              const std::vector<Interval>& busy) {
  for (std::size_t i = 0; i < busy.size(); i += 2) {
    base.reserve(busy[i].start, busy[i].end);
  }
  TimelineOverlay overlay(base);  // caches the base horizon: reserve first
  for (std::size_t i = 1; i < busy.size(); i += 2) {
    overlay.add(busy[i].start, busy[i].end);
  }
  return overlay;
}

/// The (send, recv) type pairings joint_fit is instantiated with in the
/// scheduler: the EFT engine's overlay-free fast path probes a committed
/// send timeline against a receive overlay, its general path two
/// overlays.  Each pairing builds its operands from busy lists.
struct GapSendOverlayRecv {
  static double fit(const std::vector<Interval>& send,
                    const std::vector<Interval>& recv, double ready,
                    double duration) {
    GapTimeline s;
    for (const Interval& iv : send) s.reserve(iv.start, iv.end);
    GapTimeline r_base;
    const TimelineOverlay r = split_overlay(r_base, recv);
    return joint_fit(s, r, ready, duration);
  }
};

struct OverlaySendOverlayRecv {
  static double fit(const std::vector<Interval>& send,
                    const std::vector<Interval>& recv, double ready,
                    double duration) {
    GapTimeline s_base;
    GapTimeline r_base;
    const TimelineOverlay s = split_overlay(s_base, send);
    const TimelineOverlay r = split_overlay(r_base, recv);
    return joint_fit(s, r, ready, duration);
  }
};

template <typename P>
class JointFit : public ::testing::Test {};

using JointFitPairings =
    ::testing::Types<GapSendOverlayRecv, OverlaySendOverlayRecv>;
TYPED_TEST_SUITE(JointFit, JointFitPairings);

TYPED_TEST(JointFit, BothFreeImmediately) {
  EXPECT_DOUBLE_EQ(TypeParam::fit({}, {}, 1.0, 2.0), 1.0);
}

TYPED_TEST(JointFit, AlternatingBusySlots) {
  // a busy [0,2), b busy [2,4): the first joint 1-slot is at 4.
  EXPECT_DOUBLE_EQ(TypeParam::fit({{0.0, 2.0}}, {{2.0, 4.0}}, 0.0, 1.0),
                   4.0);
}

TYPED_TEST(JointFit, FindsSharedHole) {
  const std::vector<Interval> a = {{0.0, 1.0}, {4.0, 6.0}};
  const std::vector<Interval> b = {{0.0, 2.0}, {5.0, 7.0}};
  // Shared holes: [2,4) then [7,inf); a 2-slot fits at 2.
  EXPECT_DOUBLE_EQ(TypeParam::fit(a, b, 0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(TypeParam::fit(a, b, 0.0, 3.0), 7.0);
}

TYPED_TEST(JointFit, ZeroDuration) {
  EXPECT_DOUBLE_EQ(TypeParam::fit({{0.0, 5.0}}, {}, 3.0, 0.0), 3.0);
}

/// Earliest t >= ready with [t, t+duration) free on both oracles, by
/// brute force: a feasible start can always slide left onto `ready` or
/// onto the end of a busy interval, so those are the only candidates.
double brute_force_joint_fit(const std::vector<Interval>& a,
                             const std::vector<Interval>& b, double ready,
                             double duration) {
  ReferenceTimeline ra;
  ReferenceTimeline rb;
  for (const Interval& iv : a) ra.reserve(iv.start, iv.end);
  for (const Interval& iv : b) rb.reserve(iv.start, iv.end);
  std::vector<double> candidates = {ready};
  for (const std::vector<Interval>* busy : {&a, &b}) {
    for (const Interval& iv : *busy) {
      if (iv.end >= ready) candidates.push_back(iv.end);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const double t : candidates) {
    if (ra.is_free(t, t + duration) && rb.is_free(t, t + duration)) return t;
  }
  ADD_FAILURE() << "no joint slot found past the horizons";
  return -1.0;
}

/// Interleaved busy combs force one retry per tooth: each send gap sits
/// under a receive busy slot until the single shared hole deep in the
/// timelines.  A seeded random pair then checks arbitrary interleavings.
/// Every answer must equal the brute-force reference.
TYPED_TEST(JointFit, InterleavedSlotsMatchBruteForce) {
  std::vector<Interval> a;
  std::vector<Interval> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back({2.0 * i, 2.0 * i + 1.0});
    if (i != 150) b.push_back({2.0 * i + 1.0, 2.0 * i + 2.0});
  }
  EXPECT_EQ(TypeParam::fit(a, b, 0.0, 0.9), 301.0);
  EXPECT_EQ(TypeParam::fit(a, b, 0.0, 0.9),
            brute_force_joint_fit(a, b, 0.0, 0.9));
  EXPECT_EQ(TypeParam::fit(a, b, 0.0, 1.5), 400.0);  // past both horizons
  EXPECT_EQ(TypeParam::fit(a, b, 0.0, 1.5),
            brute_force_joint_fit(a, b, 0.0, 1.5));

  SplitMix64 rng(20261017);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Dense random busy sets built through the oracle, so they are
    // disjoint and merged exactly as a real timeline would hold them.
    ReferenceTimeline ra;
    ReferenceTimeline rb;
    for (int i = 0; i < 120; ++i) {
      const double da = rng.uniform(0.2, 2.0);
      const double sa = ra.next_fit(rng.uniform(0.0, 200.0), da);
      ra.reserve(sa, sa + da);
      const double db = rng.uniform(0.2, 2.0);
      const double sb = rb.next_fit(rng.uniform(0.0, 200.0), db);
      rb.reserve(sb, sb + db);
    }
    const std::vector<Interval> ba = ra.busy_intervals();
    const std::vector<Interval> bb = rb.busy_intervals();
    for (int q = 0; q < 10; ++q) {
      const double ready = rng.uniform(0.0, 200.0);
      const double duration = rng.uniform(0.05, 1.5);
      EXPECT_EQ(TypeParam::fit(ba, bb, ready, duration),
                brute_force_joint_fit(ba, bb, ready, duration))
          << "ready=" << ready << " duration=" << duration;
    }
  }
}

// --------------------------------------------------------- properties

class TimelinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

/// next_fit always returns a slot that reserve() accepts, for arbitrary
/// reservation sequences -- on both implementations.
template <typename T>
void next_fit_slots_always_reservable(std::uint64_t seed) {
  SplitMix64 rng(seed);
  T t;
  double total = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double ready = rng.uniform(0.0, 50.0);
    const double duration = rng.uniform(0.0, 5.0);
    const double start = t.next_fit(ready, duration);
    EXPECT_GE(start, ready);
    EXPECT_TRUE(t.is_free(start, start + duration));
    ASSERT_NO_THROW(t.reserve(start, start + duration));
    total += duration;
  }
  EXPECT_NEAR(t.busy_time(), total, 1e-6);
}

TEST_P(TimelinePropertyTest, NextFitSlotsAreAlwaysReservable) {
  next_fit_slots_always_reservable<ReferenceTimeline>(GetParam());
  next_fit_slots_always_reservable<GapTimeline>(GetParam());
}

/// Busy intervals stay sorted and disjoint on both implementations.
template <typename T>
void invariant_sorted_disjoint(std::uint64_t seed) {
  SplitMix64 rng(seed + 1000);
  T t;
  for (int i = 0; i < 150; ++i) {
    const double duration = rng.uniform(0.1, 3.0);
    const double start = t.next_fit(rng.uniform(0.0, 100.0), duration);
    t.reserve(start, start + duration);
  }
  const std::vector<Interval> busy = t.busy_intervals();
  for (std::size_t i = 1; i < busy.size(); ++i) {
    EXPECT_GE(busy[i].start, busy[i - 1].end - kTimeEps);
  }
}

TEST_P(TimelinePropertyTest, InvariantSortedDisjoint) {
  invariant_sorted_disjoint<ReferenceTimeline>(GetParam());
  invariant_sorted_disjoint<GapTimeline>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelinePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

// --------------------------------------- deferred middle-insert buffer

// The scenarios below reserve deep inside long timelines -- the pattern
// the dynamic rescheduler's prefix-freeze produces -- so they drive the
// GapTimeline pending buffer (deferral, query absorption, flush) that
// pure next_fit/reserve appends never reach.

/// A long alternating timeline: blocks [4i, 4i+1), gaps in between.
template <typename T>
void lay_down_blocks(T& t, int blocks) {
  for (int i = 0; i < blocks; ++i) {
    t.reserve(4.0 * i, 4.0 * i + 1.0);
  }
}

class TimelineMiddleInsertTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineMiddleInsertTest, RandomMiddleInsertsAgreeWithReference) {
  SplitMix64 rng(GetParam());
  ReferenceTimeline reference;
  GapTimeline gap;
  const int blocks = 600;
  lay_down_blocks(reference, blocks);
  lay_down_blocks(gap, blocks);

  // Visit the interior gaps in a random order and drop a sliver strictly
  // inside each: every insert splits a gap far from the tail.
  std::vector<int> order(static_cast<std::size_t>(blocks - 1));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (std::size_t step = 0; step < order.size(); ++step) {
    const double base = 4.0 * order[step];
    const double start = base + 1.5 + rng.uniform(0.0, 0.5);
    const double end = start + rng.uniform(0.2, 0.8);
    reference.reserve(start, end);
    gap.reserve(start, end);
    // Interleave queries so absorption runs against a hot buffer.
    const double ready = rng.uniform(0.0, 4.0 * blocks);
    const double duration = rng.uniform(0.0, 2.0);
    ASSERT_EQ(reference.next_fit(ready, duration),
              gap.next_fit(ready, duration))
        << "step " << step;
    ASSERT_EQ(reference.is_free(start - 0.1, end),
              gap.is_free(start - 0.1, end))
        << "step " << step;
    if (step % 64 == 0) {
      ASSERT_EQ(reference.busy_intervals(), gap.busy_intervals())
          << "step " << step;
    }
  }
  EXPECT_EQ(reference.busy_intervals(), gap.busy_intervals());
  EXPECT_NEAR(reference.busy_time(), gap.busy_time(), 1e-9);
  EXPECT_EQ(reference.horizon(), gap.horizon());
  // The pattern must actually have exercised the buffer.
  EXPECT_GT(gap.stats().deferred_inserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineMiddleInsertTest,
                         ::testing::Values<std::uint64_t>(11, 42, 4096,
                                                          31337));

TEST(TimelineMiddleInsert, QueriesSeePendingImmediately) {
  GapTimeline gap;
  lay_down_blocks(gap, 200);
  // Split an early gap; with ~200 gaps after it the insert is deferred.
  gap.reserve(9.5, 10.5);
  EXPECT_GT(gap.stats().deferred_inserts, 0u);
  EXPECT_FALSE(gap.is_free(9.5, 10.5));
  EXPECT_FALSE(gap.is_free(9.0, 10.0));
  // next_fit must not hand the pending slot out again.
  EXPECT_DOUBLE_EQ(gap.next_fit(9.0, 1.0), 10.5);
  // And the busy view merges it in place.
  const std::vector<Interval> busy = gap.busy_intervals();
  const Interval expected{9.5, 10.5};
  bool found = false;
  for (const Interval& iv : busy) found |= iv == expected;
  EXPECT_TRUE(found);
}

TEST(TimelineMiddleInsert, BufferFlushesBeforeGrowingQuadratic) {
  GapTimeline gap;
  const int blocks = 400;
  lay_down_blocks(gap, blocks);
  for (int i = 0; i + 1 < blocks; ++i) {
    gap.reserve(4.0 * i + 2.0, 4.0 * i + 3.0);
  }
  const GapTimeline::Stats& stats = gap.stats();
  EXPECT_GT(stats.deferred_inserts, 0u);
  EXPECT_GE(stats.flushes, 1u);
  // Deferred compaction bounds element movement by ~n*sqrt(n); direct
  // middle inserts into n gaps would have shifted ~n^2/2 elements.  The
  // factor-8 headroom keeps the pin about the asymptotic, not the exact
  // constants.
  const auto n = static_cast<double>(blocks);
  EXPECT_LT(static_cast<double>(stats.moved_elements), 8.0 * n * std::sqrt(n))
      << "middle inserts moved quadratically many elements";
  // The result is still exactly right: blocks and slivers alternate.
  const std::vector<Interval> busy = gap.busy_intervals();
  ASSERT_EQ(busy.size(), static_cast<std::size_t>(2 * blocks - 1));
}

// ------------------------------------------------ oracle replay

// The reservations of real schedules, replayed into the gap timeline and
// the reference oracle side by side.  Every exclusive resource gets one
// stream: each processor's compute slots, and -- for one-port schedules
// -- each processor's send and receive port, one slot per message (live
// and, for dynamic runs, stale).  Before each reservation both timelines
// answer next_fit at the slot's real ready time (the source task's
// finish for a message, the latest predecessor finish for a task) and
// is_free over the slot; after it, their busy_intervals must match.
// Every stream is replayed in start order and in a seeded shuffle, so
// the gap timeline's middle inserts and deferred-buffer flushes run too.

/// One reservation of a real schedule plus the ready time of its probe.
struct Slot {
  double start = 0.0;
  double finish = 0.0;
  double ready = 0.0;
};

/// One stream per exclusive resource of `schedule`: each processor's
/// compute slots, then (one-port only) each send port and each receive
/// port, with one slot per live or `stale` message.
std::vector<std::vector<Slot>> streams_of(
    const TaskGraph& graph, const Schedule& schedule,
    const std::vector<CommPlacement>& stale, int processors, bool one_port) {
  const auto p = static_cast<std::size_t>(processors);
  std::vector<std::vector<Slot>> streams(one_port ? 3 * p : p);
  for (TaskId v = 0; v < schedule.num_tasks(); ++v) {
    const TaskPlacement& t = schedule.task(v);
    double ready = 0.0;
    for (const EdgeRef& e : graph.predecessors(v)) {
      ready = std::max(ready, schedule.task(e.task).finish);
    }
    streams[static_cast<std::size_t>(t.proc)].push_back(
        {t.start, t.finish, ready});
  }
  if (!one_port) return streams;
  const auto add_message = [&](const CommPlacement& c) {
    const Slot slot{c.start, c.finish, schedule.task(c.src).finish};
    streams[p + static_cast<std::size_t>(c.from)].push_back(slot);
    streams[2 * p + static_cast<std::size_t>(c.to)].push_back(slot);
  };
  for (const CommPlacement& c : schedule.comms()) add_message(c);
  for (const CommPlacement& c : stale) add_message(c);
  return streams;
}

/// Replays `stream` into both timelines, asserting bitwise agreement at
/// every step; accumulates the gap timeline's buffer statistics.
void replay_against_oracle(const std::vector<Slot>& stream,
                           GapTimeline::Stats& totals) {
  ReferenceTimeline reference;
  GapTimeline gap;
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const Slot& s = stream[k];
    const double duration = s.finish - s.start;
    ASSERT_EQ(reference.next_fit(s.ready, duration),
              gap.next_fit(s.ready, duration))
        << "step " << k << " ready=" << s.ready << " duration=" << duration;
    ASSERT_EQ(reference.is_free(s.start, s.finish),
              gap.is_free(s.start, s.finish))
        << "step " << k;
    reference.reserve(s.start, s.finish);
    gap.reserve(s.start, s.finish);
    ASSERT_EQ(reference.busy_intervals(), gap.busy_intervals())
        << "step " << k;
  }
  totals.deferred_inserts += gap.stats().deferred_inserts;
  totals.flushes += gap.stats().flushes;
}

/// Replays every stream in start order and in a seeded shuffle.
void replay_streams(const std::vector<std::vector<Slot>>& streams,
                    std::uint64_t seed, GapTimeline::Stats& totals) {
  SplitMix64 rng(seed);
  for (std::vector<Slot> stream : streams) {
    std::sort(stream.begin(), stream.end(), [](const Slot& a, const Slot& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.finish < b.finish;
    });
    replay_against_oracle(stream, totals);
    if (::testing::Test::HasFatalFailure()) return;
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.below(i)]);
    }
    replay_against_oracle(stream, totals);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Much larger DAGs on fewer processors than the sweep defaults: their
/// streams hold hundreds of busy intervals, long enough for shuffled
/// replays to defer middle inserts and flush the buffer.
testsupport::ScenarioOptions long_stream_options(int min_layers,
                                                 int max_layers) {
  testsupport::ScenarioOptions options;
  options.max_processors = 3;
  options.min_layers = min_layers;
  options.max_layers = max_layers;
  options.max_width = 12;
  return options;
}

void append(std::vector<testsupport::Scenario>& scenarios,
            std::vector<testsupport::Scenario> more) {
  for (testsupport::Scenario& scenario : more) {
    scenarios.push_back(std::move(scenario));
  }
}

TEST(TimelineOracleReplay, StaticSchedulesAgreeWithReference) {
  std::vector<testsupport::Scenario> scenarios =
      testsupport::scenario_sweep(8087, 8);
  append(scenarios, testsupport::edge_case_scenarios());
  append(scenarios, testsupport::routed_scenario_sweep(9091, 10));
  append(scenarios, testsupport::workload_scenario_sweep(9191, 4));
  const testsupport::ScenarioOptions long_streams =
      long_stream_options(150, 200);
  append(scenarios, testsupport::scenario_sweep(8095, 2, long_streams));
  append(scenarios, testsupport::routed_scenario_sweep(9101, 2, long_streams));
  GapTimeline::Stats totals;
  for (const testsupport::Scenario& scenario : scenarios) {
    const SchedulerConfig config{.ilha_chunk_size = 5,
                                 .routing = scenario.routing_ptr()};
    for (const SchedulerEntry& entry : builtin_schedulers(config)) {
      SCOPED_TRACE(scenario.description + " scheduler=" + entry.name);
      replay_streams(
          streams_of(scenario.graph,
                     entry.run(scenario.graph, scenario.platform), {},
                     scenario.platform.num_processors(),
                     entry.model == CommModel::kOnePort),
          scenario.seed, totals);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(totals.deferred_inserts, 0u);
  EXPECT_GT(totals.flushes, 0u);
}

TEST(TimelineOracleReplay, DynamicSchedulesAgreeWithReference) {
  std::vector<testsupport::Scenario> scenarios =
      testsupport::scenario_sweep(8187, 4);
  append(scenarios, testsupport::routed_scenario_sweep(9191, 5));
  // Every event re-seeds the timelines with the frozen prefix, so
  // smaller DAGs than the static test's already give long streams.
  append(scenarios,
         testsupport::scenario_sweep(8195, 1, long_stream_options(100, 130)));
  GapTimeline::Stats totals;
  std::size_t stale = 0;
  for (const testsupport::Scenario& scenario : scenarios) {
    const SchedulerConfig config{.ilha_chunk_size = 5,
                                 .routing = scenario.routing_ptr()};
    for (const SchedulerEntry& entry : builtin_schedulers(config)) {
      const Schedule initial = entry.run(scenario.graph, scenario.platform);
      for (const char* trace_name :
           {"slowdown", "dropout", "mixed", "arrival"}) {
        SCOPED_TRACE(scenario.description + " scheduler=" + entry.name +
                     " trace=" + std::string(trace_name));
        const dyn::EventTrace trace =
            dyn::make_named_trace(trace_name, scenario.graph,
                                  scenario.platform, initial, scenario.seed);
        dyn::DynamicOptions options;
        options.model = entry.model;
        const dyn::DynamicResult result =
            dyn::run_dynamic(scenario.graph, scenario.platform, entry.name,
                             config, trace, options);
        stale += result.stale_comms.size();
        replay_streams(
            streams_of(scenario.graph, result.schedule, result.stale_comms,
                       scenario.platform.num_processors(),
                       entry.model == CommModel::kOnePort),
            scenario.seed, totals);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(stale, 0u);
  EXPECT_GT(totals.deferred_inserts, 0u);
  EXPECT_GT(totals.flushes, 0u);
}

}  // namespace
}  // namespace oneport
