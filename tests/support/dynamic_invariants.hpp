// Extended P1-P5 checkers for online rescheduling (src/dynamic): replay
// the frozen prefix across epochs and validate each epoch's rescheduled
// suffix hop by hop, including under routed topologies.
//
// A DynamicResult is not one schedule but a *history*: epochs[0] is the
// initial static schedule and every event contributes a snapshot of the
// composite state right after its reschedule.  The static validators
// cannot judge it (task durations follow the cycle time in force when
// the task started, superseded messages occupy ports without delivering
// anything), so this checker re-derives the rules epoch by epoch:
//
//   D1 structure      one epoch per event, times match the trace, the
//                     final schedule is the last snapshot and covers
//                     every task;
//   D2 frozen prefix  anything started before an event keeps its exact
//                     placement in every later epoch, messages that ran
//                     are never dropped (they move to the stale list at
//                     worst), and new placements never start before the
//                     event that caused them;
//   D3 epoch validity per epoch: placements on valid processors, no
//                     task starts on a dropped processor at or after
//                     the drop, durations match the epoch-attributed
//                     cycle times, compute exclusivity, one-port send/
//                     receive exclusivity over live AND stale messages,
//                     and every cross-processor edge carried by a chain
//                     that leaves after the source finishes, hops in
//                     order along the routed path, and lands before the
//                     sink starts -- with per-hop durations priced by
//                     the link matrix;
//   D4 lower bounds   the final makespan dominates optimistic area /
//                     critical-path / release-time bounds built from
//                     the *best* cycle time any epoch ever offered.
#pragma once

#include <string>
#include <vector>

#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "sched/replay.hpp"
#include "support/scenario.hpp"

namespace oneport::testsupport {

/// Inputs of one dynamic run under test.
struct DynamicScenario {
  const Scenario* base = nullptr;  ///< graph + platform (+ routing)
  CommModel model = CommModel::kOnePort;
  dyn::EventTrace trace;
  std::string description;
};

[[nodiscard]] std::vector<std::string> check_dynamic_structure(
    const DynamicScenario& scenario, const dyn::DynamicResult& result);

[[nodiscard]] std::vector<std::string> check_frozen_prefix(
    const DynamicScenario& scenario, const dyn::DynamicResult& result);

[[nodiscard]] std::vector<std::string> check_epoch_validity(
    const DynamicScenario& scenario, const dyn::DynamicResult& result);

[[nodiscard]] std::vector<std::string> check_dynamic_lower_bounds(
    const DynamicScenario& scenario, const dyn::DynamicResult& result);

/// Runs D1-D4 and returns every violation, each prefixed with the
/// scenario description and the property id (mirrors
/// check_all_invariants for static schedules).
[[nodiscard]] std::vector<std::string> check_all_dynamic_invariants(
    const DynamicScenario& scenario, const dyn::DynamicResult& result);

}  // namespace oneport::testsupport
