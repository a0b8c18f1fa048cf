// The traced mirror of analysis::run_sweep_point: the same public calls,
// in the same order, each inside a span named after its layer, so a
// point's time splits into testbeds / platform / core / sched / dynamic /
// exact / analysis.  The callers compare every mirrored result with the
// program's own result for the same point bit for bit, which keeps the
// mirror from drifting away from the code it times.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "analysis/experiment.hpp"
#include "bench.hpp"
#include "platform/platform.hpp"
#include "spans.hpp"
#include "util/profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the mirror saw of one job, besides its spans.
struct JobFacts {
  std::size_t tasks = 0;
  bool validated = false;
  bool dynamic = false;
  std::size_t epochs = 0;        ///< rescheduling epochs (initial excluded)
  std::size_t suffix_tasks = 0;  ///< tasks rescheduled over all epochs
  std::size_t rebalance_moves = 0;
  bool audited = false;
  bool proven = false;
  std::uint64_t bb_nodes = 0;
};

/// Sums of JobFacts over the mirrored jobs.
struct JobTotals {
  std::size_t jobs = 0;
  std::size_t tasks = 0;
  std::size_t validated_tasks = 0;
  std::size_t dynamic_jobs = 0;
  std::size_t epochs = 0;
  std::size_t suffix_tasks = 0;
  std::size_t rebalance_moves = 0;
  std::size_t audited_jobs = 0;
  std::size_t proven_jobs = 0;
  std::uint64_t bb_nodes = 0;

  void add(const JobFacts& facts);
};

/// Replays run_sweep_point(point, platform, options) under a root span
/// "analysis.point" tagged with `request`.  Routed points look their
/// network up in the process-wide topology cache, as run_sweep does.
[[nodiscard]] oneport::analysis::SweepResult mirror_point(
    const oneport::analysis::SweepPoint& point,
    const oneport::Platform& platform,
    const oneport::analysis::SweepOptions& options, Tracer& tracer,
    std::uint64_t request, JobFacts& facts);

/// Per-layer metrics of the mirrored jobs: `totals` summarizes the spans
/// under the "analysis.point" and "analysis.emit" roots, `counts` is the
/// profiler aggregate over the same jobs, `wall_ns` the wall time the
/// jobs ran in on `workers` threads, and `passes` the number of emitted
/// result tables.  Routing-build figures come from the set-up.
void report_layers(Result& out, const std::map<std::string, SpanTotals>& totals,
                   const JobTotals& jobs, const oneport::prof::Counts& counts,
                   const SetupReport& setup, double wall_ns, int workers,
                   std::size_t passes);

}  // namespace perfbench
