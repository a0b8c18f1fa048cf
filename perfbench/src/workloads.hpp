// Workload inputs and the set-up measurement shared by both workload
// families.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "bench.hpp"
#include "platform/platform.hpp"
#include "service/scheduler_service.hpp"
#include "spans.hpp"

namespace perfbench {

/// A batch workload: one run_sweep grid plus the options it runs under.
struct SweepWorkload {
  std::vector<oneport::analysis::SweepPoint> grid;
  oneport::analysis::SweepOptions options;
};

/// The three run_sweep workloads ("paper-static", "routed-dynamic",
/// "audit-small"); throws std::invalid_argument for any other name.
[[nodiscard]] SweepWorkload make_sweep_workload(const std::string& name,
                                                std::uint64_t seed,
                                                const std::string& root);

/// The service-mix request stream: `count` requests over
/// {LU, FORK-JOIN, STENCIL} x {20, 40, 80} x {heft, ilha}-oneport, in
/// seeded shuffles of the 18 kinds.
[[nodiscard]] std::vector<oneport::analysis::SweepPoint> make_request_stream(
    std::uint64_t seed, std::size_t count);

[[nodiscard]] bool is_sweep_workload(const std::string& name);

/// Wall times of back-to-back passes over one grid.
struct Passes {
  std::vector<double> wall_s;
  std::size_t tasks_per_pass = 0;

  [[nodiscard]] double median_tasks_per_s() const;
};

/// Untraced passes of run_sweep + sweep_table + CSV emit over `w.grid`
/// for at least `seconds` (and at least three); each pass must reproduce
/// `reference` bit for bit.
[[nodiscard]] Passes run_passes(
    Result& out, const SweepWorkload& w, const oneport::Platform& platform,
    const std::vector<oneport::analysis::SweepResult>& reference,
    double seconds);

/// Requests in the pre-generated service-mix stream; the open loop wraps
/// around if a run submits more.
inline constexpr std::size_t kStreamLength = 16384;

/// First occurrence of each distinct point, in input order.
[[nodiscard]] std::vector<oneport::analysis::SweepPoint> distinct_points(
    const std::vector<oneport::analysis::SweepPoint>& jobs);

/// The service configuration every service-mix phase runs.
[[nodiscard]] oneport::service::ServiceOptions service_options();

/// Set-up runs at least kSetupReps times per run; setup_s is the median.
/// It repeats past kSetupReps while the repetitions so far took less
/// than this, up to kSetupMaxReps.
inline constexpr std::size_t kSetupReps = 5;
inline constexpr double kSetupMinSeconds = 0.5;
inline constexpr std::size_t kSetupMaxReps = 400;

struct SetupReport {
  double median_s = 0.0;        ///< median set-up wall time
  double route_build_ms = 0.0;  ///< median routing-table build time
  std::size_t route_builds = 0; ///< networks built (cache misses) per set-up
};

/// Runs repeated set-ups and reports their medians.  One set-up makes
/// the workload's inputs from the seed, builds the paper platform, builds
/// each distinct job's task graph and resolves its scheduler (a bad name
/// fails here, before timing), builds each routed network into a fresh
/// topology cache, and, for service-mix, starts and stops the service.
/// With a tracer, each step is a span under a "setup" root.
[[nodiscard]] SetupReport measure_setup(const Options& options,
                                        Tracer* tracer);

/// Sets the service layer's per-layer metrics to 0, for workloads that
/// do not go through the service.
void report_service_bypassed(Result& out);

}  // namespace perfbench
