#include "mirror.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "analysis/metrics.hpp"
#include "analysis/topology_cache.hpp"
#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "exact/branch_bound.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"

namespace perfbench {

namespace an = oneport::analysis;
namespace prof = oneport::prof;

void JobTotals::add(const JobFacts& facts) {
  ++jobs;
  tasks += facts.tasks;
  if (facts.validated) validated_tasks += facts.tasks;
  if (facts.dynamic) ++dynamic_jobs;
  epochs += facts.epochs;
  suffix_tasks += facts.suffix_tasks;
  rebalance_moves += facts.rebalance_moves;
  if (facts.audited) ++audited_jobs;
  if (facts.proven) ++proven_jobs;
  bb_nodes += facts.bb_nodes;
}

an::SweepResult mirror_point(const an::SweepPoint& point,
                             const oneport::Platform& platform,
                             const an::SweepOptions& options, Tracer& tracer,
                             std::uint64_t request, JobFacts& facts) {
  const ScopedSpan root(tracer, "analysis.point", request);
  const bool one_port = point.scheduler.find("oneport") != std::string::npos;

  std::unique_ptr<oneport::TaskGraph> graph_slot;
  {
    const ScopedSpan span(tracer, "testbeds.make", request);
    graph_slot = std::make_unique<oneport::TaskGraph>(
        oneport::testbeds::find_testbed(point.testbed)
            .make(point.size, point.comm_ratio));
  }
  const oneport::TaskGraph& graph = *graph_slot;

  const bool routed = point.topology != "full";
  std::shared_ptr<const oneport::RoutedPlatform> sparse;
  if (routed) {
    const ScopedSpan span(tracer, "platform.get", request);
    sparse = an::process_topology_cache().get(
        point.topology, platform.cycle_times(), 1.0, point.topology_seed);
  }
  const oneport::Platform& target = routed ? sparse->platform : platform;
  const oneport::SchedulerConfig config{
      .ilha_chunk_size = point.chunk_size,
      .routing = routed ? &sparse->routing : nullptr};

  std::unique_ptr<oneport::Schedule> schedule;
  {
    const ScopedSpan span(tracer, "core.schedule", request);
    schedule = std::make_unique<oneport::Schedule>(
        oneport::find_scheduler(point.scheduler, config).run(graph, target));
  }

  an::SweepResult out;
  if (point.events != "none") {
    facts.dynamic = true;
    std::unique_ptr<oneport::dyn::EventTrace> trace;
    {
      const ScopedSpan span(tracer, "dynamic.trace", request);
      trace = std::make_unique<oneport::dyn::EventTrace>(
          oneport::dyn::make_named_trace(point.events, graph, target,
                                         *schedule, point.topology_seed));
    }
    oneport::dyn::DynamicOptions dyn_options;
    dyn_options.model = one_port ? oneport::CommModel::kOnePort
                                 : oneport::CommModel::kMacroDataflow;
    dyn_options.rebalance = point.rebalance;
    std::unique_ptr<oneport::dyn::DynamicResult> dynamic;
    {
      const ScopedSpan span(tracer, "dynamic.run", request);
      dynamic = std::make_unique<oneport::dyn::DynamicResult>(
          oneport::dyn::run_dynamic(graph, target, point.scheduler, config,
                                    *trace, dyn_options));
    }
    *schedule = dynamic->schedule;
    for (const oneport::dyn::EpochSnapshot& epoch : dynamic->epochs) {
      out.imbalance_before = std::max(out.imbalance_before,
                                      epoch.imbalance_before);
      out.imbalance_after = std::max(out.imbalance_after,
                                     epoch.imbalance_after);
      facts.suffix_tasks += static_cast<std::size_t>(epoch.suffix_tasks);
      facts.rebalance_moves +=
          static_cast<std::size_t>(epoch.rebalance_moves);
    }
    facts.epochs = dynamic->epochs.empty() ? 0 : dynamic->epochs.size() - 1;
  } else if (options.validate) {
    const ScopedSpan span(tracer, "sched.validate", request);
    const oneport::ValidationResult result =
        one_port ? oneport::validate_one_port(*schedule, graph, target)
                 : oneport::validate_macro_dataflow(*schedule, graph, target);
    facts.validated = true;
    if (!result.ok()) {
      throw std::logic_error("mirror: " + label(point) +
                             " schedule invalid: " + result.message());
    }
  }

  out.point = point;
  out.num_tasks = graph.num_tasks();
  out.makespan = schedule->makespan();
  out.speedup = an::speedup(graph, target, *schedule);
  out.num_comms = schedule->num_comms();
  facts.tasks = graph.num_tasks();

  if (options.audit_gap && point.events == "none" &&
      graph.num_tasks() <= static_cast<std::size_t>(options.audit_max_tasks)) {
    oneport::exact::BranchBoundOptions bb;
    bb.node_budget = options.audit_node_budget;
    bb.max_search_tasks = options.audit_max_tasks;
    bb.routing = routed ? &sparse->routing : nullptr;
    oneport::exact::BranchBoundResult lb;
    {
      const ScopedSpan span(tracer, "exact.bb", request);
      lb = oneport::exact::branch_bound_lower_bound(graph, target, bb);
    }
    out.audited = true;
    out.lower_bound = lb.lower_bound;
    out.lb_proven = lb.proven_optimal;
    out.optimality_gap = an::optimality_gap(out.makespan, lb.lower_bound);
    facts.audited = true;
    facts.proven = lb.proven_optimal;
    facts.bb_nodes = lb.nodes_expanded;
  }
  return out;
}

void report_layers(Result& out, const std::map<std::string, SpanTotals>& totals,
                   const JobTotals& jobs, const prof::Counts& counts,
                   const SetupReport& setup, double wall_ns, int workers,
                   std::size_t passes) {
  const auto self = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns;
  };
  const auto total = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns;
  };
  const auto calls = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto count = [&counts](prof::Counter c) {
    return static_cast<double>(counts[static_cast<std::size_t>(c)]);
  };
  const double n_jobs = static_cast<double>(jobs.jobs);
  const double tasks = static_cast<double>(jobs.tasks);
  const double job_ns = total("analysis.point") + total("analysis.emit");
  const auto per_job_ms = [&](double ns) { return ratio(ns, n_jobs) / 1e6; };

  const double make = self("testbeds.make");
  out.set("testbeds.build_ms", per_job_ms(make), "ms");
  out.set("testbeds.ns_per_task", ratio(make, tasks), "ns/task");
  out.set("testbeds.share", ratio(make, job_ns), "frac");

  out.set("platform.route_build_ms", setup.route_build_ms, "ms");
  out.set("platform.cache_misses", static_cast<double>(setup.route_builds),
          "count");
  out.set("platform.cache_get_us",
          ratio(total("platform.get"), calls("platform.get")) / 1e3, "us");
  out.set("platform.share", ratio(self("platform.get"), job_ns), "frac");

  const double sched = self("core.schedule");
  const double evals = count(prof::Counter::kPruneEvals);
  const double skips = count(prof::Counter::kPruneSkips);
  const double commits = count(prof::Counter::kEngineCommits);
  out.set("core.sched_ms", per_job_ms(sched), "ms");
  out.set("core.ns_per_task", ratio(sched, tasks), "ns/task");
  out.set("core.share", ratio(sched, job_ns), "frac");
  out.set("core.prune_skip_frac", ratio(skips, evals + skips), "frac");
  out.set("core.evals_per_commit", ratio(evals, commits), "count");
  out.set("core.overlay_resets_per_commit",
          ratio(count(prof::Counter::kOverlayResets), commits), "count");

  const double validate = self("sched.validate");
  const double next_fit = count(prof::Counter::kTimelineNextFit);
  out.set("sched.validate_ms", per_job_ms(validate), "ms");
  out.set("sched.validate_ns_per_task",
          ratio(validate, static_cast<double>(jobs.validated_tasks)),
          "ns/task");
  out.set("sched.validate_share", ratio(validate, job_ns), "frac");
  out.set("sched.horizon_hit_frac",
          ratio(count(prof::Counter::kTimelineHorizonHits), next_fit), "frac");
  out.set("sched.next_fit_per_task", ratio(next_fit, tasks), "count");

  const double trace = self("dynamic.trace");
  const double resched = self("dynamic.run");
  const double dyn_jobs = static_cast<double>(jobs.dynamic_jobs);
  out.set("dynamic.trace_ms", per_job_ms(trace), "ms");
  out.set("dynamic.reschedule_ms", per_job_ms(resched), "ms");
  out.set("dynamic.epochs", ratio(static_cast<double>(jobs.epochs), dyn_jobs),
          "count");
  out.set("dynamic.suffix_tasks",
          ratio(static_cast<double>(jobs.suffix_tasks), dyn_jobs), "count");
  out.set("dynamic.ns_per_suffix_task",
          ratio(resched, static_cast<double>(jobs.suffix_tasks)), "ns/task");
  out.set("dynamic.rebalance_moves",
          ratio(static_cast<double>(jobs.rebalance_moves), dyn_jobs), "count");
  out.set("dynamic.share", ratio(trace + resched, job_ns), "frac");

  const double bb = self("exact.bb");
  const double audited = static_cast<double>(jobs.audited_jobs);
  out.set("exact.bb_ms", per_job_ms(bb), "ms");
  out.set("exact.nodes_expanded",
          ratio(static_cast<double>(jobs.bb_nodes), audited), "count");
  out.set("exact.ns_per_node", ratio(bb, static_cast<double>(jobs.bb_nodes)),
          "ns/node");
  out.set("exact.proven_frac",
          ratio(static_cast<double>(jobs.proven_jobs), audited), "frac");
  out.set("exact.share", ratio(bb, job_ns), "frac");

  out.set("analysis.point_ms", per_job_ms(total("analysis.point")), "ms");
  out.set("analysis.emit_ms",
          ratio(total("analysis.emit"), static_cast<double>(passes)) / 1e6,
          "ms");
  out.set("analysis.pool_util",
          ratio(total("analysis.point"), wall_ns * workers), "frac");
  out.set("analysis.share",
          ratio(self("analysis.point") + self("analysis.emit"), job_ns),
          "frac");
}

}  // namespace perfbench
