// The four workloads' inputs, all made from the workload seed, and the
// shared set-up measurement.
#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>

#include "analysis/topology_cache.hpp"
#include "core/registry.hpp"
#include "platform/platform.hpp"
#include "service/scheduler_service.hpp"
#include "testbeds/registry.hpp"

namespace perfbench {

namespace an = oneport::analysis;

namespace {

const std::vector<std::string> kOnePortSchedulers = {"heft-oneport",
                                                     "ilha-oneport"};

}  // namespace

bool is_sweep_workload(const std::string& name) {
  return name == "paper-static" || name == "routed-dynamic" ||
         name == "audit-small";
}

SweepWorkload make_sweep_workload(const std::string& name, std::uint64_t seed,
                                  const std::string& root) {
  SweepWorkload w;
  w.options.workers = kWorkers;
  w.options.validate = true;
  if (name == "paper-static") {
    // The paper's experiment (Figures 7-12): six kernels, three sizes,
    // HEFT and ILHA under the one-port model on the paper platform.  The
    // kernels are deterministic in n, so the seed changes nothing here.
    w.grid = an::make_sweep_grid(
        {"LU", "LAPLACE", "STENCIL", "FORK-JOIN", "DOOLITTLE", "LDMt"},
        {100, 200, 300}, kOnePortSchedulers);
  } else if (name == "routed-dynamic") {
    // Sparse networks with routing, static and fault-injected points,
    // rebalancing on.  The seed drives the random topology, the ':het'
    // link costs and the event-trace tie-breaks.
    w.grid = an::make_sweep_grid(
        {"LU", "STENCIL", "MLTRAIN"}, {30, 60}, kOnePortSchedulers, 10.0, 38,
        {"mesh4x4:het0.5", "torus4x4:alt", "fattree2x4", "random"},
        {"none", "mixed"}, {true});
    for (an::SweepPoint& point : w.grid) point.topology_seed = seed;
  } else if (name == "audit-small") {
    // Instances of at most 64 tasks, so the branch-and-bound audit runs
    // on every point, plus the three example traces once each.  The
    // seed changes nothing here: the node budget makes the audit
    // deterministic and the generators are deterministic in n.
    w.options.audit_gap = true;
    const std::vector<std::pair<std::string, std::vector<int>>> families = {
        {"LU", {5, 8, 11}},        {"FORK-JOIN", {8, 30, 60}},
        {"STENCIL", {4, 6, 8}},    {"MLTRAIN", {2, 3, 4}},
        {"MICROSVC", {4, 8, 12}}};
    for (const auto& [testbed, sizes] : families) {
      const std::vector<an::SweepPoint> part =
          an::make_sweep_grid({testbed}, sizes, kOnePortSchedulers);
      w.grid.insert(w.grid.end(), part.begin(), part.end());
    }
    for (const char* file :
         {"chain4.dot", "diamond.json", "etl_pipeline.dot"}) {
      const std::string trace = "trace:" + root + "/examples/traces/" + file;
      const std::vector<an::SweepPoint> part =
          an::make_sweep_grid({trace}, {1}, {"heft-oneport"});
      w.grid.insert(w.grid.end(), part.begin(), part.end());
    }
  } else {
    throw std::invalid_argument("unknown sweep workload '" + name + "'");
  }
  return w;
}

std::vector<an::SweepPoint> make_request_stream(std::uint64_t seed,
                                                std::size_t count) {
  // The service_cli default mix: small graphs, so the per-request fixed
  // costs (queueing, graph build, validation) show.  The stream is a
  // sequence of seeded shuffles of the 18 request kinds, so every window
  // of 18 requests holds each kind once: the seed changes the order, not
  // the composition, which keeps latency percentiles steady across seeds.
  std::vector<an::SweepPoint> deck;
  for (const char* testbed : {"LU", "FORK-JOIN", "STENCIL"}) {
    for (const int size : {20, 40, 80}) {
      for (const std::string& scheduler : kOnePortSchedulers) {
        an::SweepPoint point;
        point.testbed = testbed;
        point.size = size;
        point.scheduler = scheduler;
        deck.push_back(point);
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::vector<an::SweepPoint> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    std::shuffle(deck.begin(), deck.end(), rng);
    for (const an::SweepPoint& point : deck) {
      if (stream.size() < count) stream.push_back(point);
    }
  }
  return stream;
}

std::vector<an::SweepPoint> distinct_points(
    const std::vector<an::SweepPoint>& jobs) {
  std::set<std::tuple<std::string, int, std::string, std::string,
                      std::uint64_t, std::string, bool>>
      seen;
  std::vector<an::SweepPoint> out;
  for (const an::SweepPoint& p : jobs) {
    if (seen.emplace(p.testbed, p.size, p.scheduler, p.topology,
                     p.topology_seed, p.events, p.rebalance)
            .second) {
      out.push_back(p);
    }
  }
  return out;
}

oneport::service::ServiceOptions service_options() {
  // Default queue depth, batch size and backpressure (block); kWorkers
  // shards; validation on.
  oneport::service::ServiceOptions options;
  options.shards = static_cast<unsigned>(kWorkers);
  options.validate = true;
  return options;
}

namespace {

/// One set-up; returns (seconds, route builds, route build ns).
std::tuple<double, std::size_t, double> set_up_once(const Options& options,
                                                    Tracer* tracer) {
  const std::int64_t start = now_ns();
  std::int32_t root = -1;
  if (tracer != nullptr) root = tracer->open("setup", 0);
  const auto timed = [tracer](const char* name, auto&& fn) {
    if (tracer == nullptr) {
      fn();
      return;
    }
    const ScopedSpan span(*tracer, name, 0);
    fn();
  };

  const oneport::Platform platform = oneport::make_paper_platform();
  const bool sweep = is_sweep_workload(options.workload);
  const std::vector<an::SweepPoint> jobs =
      sweep ? make_sweep_workload(options.workload, options.seed,
                                  options.root)
                  .grid
            : make_request_stream(options.seed, kStreamLength);

  std::size_t route_builds = 0;
  double route_ns = 0.0;
  an::ShardedTopologyCache cache(static_cast<std::size_t>(kWorkers));
  std::set<std::pair<std::string, int>> graphs;
  for (const an::SweepPoint& point : distinct_points(jobs)) {
    if (graphs.emplace(point.testbed, point.size).second) {
      timed("testbeds.make", [&] {
        const oneport::TaskGraph graph =
            oneport::testbeds::find_testbed(point.testbed)
                .make(point.size, point.comm_ratio);
      });
    }
    timed("core.resolve", [&] {
      (void)oneport::find_scheduler(point.scheduler, point.chunk_size);
    });
    if (point.topology != "full") {
      const std::size_t before = cache.total_entries();
      const std::int64_t t0 = now_ns();
      timed("platform.build", [&] {
        (void)cache.get(point.topology, platform.cycle_times(), 1.0,
                        point.topology_seed);
      });
      if (cache.total_entries() > before) {
        ++route_builds;
        route_ns += static_cast<double>(now_ns() - t0);
      }
    }
  }

  // run_sweep starts its own worker pool on every call, so only the
  // service has an executor to start here.
  if (!sweep) {
    timed("service.start", [&] {
      oneport::service::SchedulerService service(platform, service_options());
      service.stop();
    });
  }
  if (tracer != nullptr) tracer->close(root);
  return {static_cast<double>(now_ns() - start) / 1e9, route_builds,
          route_ns};
}

}  // namespace

SetupReport measure_setup(const Options& options, Tracer* tracer) {
  // At least kSetupReps set-ups, and more while they take under
  // kSetupMinSeconds in total, so a set-up of a millisecond still gets a
  // steady median.
  std::vector<double> seconds;
  std::vector<double> route_ms;
  SetupReport report;
  const std::int64_t start = now_ns();
  while (seconds.size() < kSetupReps ||
         (static_cast<double>(now_ns() - start) < kSetupMinSeconds * 1e9 &&
          seconds.size() < kSetupMaxReps)) {
    const auto [s, builds, ns] = set_up_once(options, tracer);
    seconds.push_back(s);
    route_ms.push_back(ns / 1e6);
    report.route_builds = builds;
  }
  report.median_s = median(seconds);
  report.route_build_ms = median(route_ms);
  return report;
}

}  // namespace perfbench
