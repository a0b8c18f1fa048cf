#include "support/dynamic_invariants.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/interval.hpp"

namespace oneport::testsupport {
namespace {

using dyn::DynamicResult;
using dyn::EpochSnapshot;
using dyn::EventKind;
using dyn::PlatformEvent;

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string comm_str(const CommPlacement& c) {
  std::ostringstream os;
  os << c.src << "->" << c.dst << " P" << c.from << "->P" << c.to << " ["
     << fmt(c.start) << "," << fmt(c.finish) << ")";
  return os.str();
}

using CommKey = std::tuple<TaskId, TaskId, ProcId, ProcId, double, double>;

CommKey key_of(const CommPlacement& c) {
  return {c.src, c.dst, c.from, c.to, c.start, c.finish};
}

/// Sorted keys of an epoch's live + stale messages, for exact membership
/// queries.
std::vector<CommKey> all_comm_keys(const EpochSnapshot& epoch) {
  std::vector<CommKey> keys;
  keys.reserve(epoch.schedule.comms().size() + epoch.stale_comms.size());
  for (const CommPlacement& c : epoch.schedule.comms()) {
    keys.push_back(key_of(c));
  }
  for (const CommPlacement& c : epoch.stale_comms) keys.push_back(key_of(c));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Index of the epoch whose platform state governs a reservation
/// starting at `start`: the last epoch at or before it.  Several epochs
/// can share a time; the later one wins, matching the event loop
/// (anything placed by an earlier same-time epoch is rescheduled by the
/// later one).
std::size_t epoch_at(const std::vector<EpochSnapshot>& epochs,
                     std::size_t limit, double start) {
  std::size_t j = 0;
  for (std::size_t k = 1; k < limit; ++k) {
    if (epochs[k].time <= start + kTimeEps) j = k;
  }
  return j;
}

/// Exclusive-resource check shared by compute and port rules: intervals
/// sorted by start must never overlap (touching allowed, degenerate
/// intervals ignored -- the overlaps() tolerance contract).
void check_exclusive(std::vector<Interval> ivs, const std::string& what,
                     std::vector<std::string>& errors) {
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  });
  double cursor = -1e300;
  for (const Interval& iv : ivs) {
    if (iv.degenerate()) continue;
    if (iv.start < cursor - kTimeEps) {
      errors.push_back(what + " overlap at [" + fmt(iv.start) + "," +
                       fmt(iv.end) + ")");
    }
    cursor = std::max(cursor, iv.end);
  }
}

}  // namespace

std::vector<std::string> check_dynamic_structure(
    const DynamicScenario& scenario, const DynamicResult& result) {
  std::vector<std::string> errors;
  const TaskGraph& g = scenario.base->graph;
  if (result.epochs.size() != scenario.trace.size() + 1) {
    errors.push_back("expected " + std::to_string(scenario.trace.size() + 1) +
                     " epochs, got " + std::to_string(result.epochs.size()));
    return errors;
  }
  if (result.epochs[0].time != 0.0) {
    errors.push_back("initial epoch time is " +
                     fmt(result.epochs[0].time) + ", not 0");
  }
  for (std::size_t k = 0; k < scenario.trace.size(); ++k) {
    if (result.epochs[k + 1].time != scenario.trace[k].time ||
        !(result.epochs[k + 1].event == scenario.trace[k])) {
      errors.push_back("epoch " + std::to_string(k + 1) +
                       " does not match trace event " + std::to_string(k));
    }
  }
  const EpochSnapshot& last = result.epochs.back();
  if (result.schedule.tasks() != last.schedule.tasks() ||
      result.schedule.comms() != last.schedule.comms()) {
    errors.push_back("final schedule differs from the last snapshot");
  }
  if (result.stale_comms != last.stale_comms) {
    errors.push_back("final stale list differs from the last snapshot");
  }
  if (result.schedule.num_tasks() != g.num_tasks()) {
    errors.push_back("final schedule has " +
                     std::to_string(result.schedule.num_tasks()) +
                     " tasks, graph has " + std::to_string(g.num_tasks()));
  } else if (!result.schedule.complete()) {
    errors.push_back("final schedule leaves tasks unplaced");
  }
  if (result.release.size() != g.num_tasks()) {
    errors.push_back("release vector arity mismatch");
  }
  return errors;
}

std::vector<std::string> check_frozen_prefix(const DynamicScenario& scenario,
                                             const DynamicResult& result) {
  (void)scenario;  // the property is intrinsic to the epoch history
  std::vector<std::string> errors;
  for (std::size_t k = 1; k < result.epochs.size(); ++k) {
    const EpochSnapshot& prev = result.epochs[k - 1];
    const EpochSnapshot& cur = result.epochs[k];
    const double now = cur.time;
    const std::string tag = "epoch " + std::to_string(k) + " (t=" +
                            fmt(now) + "): ";

    // Tasks: started-before-the-event placements replay identically;
    // everything else is re-placed no earlier than the event.
    for (TaskId v = 0; v < prev.schedule.num_tasks(); ++v) {
      const TaskPlacement& before = prev.schedule.task(v);
      const TaskPlacement& after = cur.schedule.task(v);
      if (before.placed() && before.start < now - kTimeEps) {
        if (!(after == before)) {
          errors.push_back(tag + "frozen task " + std::to_string(v) +
                           " moved");
        }
      } else if (after.placed() && after.start < now - kTimeEps) {
        errors.push_back(tag + "task " + std::to_string(v) +
                         " rescheduled into the past (start " +
                         fmt(after.start) + ")");
      }
    }

    // Messages: anything that started keeps existing, live or stale.
    const std::vector<CommKey> pool = all_comm_keys(cur);
    for (const CommPlacement& c : prev.schedule.comms()) {
      if (c.start >= now - kTimeEps) continue;  // cancelled before it ran
      if (!std::binary_search(pool.begin(), pool.end(), key_of(c))) {
        errors.push_back(tag + "started message vanished: " + comm_str(c));
      }
    }
    // The stale list only ever grows, in order.
    if (prev.stale_comms.size() > cur.stale_comms.size() ||
        !std::equal(prev.stale_comms.begin(), prev.stale_comms.end(),
                    cur.stale_comms.begin())) {
      errors.push_back(tag + "stale list is not append-only");
    }
  }
  return errors;
}

std::vector<std::string> check_epoch_validity(const DynamicScenario& scenario,
                                              const DynamicResult& result) {
  std::vector<std::string> errors;
  const TaskGraph& g = scenario.base->graph;
  const Platform& platform = scenario.base->platform;
  const RoutingTable* routing = scenario.base->routing_ptr();
  const int p = platform.num_processors();

  // Drop instants, accumulated as the trace unfolds.
  std::vector<double> drop_time(static_cast<std::size_t>(p), -1.0);

  for (std::size_t k = 0; k < result.epochs.size(); ++k) {
    const EpochSnapshot& epoch = result.epochs[k];
    const Schedule& sched = epoch.schedule;
    const std::string tag = "epoch " + std::to_string(k) + ": ";
    if (k > 0 && epoch.event.kind == EventKind::kDropout) {
      drop_time[static_cast<std::size_t>(epoch.event.proc)] = epoch.time;
    }

    // Placement rules per task.
    std::vector<std::vector<Interval>> compute(static_cast<std::size_t>(p));
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      const TaskPlacement& t = sched.task(v);
      if (!epoch.known[v]) {
        if (t.placed()) {
          errors.push_back(tag + "unknown task " + std::to_string(v) +
                           " is placed");
        }
        continue;
      }
      if (!t.placed()) {
        errors.push_back(tag + "known task " + std::to_string(v) +
                         " is unplaced");
        continue;
      }
      if (t.proc < 0 || t.proc >= p) {
        errors.push_back(tag + "task " + std::to_string(v) +
                         " on invalid processor " + std::to_string(t.proc));
        continue;
      }
      const double dropped_at = drop_time[static_cast<std::size_t>(t.proc)];
      if (dropped_at >= 0.0 && t.start >= dropped_at - kTimeEps) {
        errors.push_back(tag + "task " + std::to_string(v) +
                         " starts on P" + std::to_string(t.proc) +
                         " after it dropped out at " + fmt(dropped_at));
      }
      if (t.start < result.release[v] - kTimeEps) {
        errors.push_back(tag + "task " + std::to_string(v) + " starts at " +
                         fmt(t.start) + " before its release " +
                         fmt(result.release[v]));
      }
      // Duration follows the cycle time of the epoch the start falls in.
      const std::size_t j = epoch_at(result.epochs, k + 1, t.start);
      const double cycle =
          result.epochs[j].cycle_times[static_cast<std::size_t>(t.proc)];
      const double expected = g.weight(v) * cycle;
      if (std::abs((t.finish - t.start) - expected) > kTimeEps) {
        errors.push_back(tag + "task " + std::to_string(v) + " runs for " +
                         fmt(t.finish - t.start) + ", epoch " +
                         std::to_string(j) + " cycle time says " +
                         fmt(expected));
      }
      compute[static_cast<std::size_t>(t.proc)].push_back(
          {t.start, t.finish});
    }
    for (ProcId q = 0; q < p; ++q) {
      check_exclusive(std::move(compute[static_cast<std::size_t>(q)]),
                      tag + "compute P" + std::to_string(q), errors);
    }

    // One-port exclusivity over live AND stale messages: retired
    // messages still occupied their ports.
    if (scenario.model == CommModel::kOnePort) {
      std::vector<std::vector<Interval>> send(static_cast<std::size_t>(p));
      std::vector<std::vector<Interval>> recv(static_cast<std::size_t>(p));
      const auto absorb = [&](const CommPlacement& c) {
        if (c.from >= 0 && c.from < p && c.to >= 0 && c.to < p) {
          send[static_cast<std::size_t>(c.from)].push_back(
              {c.start, c.finish});
          recv[static_cast<std::size_t>(c.to)].push_back(
              {c.start, c.finish});
        }
      };
      for (const CommPlacement& c : sched.comms()) absorb(c);
      for (const CommPlacement& c : epoch.stale_comms) absorb(c);
      for (ProcId q = 0; q < p; ++q) {
        check_exclusive(std::move(send[static_cast<std::size_t>(q)]),
                        tag + "send port P" + std::to_string(q), errors);
        check_exclusive(std::move(recv[static_cast<std::size_t>(q)]),
                        tag + "recv port P" + std::to_string(q), errors);
      }
    }

    // Live chains: every cross-processor edge between placed tasks is
    // carried by exactly the routed hops, in order and on time.
    std::map<std::pair<TaskId, TaskId>, std::vector<const CommPlacement*>>
        by_edge;
    bool comms_ok = true;
    for (const CommPlacement& c : sched.comms()) {
      if (c.src >= g.num_tasks() || c.dst >= g.num_tasks() ||
          !g.has_edge(c.src, c.dst)) {
        errors.push_back(tag + "live message for non-edge " + comm_str(c));
        comms_ok = false;
        continue;
      }
      by_edge[{c.src, c.dst}].push_back(&c);
    }
    if (!comms_ok) continue;
    for (TaskId u = 0; u < g.num_tasks(); ++u) {
      const TaskPlacement& su = sched.task(u);
      if (!su.placed()) continue;
      for (const EdgeRef& e : g.successors(u)) {
        const TaskId v = e.task;
        const TaskPlacement& sv = sched.task(v);
        if (!sv.placed()) {
          if (by_edge.contains({u, v})) {
            errors.push_back(tag + "live chain for edge to unplaced task " +
                             std::to_string(v));
          }
          continue;
        }
        const std::string edge_name =
            std::to_string(u) + "->" + std::to_string(v);
        auto it = by_edge.find({u, v});
        if (su.proc == sv.proc) {
          if (it != by_edge.end()) {
            errors.push_back(tag + "message for co-located edge " +
                             edge_name);
          }
          continue;
        }
        if (it == by_edge.end()) {
          errors.push_back(tag + "cross-processor edge " + edge_name +
                           " has no chain");
          continue;
        }
        std::vector<const CommPlacement*>& msgs = it->second;
        std::sort(msgs.begin(), msgs.end(),
                  [](const CommPlacement* a, const CommPlacement* b) {
                    return a->start < b->start;
                  });
        const std::vector<ProcId> path =
            routing != nullptr
                ? routing->path(su.proc, sv.proc)
                : std::vector<ProcId>{su.proc, sv.proc};
        if (msgs.size() != path.size() - 1) {
          errors.push_back(tag + "edge " + edge_name + " carried by " +
                           std::to_string(msgs.size()) +
                           " hops; the routed path needs " +
                           std::to_string(path.size() - 1));
          continue;
        }
        double cursor = su.finish;
        for (std::size_t h = 0; h < msgs.size(); ++h) {
          const CommPlacement& c = *msgs[h];
          if (c.from != path[h] || c.to != path[h + 1]) {
            errors.push_back(tag + "edge " + edge_name + " hop " +
                             std::to_string(h) + " travels P" +
                             std::to_string(c.from) + "->P" +
                             std::to_string(c.to) +
                             " but the routed path says P" +
                             std::to_string(path[h]) + "->P" +
                             std::to_string(path[h + 1]));
            break;
          }
          const double duration = platform.comm_time(e.data, c.from, c.to);
          if (std::abs((c.finish - c.start) - duration) > kTimeEps) {
            errors.push_back(tag + "edge " + edge_name + " hop " +
                             std::to_string(h) + " lasts " +
                             fmt(c.finish - c.start) +
                             ", the link matrix says " + fmt(duration));
          }
          if (c.start < cursor - kTimeEps) {
            errors.push_back(tag + "edge " + edge_name + " hop " +
                             std::to_string(h) + " starts at " +
                             fmt(c.start) + " before its data is ready at " +
                             fmt(cursor));
          }
          cursor = std::max(cursor, c.finish);
        }
        if (cursor > sv.start + kTimeEps) {
          errors.push_back(tag + "edge " + edge_name + " delivers at " +
                           fmt(cursor) + " after the sink starts at " +
                           fmt(sv.start));
        }
      }
    }
  }
  return errors;
}

std::vector<std::string> check_dynamic_lower_bounds(
    const DynamicScenario& scenario, const DynamicResult& result) {
  std::vector<std::string> errors;
  const TaskGraph& g = scenario.base->graph;
  const Platform& platform = scenario.base->platform;
  const int p = platform.num_processors();
  const double makespan = result.schedule.makespan();

  // The most optimistic cycle time any epoch ever offered, per
  // processor and overall -- valid lower-bound material whatever the
  // trace did.
  std::vector<double> best(static_cast<std::size_t>(p), 0.0);
  for (ProcId q = 0; q < p; ++q) {
    best[static_cast<std::size_t>(q)] = platform.cycle_time(q);
    for (const EpochSnapshot& epoch : result.epochs) {
      best[static_cast<std::size_t>(q)] =
          std::min(best[static_cast<std::size_t>(q)],
                   epoch.cycle_times[static_cast<std::size_t>(q)]);
    }
  }
  const double min_cycle = *std::min_element(best.begin(), best.end());

  double aggregate = 0.0;
  for (const double t : best) aggregate += 1.0 / t;
  const double area_bound = g.total_weight() / aggregate;

  // Release-aware critical path on the fastest cycle ever seen.
  std::vector<double> done(g.num_tasks(), 0.0);
  double cp_bound = 0.0;
  for (const TaskId v : g.topological_order()) {
    double ready = result.release[v];
    for (const EdgeRef& in : g.predecessors(v)) {
      ready = std::max(ready, done[in.task]);
    }
    done[v] = ready + g.weight(v) * min_cycle;
    cp_bound = std::max(cp_bound, done[v]);
  }

  const struct {
    const char* name;
    double bound;
  } bounds[] = {{"area", area_bound}, {"release-critical-path", cp_bound}};
  for (const auto& b : bounds) {
    if (makespan < b.bound - kTimeEps) {
      errors.push_back("makespan " + fmt(makespan) + " beats the " +
                       b.name + " lower bound " + fmt(b.bound));
    }
  }
  return errors;
}

std::vector<std::string> check_all_dynamic_invariants(
    const DynamicScenario& scenario, const DynamicResult& result) {
  std::vector<std::string> all;
  const auto absorb = [&](const char* property,
                          std::vector<std::string> errors) {
    for (std::string& e : errors) {
      all.push_back(scenario.description + " [" + property + "] " +
                    std::move(e));
    }
  };
  absorb("D1/structure", check_dynamic_structure(scenario, result));
  if (!all.empty()) return all;  // downstream checks assume the shape
  absorb("D2/frozen-prefix", check_frozen_prefix(scenario, result));
  absorb("D3/epoch-validity", check_epoch_validity(scenario, result));
  absorb("D4/lower-bounds", check_dynamic_lower_bounds(scenario, result));
  return all;
}

}  // namespace oneport::testsupport
