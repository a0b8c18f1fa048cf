#include "exact/branch_bound.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "graph/graph_algorithms.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"

namespace oneport::exact {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Set of task ids as 64-bit words; for_each visits members in
/// ascending id order, which is the order the search enumerates in.
class TaskSet {
 public:
  explicit TaskSet(std::size_t n) : words_((n + 63) / 64, 0) {}

  void insert(TaskId v) { words_[v >> 6] |= bit(v); }
  void erase(TaskId v) { words_[v >> 6] &= ~bit(v); }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<TaskId>(w * 64 +
                              static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }

 private:
  [[nodiscard]] static std::uint64_t bit(TaskId v) {
    return std::uint64_t{1} << (v & 63u);
  }
  std::vector<std::uint64_t> words_;
};

[[nodiscard]] bool is_symmetric_platform(const Platform& platform,
                                         const Matrix<double>& dist) {
  const int p = platform.num_processors();
  for (int i = 1; i < p; ++i) {
    if (platform.cycle_time(i) != platform.cycle_time(0)) return false;
  }
  double uniform = -1.0;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      if (i == j) continue;
      const double d =
          dist(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      if (!std::isfinite(d)) return false;
      if (uniform < 0.0) {
        uniform = d;
      } else if (d != uniform) {
        return false;
      }
    }
  }
  return true;
}

/// One candidate dispatch: task on processor.
struct Child {
  double bound;
  TaskId task;
  int proc;
};

/// Mutable DFS state plus everything precomputed at the root.  Every
/// piece of per-node bookkeeping is incremental: place()/unplace() keep
/// the unscheduled and ready sets, each task's release time (latest
/// finish over its placed predecessors), each task's data arrival per
/// processor and the load terms up to date.  A node then costs
/// O(ready * P + k log k) for k children, each placement O(outdegree *
/// P), and nothing is allocated once the buffers reach their high-water
/// marks.
struct Search {
  Search(const TaskGraph& graph, const Platform& platform,
         const BranchBoundOptions& opts, const Matrix<double>& distances)
      : g(graph),
        options(opts),
        dist(distances.data()),
        num_tasks(graph.num_tasks()),
        num_procs(static_cast<std::size_t>(platform.num_processors())),
        aggregate_speed(platform.aggregate_speed()),
        cycle(platform.cycle_times()),
        symmetric(is_symmetric_platform(platform, distances)),
        blev(bottom_levels(
            graph, platform.cycle_time(platform.fastest_processor()), 0.0)),
        missing_preds(num_tasks, 0),
        release(num_tasks, 0.0),
        unscheduled(num_tasks),
        ready(num_tasks),
        avail(num_procs, 0.0),
        proc_load(num_procs, 0),
        remaining_weight(graph.total_weight()) {
    for (TaskId v = 0; v < num_tasks; ++v) {
      missing_preds[v] = static_cast<int>(g.in_degree(v));
      unscheduled.insert(v);
      if (missing_preds[v] == 0) ready.insert(v);
    }
  }

  const TaskGraph& g;
  const BranchBoundOptions& options;
  const double* dist;  ///< row-major P x P routed distances or links

  std::size_t num_tasks;
  std::size_t num_procs;
  double aggregate_speed;
  std::vector<double> cycle;
  bool symmetric;  ///< identical cycle times AND uniform finite links
  std::vector<double> blev;  ///< bottom levels at t_min, zero comm
  /// exec[v * P + p] = execution time of v on p; built by search().
  std::vector<double> exec;

  // Per-task: count of unplaced predecessors, and release time.
  std::vector<int> missing_preds;
  std::vector<double> release;
  /// Release times overwritten by place(), restored by unplace().
  std::vector<double> release_undo;
  /// arrival[v * P + p]: latest arrival on p of the data of v's placed
  /// predecessors (-inf before any is placed); built by search().
  std::vector<double> arrival;
  /// Arrival rows overwritten by place(), P values per successor edge.
  std::vector<double> arrival_undo;
  TaskSet unscheduled;
  TaskSet ready;  ///< unscheduled with missing_preds == 0
  // Per-processor availability (finish of its last task) and task count.
  std::vector<double> avail;
  std::vector<int> proc_load;
  /// children[d]: child list of the open node at depth d (d tasks
  /// placed), reused by every node at that depth.  One buffer per depth
  /// rather than one shared stack: the first dive keeps every level's
  /// full list alive, and a single buffer growing to that sum doubles
  /// and copies itself into a resident-memory peak several times the
  /// lists' size.
  std::vector<std::vector<Child>> children;

  std::size_t num_scheduled = 0;
  double cur_max_finish = 0.0;
  double remaining_weight;
  double avail_over_t = 0.0;  ///< sum over p of avail[p] / t_p

  double incumbent = kInf;
  double min_open_bound = kInf;
  std::uint64_t nodes_expanded = 0;
  bool budget_hit = false;

  /// Optimistic completion bound for the current partial schedule.
  [[nodiscard]] double node_bound() const {
    // Load: the remaining work, spread over every processor's leftover
    // capacity.  Valid because any completion time T satisfies
    // T >= avail[p] for all p (avail entries are finish times).
    const double load =
        (remaining_weight + avail_over_t) / aggregate_speed;
    double bound = std::max(cur_max_finish, load);
    // Critical path: an unscheduled task cannot start before its
    // scheduled predecessors finish, and needs blev time after that
    // even on the fastest processors with free communication.
    unscheduled.for_each([&](TaskId v) {
      bound = std::max(bound, release[v] + blev[v]);
    });
    return bound;
  }

  [[nodiscard]] bool out_of_budget() const {
    return nodes_expanded >= options.node_budget;
  }

  /// Earliest MD finish of ready task v on processor p: it starts once
  /// the processor frees up and every predecessor's data has arrived.
  [[nodiscard]] double finish_time(TaskId v, std::size_t p) const {
    const std::size_t i = std::size_t{v} * num_procs + p;
    return std::max(avail[p], arrival[i]) + exec[i];
  }

  void place(TaskId v, int p) {
    const auto pu = static_cast<std::size_t>(p);
    const double f = finish_time(v, pu);
    unscheduled.erase(v);
    ready.erase(v);
    const double* row = dist + pu * num_procs;
    for (const EdgeRef& e : g.successors(v)) {
      release_undo.push_back(release[e.task]);
      release[e.task] = std::max(release[e.task], f);
      double* arrive = arrival.data() + std::size_t{e.task} * num_procs;
      arrival_undo.insert(arrival_undo.end(), arrive, arrive + num_procs);
      for (std::size_t r = 0; r < num_procs; ++r) {
        const double comm = (r == pu) ? 0.0 : e.data * row[r];
        arrive[r] = std::max(arrive[r], f + comm);
      }
      if (--missing_preds[e.task] == 0) ready.insert(e.task);
    }
    avail_over_t += (f - avail[pu]) / cycle[pu];
    avail[pu] = f;
    ++proc_load[pu];
    ++num_scheduled;
    cur_max_finish = std::max(cur_max_finish, f);
    remaining_weight -= g.weight(v);
  }

  void unplace(TaskId v, int p, double prev_avail, double prev_max) {
    const auto pu = static_cast<std::size_t>(p);
    avail_over_t -= (avail[pu] - prev_avail) / cycle[pu];
    avail[pu] = prev_avail;
    --proc_load[pu];
    --num_scheduled;
    cur_max_finish = prev_max;
    remaining_weight += g.weight(v);
    const auto succ = g.successors(v);
    for (auto it = succ.rbegin(); it != succ.rend(); ++it) {
      if (missing_preds[it->task]++ == 0) ready.erase(it->task);
      release[it->task] = release_undo.back();
      release_undo.pop_back();
      const std::size_t top = arrival_undo.size() - num_procs;
      std::copy_n(arrival_undo.data() + top, num_procs,
                  arrival.data() + std::size_t{it->task} * num_procs);
      arrival_undo.resize(top);
    }
    unscheduled.insert(v);
    ready.insert(v);
  }

  /// Fills `list` with every (ready task, processor) dispatch whose
  /// bound beats the incumbent, in ascending task then processor order.
  void enumerate_children(std::vector<Child>& list) const {
    list.clear();
    list.reserve(ready.size() * num_procs);
    ready.for_each([&](TaskId v) {
      const double* exec_v = exec.data() + std::size_t{v} * num_procs;
      bool tried_fresh = false;
      for (std::size_t p = 0; p < num_procs; ++p) {
        if (symmetric && proc_load[p] == 0) {
          // Unused processors of a fully symmetric platform are
          // interchangeable: trying one of them covers them all.
          if (tried_fresh) continue;
          tried_fresh = true;
        }
        const double f = finish_time(v, p);
        // Cheap per-child bound refinement: this dispatch forces
        // finish(v) = f, and v still needs its own bottom level.
        const double child_bound =
            std::max({cur_max_finish, f, f - exec_v[p] + blev[v]});
        if (child_bound < incumbent) {
          list.push_back({child_bound, v, static_cast<int>(p)});
        }
      }
    });
  }

  /// Expands the current node, whose bound the caller already computed.
  void dfs(double bound) {
    if (num_scheduled == num_tasks) {
      incumbent = std::min(incumbent, cur_max_finish);
      return;
    }
    if (out_of_budget()) {
      budget_hit = true;
      min_open_bound = std::min(min_open_bound, bound);
      return;
    }
    ++nodes_expanded;

    std::vector<Child>& list = children[num_scheduled];
    enumerate_children(list);
    prof::bump(prof::Counter::kBbNodes);
    prof::bump(prof::Counter::kBbChildren, list.size());
    // Cheapest bound first; ties keep enumeration order, which is
    // ascending (task, processor) -- so the key is a total order and
    // the unstable sort reproduces a stable sort by bound alone.
    std::sort(list.begin(), list.end(), [](const Child& a, const Child& b) {
      if (a.bound != b.bound) return a.bound < b.bound;
      if (a.task != b.task) return a.task < b.task;
      return a.proc < b.proc;
    });

    for (const Child& c : list) {
      // Re-test: the incumbent may have improved since enumeration.
      if (c.bound >= incumbent) continue;
      const double prev_avail = avail[static_cast<std::size_t>(c.proc)];
      const double prev_max = cur_max_finish;
      place(c.task, c.proc);
      const double child_bound = node_bound();
      if (child_bound < incumbent) {
        dfs(child_bound);
      }
      unplace(c.task, c.proc, prev_avail, prev_max);
    }
  }

  /// Builds the search-only tables and runs the DFS from the root.
  void search(double root_bound) {
    exec.resize(num_tasks * num_procs);
    for (TaskId v = 0; v < num_tasks; ++v) {
      for (std::size_t p = 0; p < num_procs; ++p) {
        exec[std::size_t{v} * num_procs + p] = g.weight(v) * cycle[p];
      }
    }
    arrival.assign(num_tasks * num_procs, -kInf);
    release_undo.reserve(g.num_edges());
    arrival_undo.reserve(g.num_edges() * num_procs);
    children.resize(num_tasks);
    dfs(root_bound);
  }
};

}  // namespace

BranchBoundResult branch_bound_lower_bound(const TaskGraph& g,
                                           const Platform& platform,
                                           const BranchBoundOptions& options) {
  OP_REQUIRE(g.finalized(), "branch_bound needs a finalized graph");
  OP_REQUIRE(platform.num_processors() >= 1, "empty platform");
  OP_REQUIRE(options.max_search_tasks >= 0,
             "max_search_tasks must be non-negative, got "
                 << options.max_search_tasks);
  if (options.routing != nullptr) {
    OP_REQUIRE(options.routing->num_processors() == platform.num_processors(),
               "routing table does not match the platform");
  }
  BranchBoundResult result;
  if (g.num_tasks() == 0) {
    result.proven_optimal = true;
    result.incumbent = 0.0;
    return result;
  }

  const Matrix<double>& dist = options.routing != nullptr
                                   ? options.routing->distances()
                                   : platform.link_matrix();
  Search search(g, platform, options, dist);

  const double root_bound = search.node_bound();
  if (static_cast<std::size_t>(options.max_search_tasks) < g.num_tasks()) {
    result.lower_bound = root_bound;
    return result;
  }

  search.search(root_bound);

  result.nodes_expanded = search.nodes_expanded;
  result.incumbent = search.incumbent;
  // Sound anytime combination: every leaf is >= the true optimum's
  // bound chain, and every never-expanded node's optimistic bound
  // underestimates the best completion through it.
  const double unexplored = std::min(search.incumbent, search.min_open_bound);
  result.lower_bound = std::max(root_bound, unexplored);
  result.proven_optimal =
      std::isfinite(search.incumbent) &&
      (!search.budget_hit || search.min_open_bound >= search.incumbent);
  if (result.proven_optimal) result.lower_bound = search.incumbent;
  return result;
}

}  // namespace oneport::exact
