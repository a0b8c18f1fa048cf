#include "sched/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <tuple>

#include "sched/interval.hpp"

namespace oneport {

std::string ValidationResult::message() const {
  std::string out;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i) out += '\n';
    out += errors[i];
  }
  return out;
}

namespace {

/// One task of the compute-exclusivity check, by value.
struct TaskItem {
  double start;
  double finish;
  TaskId task;
  ProcId proc;
};

constexpr auto task_by_time = [](const TaskItem& a, const TaskItem& b) {
  return std::tie(a.start, a.finish, a.task) <
         std::tie(b.start, b.finish, b.task);
};

/// Messages by time, ties broken on the rest of the record: the order --
/// and so the error list -- depends only on the schedule's content, never
/// on the order of comms().
constexpr auto msg_by_time = [](const CommPlacement& a,
                                const CommPlacement& b) {
  return std::tie(a.start, a.finish, a.src, a.dst, a.from, a.to) <
         std::tie(b.start, b.finish, b.src, b.dst, b.from, b.to);
};

/// `items` after a stable counting sort by key: key k's items are
/// items[offsets[k], offsets[k + 1]).
template <typename Item>
struct Groups {
  std::vector<Item> items;
  std::vector<std::size_t> offsets;
};

/// Stable counting sort of `items` by `key(item)`, which must be < `keys`.
template <typename Item, typename Key>
Groups<Item> group_by(const std::vector<Item>& items, std::size_t keys,
                      Key key) {
  Groups<Item> out{std::vector<Item>(items.size()),
                   std::vector<std::size_t>(keys + 1, 0)};
  std::vector<std::size_t>& offsets = out.offsets;
  for (const Item& item : items) ++offsets[key(item) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // Scatter with offsets[k] as group k's cursor, which leaves it at the
  // group's end; shifting by one slot turns the ends back into starts.
  for (const Item& item : items) out.items[offsets[key(item)]++] = item;
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
  return out;
}

class Checker {
 public:
  Checker(const Schedule& s, const TaskGraph& g, const Platform& p)
      : sched_(s), graph_(g), platform_(p) {}

  ValidationResult run(bool one_port) {
    check_placements();
    // A size mismatch makes every further check index out of range.
    if (sched_.num_tasks() != graph_.num_tasks()) return std::move(result_);
    check_compute_exclusivity();
    // One sort of the messages serves every message check: the stable
    // groupings below keep this time order inside each group.
    std::vector<CommPlacement> by_time = sched_.comms();
    std::sort(by_time.begin(), by_time.end(), msg_by_time);
    check_edges_and_comms(by_time);
    if (one_port) {
      check_port(by_time, &CommPlacement::from, "O1: send");
      check_port(by_time, &CommPlacement::to, "O2: receive");
    }
    return std::move(result_);
  }

 private:
  template <typename... Parts>
  void fail(const Parts&... parts) {
    std::ostringstream oss;
    (oss << ... << parts);
    result_.errors.push_back(oss.str());
  }

  static bool close(double a, double b) { return std::abs(a - b) <= kTimeEps; }

  [[nodiscard]] bool valid_proc(ProcId p) const {
    return p >= 0 && p < platform_.num_processors();
  }

  void check_placements() {
    if (sched_.num_tasks() != graph_.num_tasks()) {
      fail("schedule has ", sched_.num_tasks(), " tasks, graph has ",
           graph_.num_tasks());
      return;
    }
    for (TaskId v = 0; v < graph_.num_tasks(); ++v) {
      const TaskPlacement& t = sched_.task(v);
      if (!t.placed()) {
        fail("M1: task ", v, " not placed");
        continue;
      }
      if (t.proc >= platform_.num_processors()) {
        fail("M1: task ", v, " on invalid processor ", t.proc);
        continue;
      }
      if (t.start < -kTimeEps) fail("M1: task ", v, " starts before time 0");
      const double expected = platform_.exec_time(graph_.weight(v), t.proc);
      if (!close(t.finish - t.start, expected)) {
        fail("M2: task ", v, " duration ", t.finish - t.start, " != w*t = ",
             expected, " on P", t.proc);
      }
    }
  }

  void check_compute_exclusivity() {
    const auto p = static_cast<std::size_t>(platform_.num_processors());
    std::vector<TaskItem> items;
    items.reserve(graph_.num_tasks());
    for (TaskId v = 0; v < graph_.num_tasks(); ++v) {
      const TaskPlacement& t = sched_.task(v);
      if (valid_proc(t.proc)) items.push_back({t.start, t.finish, v, t.proc});
    }
    auto [by_proc, offsets] = group_by(
        items, p,
        [](const TaskItem& t) { return static_cast<std::size_t>(t.proc); });
    for (std::size_t q = 0; q < p; ++q) {
      const auto begin =
          by_proc.begin() + static_cast<std::ptrdiff_t>(offsets[q]);
      const auto end =
          by_proc.begin() + static_cast<std::ptrdiff_t>(offsets[q + 1]);
      std::sort(begin, end, task_by_time);
      for (std::size_t i = offsets[q] + 1; i < offsets[q + 1]; ++i) {
        const TaskItem& a = by_proc[i - 1];
        const TaskItem& b = by_proc[i];
        if (overlaps({a.start, a.finish}, {b.start, b.finish})) {
          fail("M3: tasks ", a.task, " and ", b.task, " overlap on P", q);
        }
      }
    }
  }

  void check_edges_and_comms(const std::vector<CommPlacement>& by_time) {
    // Grouped by destination, then by source: each source's messages form
    // one block ordered by destination, and each edge's store-and-forward
    // chain is one contiguous run of it, still in time order.  Schedule
    // keeps message endpoints below its size, which equals the graph's.
    const std::size_t n = graph_.num_tasks();
    const auto by_dst = [](const CommPlacement& c) {
      return static_cast<std::size_t>(c.dst);
    };
    const auto by_src = [](const CommPlacement& c) {
      return static_cast<std::size_t>(c.src);
    };
    const auto [msgs, block] =
        group_by(group_by(by_time, n, by_dst).items, n, by_src);
    // matched[i] is set on the first message of every run a graph edge
    // claims; the other runs are spurious.
    std::vector<std::uint8_t> matched(msgs.size(), 0);

    for (TaskId u = 0; u < n; ++u) {
      const TaskPlacement& tu = sched_.task(u);
      const auto block_begin =
          msgs.begin() + static_cast<std::ptrdiff_t>(block[u]);
      const auto block_end =
          msgs.begin() + static_cast<std::ptrdiff_t>(block[u + 1]);
      for (const EdgeRef& e : graph_.successors(u)) {
        const TaskId v = e.task;
        const auto first = std::lower_bound(
            block_begin, block_end, v,
            [](const CommPlacement& c, TaskId dst) { return c.dst < dst; });
        auto last = first;
        while (last != block_end && last->dst == v) ++last;
        if (first != last) {
          matched[static_cast<std::size_t>(first - msgs.begin())] = 1;
        }

        const TaskPlacement& tv = sched_.task(v);
        if (!tu.placed() || !tv.placed()) continue;
        if (tu.proc == tv.proc) {
          if (tv.start < tu.finish - kTimeEps) {
            fail("M4: edge ", u, "->", v, ": successor starts at ", tv.start,
                 " before predecessor finishes at ", tu.finish);
          }
          if (first != last) {
            fail("M5: edge ", u, "->", v,
                 ": message present although endpoints share P", tu.proc);
          }
          continue;
        }
        if (first == last) {
          fail("M4: edge ", u, "->", v, ": expected a message, found none");
          continue;
        }
        check_chain(u, v, e.data, tu, tv, {first, last});
      }
    }

    // Spurious messages: every run no graph edge claimed.
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const bool run_start = i == 0 || msgs[i].src != msgs[i - 1].src ||
                             msgs[i].dst != msgs[i - 1].dst;
      if (run_start && !matched[i]) {
        fail("M5: message for non-existent edge ", msgs[i].src, "->",
             msgs[i].dst);
      }
    }
  }

  /// The messages of edge u->v must form a store-and-forward chain from
  /// the source's processor to the sink's (one hop on fully connected
  /// networks, several along a routed path -- the §4.3 extension).
  void check_chain(TaskId u, TaskId v, double data, const TaskPlacement& tu,
                   const TaskPlacement& tv,
                   std::span<const CommPlacement> chain) {
    if (chain.front().from != tu.proc) {
      fail("M5: edge ", u, "->", v, ": first hop leaves P",
           chain.front().from, " but the source sits on P", tu.proc);
    }
    if (chain.back().to != tv.proc) {
      fail("M5: edge ", u, "->", v, ": last hop reaches P", chain.back().to,
           " but the sink sits on P", tv.proc);
    }
    if (chain.front().start < tu.finish - kTimeEps) {
      fail("M4: edge ", u, "->", v, ": first hop starts at ",
           chain.front().start, " before source finishes at ", tu.finish);
    }
    if (tv.start < chain.back().finish - kTimeEps) {
      fail("M4: edge ", u, "->", v, ": successor starts at ", tv.start,
           " before the last hop arrives at ", chain.back().finish);
    }
    for (std::size_t h = 0; h < chain.size(); ++h) {
      const CommPlacement& c = chain[h];
      if (!valid_proc(c.from) || !valid_proc(c.to)) {
        // No link to price the hop by: report it, skip its duration.
        fail("M5: edge ", u, "->", v, " hop P", c.from, "->P", c.to,
             ": invalid processor (platform has ",
             platform_.num_processors(), ")");
      } else {
        const double expected = platform_.comm_time(data, c.from, c.to);
        if (!close(c.finish - c.start, expected)) {
          fail("M4: edge ", u, "->", v, " hop P", c.from, "->P", c.to,
               ": duration ", c.finish - c.start, " != data*link = ",
               expected);
        }
      }
      if (h > 0) {
        const CommPlacement& prev = chain[h - 1];
        if (c.from != prev.to) {
          fail("M5: edge ", u, "->", v, ": hop P", c.from, "->P", c.to,
               " does not continue from P", prev.to);
        }
        if (c.start < prev.finish - kTimeEps) {
          fail("M4: edge ", u, "->", v, ": hop P", c.from, "->P", c.to,
               " starts at ", c.start, " before the previous hop lands "
               "at ", prev.finish);
        }
      }
    }
  }

  /// Messages sharing the processor `end` must be pairwise disjoint.
  void check_port(const std::vector<CommPlacement>& by_time,
                  ProcId CommPlacement::*end, const char* kind) {
    const auto p = static_cast<std::size_t>(platform_.num_processors());
    // The extra last group collects ids the platform does not have.
    const auto [msgs, offsets] =
        group_by(by_time, p + 1, [this, end](const CommPlacement& c) {
          return static_cast<std::size_t>(
              valid_proc(c.*end) ? c.*end : platform_.num_processors());
        });
    for (std::size_t q = 0; q < p; ++q) {
      // Each message against the running maximum end: one linear pass.
      const CommPlacement* prev = nullptr;
      for (std::size_t i = offsets[q]; i < offsets[q + 1]; ++i) {
        const CommPlacement& c = msgs[i];
        if (Interval{c.start, c.finish}.degenerate()) continue;
        if (prev != nullptr &&
            overlaps({prev->start, prev->finish}, {c.start, c.finish})) {
          fail(kind, " port of P", q, ": messages ", prev->src, "->",
               prev->dst, " and ", c.src, "->", c.dst, " overlap");
        }
        if (prev == nullptr || c.finish > prev->finish) prev = &c;
      }
    }
  }

  const Schedule& sched_;
  const TaskGraph& graph_;
  const Platform& platform_;
  ValidationResult result_;
};

}  // namespace

ValidationResult validate_macro_dataflow(const Schedule& schedule,
                                         const TaskGraph& graph,
                                         const Platform& platform) {
  return Checker(schedule, graph, platform).run(/*one_port=*/false);
}

ValidationResult validate_one_port(const Schedule& schedule,
                                   const TaskGraph& graph,
                                   const Platform& platform) {
  return Checker(schedule, graph, platform).run(/*one_port=*/true);
}

}  // namespace oneport
