#include "graph/task_graph.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace oneport {

TaskId TaskGraph::add_task(double weight, std::string name) {
  OP_REQUIRE(!finalized_, "cannot add tasks to a finalized graph");
  OP_REQUIRE(std::isfinite(weight) && weight >= 0.0,
             "task weight must be finite and non-negative, got " << weight);
  const auto id = static_cast<TaskId>(weights_.size());
  weights_.push_back(weight);
  names_.push_back(std::move(name));
  succ_.emplace_back();
  pred_.emplace_back();
  total_weight_ += weight;
  return id;
}

void TaskGraph::add_edge(TaskId src, TaskId dst, double data) {
  OP_REQUIRE(!finalized_, "cannot add edges to a finalized graph");
  check_task(src);
  check_task(dst);
  OP_REQUIRE(src != dst, "self-loop on task " << src);
  OP_REQUIRE(std::isfinite(data) && data >= 0.0,
             "edge data volume must be finite and non-negative, got "
                 << data << " on " << src << "->" << dst);
  OP_REQUIRE(!has_edge(src, dst), "duplicate edge " << src << "->" << dst);
  succ_[src].push_back({dst, data});
  pred_[dst].push_back({src, data});
  ++num_edges_;
}

void TaskGraph::finalize() {
  if (finalized_) return;
  // Kahn's algorithm; doubles as the acyclicity check.
  const std::size_t n = num_tasks();
  std::vector<std::size_t> remaining(n);
  topo_.clear();
  topo_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    remaining[v] = pred_[v].size();
    if (remaining[v] == 0) topo_.push_back(static_cast<TaskId>(v));
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    for (const EdgeRef& e : succ_[topo_[head]]) {
      if (--remaining[e.task] == 0) topo_.push_back(e.task);
    }
  }
  OP_REQUIRE(topo_.size() == n, "task graph contains a cycle");
  finalized_ = true;
}

const std::string& TaskGraph::name(TaskId v) const {
  check_task(v);
  return names_[v];
}

double TaskGraph::edge_data(TaskId src, TaskId dst) const {
  check_task(src);
  check_task(dst);
  for (const EdgeRef& e : succ_[src]) {
    if (e.task == dst) return e.data;
  }
  OP_REQUIRE(false, "no edge " << src << "->" << dst);
  return 0.0;  // unreachable
}

bool TaskGraph::has_edge(TaskId src, TaskId dst) const {
  check_task(src);
  check_task(dst);
  return std::any_of(succ_[src].begin(), succ_[src].end(),
                     [dst](const EdgeRef& e) { return e.task == dst; });
}

std::span<const TaskId> TaskGraph::topological_order() const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  return topo_;
}

std::vector<TaskId> TaskGraph::entry_tasks() const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  std::vector<TaskId> out;
  for (TaskId v = 0; v < num_tasks(); ++v)
    if (pred_[v].empty()) out.push_back(v);
  return out;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  std::vector<TaskId> out;
  for (TaskId v = 0; v < num_tasks(); ++v)
    if (succ_[v].empty()) out.push_back(v);
  return out;
}

}  // namespace oneport
