#include "analysis/dataflow/framework.h"

#include <algorithm>

#include "common/strings.h"

namespace fedflow::analysis::dataflow {

const char* LoweringName(Lowering lowering) {
  switch (lowering) {
    case Lowering::kWfms:
      return "WfMS";
    case Lowering::kUdtf:
      return "UDTF";
  }
  return "?";
}

PlanGraph PlanGraph::Build(const plan::FedPlan& plan) {
  PlanGraph graph;
  graph.plan = &plan;
  const size_t n = plan.calls.size();
  graph.preds.resize(n);
  graph.succs.resize(n);

  auto add_edge = [&graph](size_t from, size_t to) {
    auto& preds = graph.preds[to];
    if (std::find(preds.begin(), preds.end(), from) == preds.end()) {
      preds.push_back(from);
      graph.succs[from].push_back(to);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t dep : plan.calls[i].data_deps) add_edge(dep, i);
  }
  // A join relates two nodes' columns: facts about either side constrain the
  // joined result, so the later lateral position becomes a successor of the
  // earlier one (matching the executor, which joins at the later position).
  for (const federation::SpecJoin& join : plan.joins) {
    Result<size_t> left = plan.CallIndex(join.left_node);
    Result<size_t> right = plan.CallIndex(join.right_node);
    if (!left.ok() || !right.ok() || *left == *right) continue;
    size_t a = *left;
    size_t b = *right;
    // Orient by plan order so the edge stays forward (acyclic).
    for (size_t node : plan.order) {
      if (node == a) {
        add_edge(a, b);
        break;
      }
      if (node == b) {
        add_edge(b, a);
        break;
      }
    }
  }

  graph.order = plan.order;
  if (graph.order.size() != n) {
    // Defensive: a plan straight out of CompilePlan always carries a total
    // order; fall back to declaration order for hand-built plans.
    graph.order.clear();
    for (size_t i = 0; i < n; ++i) graph.order.push_back(i);
  }

  // The do-until loop wraps the WHOLE call graph: every sink (no forward
  // successors) feeds the next iteration of every source (no forward
  // predecessors).
  if (plan.loop.enabled && n > 0) {
    for (size_t from = 0; from < n; ++from) {
      if (!graph.succs[from].empty()) continue;
      for (size_t to = 0; to < n; ++to) {
        if (graph.preds[to].empty()) graph.back_edges.emplace_back(from, to);
      }
    }
  }
  return graph;
}

}  // namespace fedflow::analysis::dataflow
