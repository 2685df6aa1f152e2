// The abstract-interpretation framework over the FedPlan IR: a dependency
// graph extracted from the plan (parameter-flow edges, join edges, and the
// do-until back edges) plus a generic worklist solver parameterized over the
// analysis' lattice. Analyses plug in a state type, a transfer function and
// a join; the solver iterates to a fixpoint, applying the analysis' widening
// operator at back-edge targets after a bounded number of visits so looping
// plans terminate even on infinite-height lattices (intervals).
#ifndef FEDFLOW_ANALYSIS_DATAFLOW_FRAMEWORK_H_
#define FEDFLOW_ANALYSIS_DATAFLOW_FRAMEWORK_H_

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "plan/fed_plan.h"

namespace fedflow::analysis::dataflow {

/// Which lowering an architecture-sensitive fact is about. The SQL and the
/// procedural (Java) I-UDTF share nest-loop lateral semantics, so one
/// abstract lowering covers both; the WfMS lowering invokes every activity
/// once per iteration regardless of preceding row counts.
enum class Lowering {
  kWfms,
  kUdtf,
};

/// Stable display name ("WfMS" / "UDTF").
const char* LoweringName(Lowering lowering);

/// The analysis' view of one plan: nodes are the plan's call indices, edges
/// are the facts-flow relations.
struct PlanGraph {
  const plan::FedPlan* plan = nullptr;

  /// preds[i]/succs[i]: parameter-flow neighbors of call i (data_deps plus
  /// join edges — a join makes both sides' facts meet downstream, so facts
  /// flow across it in both directions' successor sets).
  std::vector<std::vector<size_t>> preds;
  std::vector<std::vector<size_t>> succs;

  /// Back edges of the do-until loop: (from, to) with `from` a graph sink
  /// and `to` a graph source. Empty for loop-free plans.
  std::vector<std::pair<size_t, size_t>> back_edges;

  /// Iteration order: the plan's total order (a topological order of the
  /// forward edges), so loop-free plans converge in a single sweep.
  std::vector<size_t> order;

  size_t num_nodes() const { return plan == nullptr ? 0 : plan->calls.size(); }

  /// Extracts the graph of `plan`.
  static PlanGraph Build(const plan::FedPlan& plan);
};

/// A synthetic graph for framework tests (no FedPlan needed): same edge
/// structure, arbitrary shape.
struct Graph {
  std::vector<std::vector<size_t>> preds;
  std::vector<std::vector<size_t>> succs;
  std::vector<std::pair<size_t, size_t>> back_edges;
  std::vector<size_t> order;
};

/// An Analysis for the solver provides:
///   using State = ...;                        // the lattice element
///   State Initial(size_t node);               // state before any pred fact
///   State Transfer(size_t node, const std::vector<const State*>& pred_outs);
///   bool Join(State* into, const State& from);  // true when `into` changed
///   void Widen(State* into, const State& previous);  // back-edge targets
///
/// The solver keeps one OUT state per node, seeds the worklist in graph
/// order, and re-queues successors of changed nodes. After `widen_after`
/// visits of a back-edge target, Widen() accelerates that node's state.
inline constexpr int kDefaultWidenAfter = 3;

template <typename Analysis>
class WorklistSolver {
 public:
  using State = typename Analysis::State;

  /// Runs `analysis` over a graph given by (preds, succs, back_edges,
  /// order). Returns the per-node fixpoint OUT states.
  template <typename GraphT>
  std::vector<State> Solve(Analysis* analysis, const GraphT& graph,
                           int widen_after = kDefaultWidenAfter) {
    const size_t n = graph.order.size();
    std::vector<State> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(analysis->Initial(i));
    std::vector<int> visits(n, 0);
    std::vector<bool> queued(n, false);
    std::deque<size_t> worklist;
    for (size_t node : graph.order) {
      worklist.push_back(node);
      queued[node] = true;
    }
    iterations_ = 0;
    // Safety valve: |V| * widening delay * lattice-step slack. Every lattice
    // here stabilizes long before this; the cap only guards against a broken
    // Transfer/Join pair cycling forever.
    const size_t max_iterations = (n + 1) * (widen_after + 2) * 8;
    while (!worklist.empty() && iterations_ < max_iterations) {
      ++iterations_;
      size_t node = worklist.front();
      worklist.pop_front();
      queued[node] = false;
      ++visits[node];

      std::vector<const State*> pred_outs;
      pred_outs.reserve(graph.preds[node].size());
      for (size_t p : graph.preds[node]) pred_outs.push_back(&out[p]);

      State next = analysis->Transfer(node, pred_outs);
      bool is_widen_point = false;
      for (const auto& [from, to] : graph.back_edges) {
        (void)from;
        is_widen_point = is_widen_point || to == node;
      }
      if (is_widen_point && visits[node] > widen_after) {
        analysis->Widen(&next, out[node]);
      }
      if (analysis->Join(&out[node], next)) {
        for (size_t s : graph.succs[node]) {
          if (!queued[s]) {
            worklist.push_back(s);
            queued[s] = true;
          }
        }
        // A changed sink re-enters the loop body via the back edges.
        for (const auto& [from, to] : graph.back_edges) {
          if (from == node && !queued[to]) {
            worklist.push_back(to);
            queued[to] = true;
          }
        }
      }
    }
    converged_ = worklist.empty();
    return out;
  }

  /// Solver telemetry: transfer applications of the last Solve().
  size_t iterations() const { return iterations_; }
  /// False only when the iteration cap fired (a framework bug).
  bool converged() const { return converged_; }

 private:
  size_t iterations_ = 0;
  bool converged_ = true;
};

}  // namespace fedflow::analysis::dataflow

#endif  // FEDFLOW_ANALYSIS_DATAFLOW_FRAMEWORK_H_
