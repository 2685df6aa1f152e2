// The workflow process model: activities, control connectors with transition
// conditions, data flow (input sources), blocks (sub-workflows with do-until
// exit conditions). This is the production-workflow model of Leymann/Roller
// that the paper's MQSeries Workflow engine implements.
#ifndef FEDFLOW_WFMS_MODEL_H_
#define FEDFLOW_WFMS_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/table.h"
#include "sql/ast.h"

namespace fedflow::wfms {

/// Kinds of activities.
enum class ActivityKind {
  kProgram,  ///< invokes a local function of an application system
  kHelper,   ///< runs a registered helper (type casts, result merging)
  kBlock,    ///< runs a sub-workflow, optionally in a do-until loop
};

/// How an activity's input parameter is supplied (the model's data
/// connectors, normalized to per-parameter sources).
struct InputSource {
  enum class Kind {
    kConstant,        ///< a fixed value (the paper's "supply of constants")
    kProcessInput,    ///< field of the process input container
    kActivityOutput,  ///< column of another activity's output container
  };
  Kind kind = Kind::kConstant;
  Value constant;         ///< kConstant
  std::string param;      ///< kProcessInput: input field name
  std::string activity;   ///< kActivityOutput: source activity
  std::string column;     ///< kActivityOutput: column; empty = whole table
                          ///< (helpers may consume whole tables)

  static InputSource Constant(Value v) {
    InputSource s;
    s.kind = Kind::kConstant;
    s.constant = std::move(v);
    return s;
  }
  static InputSource FromProcessInput(std::string param) {
    InputSource s;
    s.kind = Kind::kProcessInput;
    s.param = std::move(param);
    return s;
  }
  static InputSource FromActivity(std::string activity, std::string column) {
    InputSource s;
    s.kind = Kind::kActivityOutput;
    s.activity = std::move(activity);
    s.column = std::move(column);
    return s;
  }
};

/// Start condition of an activity with multiple incoming control connectors.
enum class JoinKind {
  kAnd,  ///< runs only when every incoming connector evaluated to true
  kOr,   ///< runs when at least one incoming connector evaluated to true
};

/// What a block activity accumulates over its loop iterations.
enum class BlockAccumulate {
  kLastIteration,  ///< output container of the final iteration (MQSeries)
  kUnionAll,       ///< union of all iterations' outputs (result collection)
};

struct ProcessDefinition;

/// Helper function body: tables in, table out. Helpers implement the paper's
/// type conversions and the combination of parallel activity results. The
/// inputs are borrowed, never null: a whole-table input is the producing
/// activity's own container table, which the engine keeps alive until the
/// helper returns, so a helper copies only what it puts into its output.
using HelperFn =
    std::function<Result<Table>(const std::vector<const Table*>& inputs)>;

/// One node of the process graph.
struct ActivityDef {
  std::string name;  ///< unique within the process
  ActivityKind kind = ActivityKind::kProgram;

  /// kProgram: target application system and local function.
  std::string system;
  std::string function;

  /// kHelper: name of a registered helper.
  std::string helper;

  /// Ordered inputs (one per program-function parameter / helper argument /
  /// sub-process input parameter).
  std::vector<InputSource> inputs;

  /// Start condition when >1 incoming control connector.
  JoinKind join = JoinKind::kAnd;

  /// kBlock: the sub-workflow. Shared so definitions stay copyable.
  std::shared_ptr<ProcessDefinition> sub;
  /// kBlock: do-until exit condition, evaluated after each iteration over the
  /// sub-process output columns, the block's inputs (by parameter name) and
  /// the implicit ITERATION counter (1-based). Null = run exactly once.
  sql::ExprPtr exit_condition;
  /// kBlock: iteration guard.
  int max_iterations = 10000;
  BlockAccumulate accumulate = BlockAccumulate::kLastIteration;
};

/// Directed control connector with an optional transition condition
/// (evaluated over activity outputs and process inputs; null = always true).
struct ControlConnector {
  std::string from;
  std::string to;
  sql::ExprPtr condition;
};

/// A process template (the build-time entity the engine instantiates).
struct ProcessDefinition {
  std::string name;
  /// Process input container fields.
  std::vector<Column> input_params;
  /// The activity whose output container is the process result.
  std::string output_activity;

  std::vector<ActivityDef> activities;
  std::vector<ControlConnector> connectors;

  /// Finds an activity by name (case-insensitive); NotFound when absent.
  Result<const ActivityDef*> FindActivity(const std::string& name) const;

  /// Index of an activity; NotFound when absent.
  Result<size_t> ActivityIndex(const std::string& name) const;
};

/// Structural validation: unique names, known endpoints, data sources backed
/// by control paths, acyclic control flow, output activity exists, input
/// arity of blocks matches their sub-process. Returns the first violation.
Status ValidateProcess(const ProcessDefinition& def);

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_MODEL_H_
