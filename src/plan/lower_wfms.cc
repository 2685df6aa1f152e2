#include "plan/lower_wfms.h"

#include <set>

#include "common/strings.h"
#include "sql/parser.h"
#include "wfms/helpers.h"

namespace fedflow::plan {

using federation::SpecArg;
using federation::SpecJoin;
using federation::SpecOutput;
using wfms::ActivityDef;
using wfms::ActivityKind;
using wfms::BlockAccumulate;
using wfms::InputSource;
using wfms::ProcessDefinition;

namespace {

InputSource SpecArgToInput(const SpecArg& arg) {
  switch (arg.kind) {
    case SpecArg::Kind::kConstant:
      return InputSource::Constant(arg.constant);
    case SpecArg::Kind::kParam:
      return InputSource::FromProcessInput(arg.param);
    case SpecArg::Kind::kNodeColumn:
      return InputSource::FromActivity(arg.node, arg.column);
  }
  return InputSource::Constant(Value::Null());
}

/// Builds the result-assembly helper: projects/renames/casts the columns of
/// one input table to the plan's output schema.
wfms::HelperFn MakeSingleTableResultHelper(
    std::vector<SpecOutput> outputs, Schema result_schema) {
  return [outputs = std::move(outputs), result_schema = std::move(
              result_schema)](const std::vector<const Table*>& inputs)
             -> Result<Table> {
    if (inputs.size() != 1) {
      return Status::InvalidArgument("result helper expects 1 input");
    }
    const Table& in = *inputs[0];
    std::vector<size_t> idx;
    for (const SpecOutput& out : outputs) {
      FEDFLOW_ASSIGN_OR_RETURN(size_t i, in.schema().FindColumn(out.column));
      idx.push_back(i);
    }
    Table result(result_schema);
    for (const Row& r : in.rows()) {
      Row row;
      row.reserve(idx.size());
      for (size_t i : idx) row.push_back(r[i]);
      FEDFLOW_RETURN_NOT_OK(result.AppendRow(std::move(row)));
    }
    return result;
  };
}

/// Builds a positional projector: picks columns of the single input by index
/// (used after join chains, where column names may be ambiguous).
wfms::HelperFn MakeIndexProjectHelper(std::vector<size_t> indices,
                                      Schema result_schema) {
  return [indices = std::move(indices), result_schema = std::move(
              result_schema)](const std::vector<const Table*>& inputs)
             -> Result<Table> {
    if (inputs.size() != 1) {
      return Status::InvalidArgument("result helper expects 1 input");
    }
    const Table& in = *inputs[0];
    Table result(result_schema);
    for (const Row& r : in.rows()) {
      Row row;
      row.reserve(indices.size());
      for (size_t i : indices) {
        if (i >= r.size()) {
          return Status::Internal("result projection index out of range");
        }
        row.push_back(r[i]);
      }
      FEDFLOW_RETURN_NOT_OK(result.AppendRow(std::move(row)));
    }
    return result;
  };
}

/// Builds the result-assembly helper for scalar outputs taken from several
/// activities: each input is a single-column single-row table, concatenated
/// into one row of the output schema.
wfms::HelperFn MakeConcatResultHelper(Schema result_schema) {
  return [result_schema = std::move(result_schema)](
             const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.size() != result_schema.num_columns()) {
      return Status::InvalidArgument("result helper arity mismatch");
    }
    Row row;
    for (const Table* in : inputs) {
      if (in->num_rows() != 1 || in->schema().num_columns() != 1) {
        return Status::ExecutionError(
            "scalar result assembly requires 1x1 inputs");
      }
      row.push_back(in->rows()[0][0]);
    }
    Table result(result_schema);
    FEDFLOW_RETURN_NOT_OK(result.AppendRow(std::move(row)));
    return result;
  };
}

constexpr char kResultActivity[] = "RESULT";

/// Result schema of the call node `node` (compile-time resolved).
Result<const Schema*> NodeSchema(const FedPlan& plan,
                                 const std::string& node) {
  FEDFLOW_ASSIGN_OR_RETURN(size_t idx, plan.CallIndex(node));
  return &plan.calls[idx].result_schema;
}

/// Lowers the plan's call graph (ignoring the loop) into a process named
/// `name` with input parameters `params`. Factored out so the loop case can
/// lower its body under "<plan>_body" with the extra ITERATION parameter —
/// helper names derive from `name`, preserving the legacy naming.
Result<LoweredProcess> LowerGraph(const FedPlan& plan, const std::string& name,
                                  const std::vector<Column>& params) {
  LoweredProcess compiled;
  ProcessDefinition& def = compiled.process;
  def.name = name;
  def.input_params = params;

  // One program activity per call node; control connectors follow the data
  // dependencies (the paper's precedence graph).
  std::set<std::string> edges;  // dedupe "from->to"
  auto connect = [&](const std::string& from, const std::string& to) {
    std::string key = ToUpper(from) + "->" + ToUpper(to);
    if (edges.insert(key).second) {
      def.connectors.push_back(wfms::ControlConnector{from, to, nullptr});
    }
  };

  for (const PlanCall& call : plan.calls) {
    ActivityDef a;
    a.name = call.id;
    a.kind = ActivityKind::kProgram;
    a.system = call.system;
    a.function = call.function;
    for (const SpecArg& arg : call.args) {
      a.inputs.push_back(SpecArgToInput(arg));
      if (arg.kind == SpecArg::Kind::kNodeColumn) {
        connect(arg.node, call.id);
      }
    }
    def.activities.push_back(std::move(a));
  }

  // Sequencing edges (sequential-baseline plans): extra connectors carrying
  // no data, serializing the engine's schedule beyond the parameter flow.
  for (const auto& [from, to] : plan.sequencing_edges) {
    connect(plan.calls[from].id, plan.calls[to].id);
  }

  // Joins: chained join-helper activities (the independent case's result
  // composition). Join k combines the running result with join k's right
  // node. Column positions are tracked explicitly because column names may
  // repeat across the joined nodes.
  std::string joined_source;  // activity providing the joined table so far
  std::vector<std::pair<std::string, std::string>> joined_cols;
  auto append_node_cols = [&](const std::string& node) -> Status {
    FEDFLOW_ASSIGN_OR_RETURN(const Schema* schema, NodeSchema(plan, node));
    for (const Column& c : schema->columns()) {
      joined_cols.emplace_back(node, c.name);
    }
    return Status::OK();
  };
  auto joined_index = [&](const std::string& node,
                          const std::string& column) -> Result<size_t> {
    for (size_t i = 0; i < joined_cols.size(); ++i) {
      if (EqualsIgnoreCase(joined_cols[i].first, node) &&
          EqualsIgnoreCase(joined_cols[i].second, column)) {
        return i;
      }
    }
    return Status::InvalidArgument("column " + node + "." + column +
                                   " is not part of the join result of plan " +
                                   plan.name);
  };
  for (size_t j = 0; j < plan.joins.size(); ++j) {
    const SpecJoin& join = plan.joins[j];
    if (joined_source.empty()) {
      FEDFLOW_RETURN_NOT_OK(append_node_cols(join.left_node));
    }
    FEDFLOW_ASSIGN_OR_RETURN(size_t left_idx,
                             joined_index(join.left_node, join.left_column));
    FEDFLOW_ASSIGN_OR_RETURN(const Schema* right_schema,
                             NodeSchema(plan, join.right_node));
    FEDFLOW_ASSIGN_OR_RETURN(size_t right_idx,
                             right_schema->FindColumn(join.right_column));

    std::string helper_name = name + "_join" + std::to_string(j + 1);
    compiled.helpers.emplace_back(
        helper_name, wfms::MakeIndexJoinHelper(left_idx, right_idx));
    ActivityDef a;
    a.name = "JOIN" + std::to_string(j + 1);
    a.kind = ActivityKind::kHelper;
    a.helper = helper_name;
    const std::string left =
        joined_source.empty() ? join.left_node : joined_source;
    a.inputs.push_back(InputSource::FromActivity(left, ""));
    a.inputs.push_back(InputSource::FromActivity(join.right_node, ""));
    connect(left, a.name);
    connect(join.right_node, a.name);
    joined_source = a.name;
    FEDFLOW_RETURN_NOT_OK(append_node_cols(join.right_node));
    def.activities.push_back(std::move(a));
  }

  // Result assembly.
  std::set<std::string> output_nodes;
  for (const SpecOutput& out : plan.outputs) {
    output_nodes.insert(ToUpper(out.node));
  }
  ActivityDef result_activity;
  result_activity.name = kResultActivity;
  result_activity.kind = ActivityKind::kHelper;
  std::string result_helper = name + "_result";
  result_activity.helper = result_helper;
  if (!joined_source.empty()) {
    // Project the joined table by tracked column positions.
    std::vector<size_t> indices;
    for (const SpecOutput& out : plan.outputs) {
      FEDFLOW_ASSIGN_OR_RETURN(size_t idx,
                               joined_index(out.node, out.column));
      indices.push_back(idx);
    }
    compiled.helpers.emplace_back(
        result_helper,
        MakeIndexProjectHelper(std::move(indices), plan.result_schema));
    result_activity.inputs.push_back(
        InputSource::FromActivity(joined_source, ""));
    connect(joined_source, result_activity.name);
  } else if (output_nodes.size() == 1) {
    // All outputs come from one call: project its (possibly multi-row) table.
    compiled.helpers.emplace_back(
        result_helper,
        MakeSingleTableResultHelper(plan.outputs, plan.result_schema));
    result_activity.inputs.push_back(
        InputSource::FromActivity(plan.outputs[0].node, ""));
    connect(plan.outputs[0].node, result_activity.name);
  } else {
    // Scalar outputs from several parallel activities: concatenate.
    compiled.helpers.emplace_back(result_helper,
                                  MakeConcatResultHelper(plan.result_schema));
    for (const SpecOutput& out : plan.outputs) {
      result_activity.inputs.push_back(
          InputSource::FromActivity(out.node, out.column));
      connect(out.node, result_activity.name);
    }
  }
  def.activities.push_back(std::move(result_activity));
  def.output_activity = kResultActivity;

  FEDFLOW_RETURN_NOT_OK(wfms::ValidateProcess(def));
  return compiled;
}

}  // namespace

Result<LoweredProcess> LowerToProcess(const FedPlan& plan) {
  // For looping plans, lower the body graph as a sub-process and wrap it in
  // a block activity with a do-until exit condition.
  if (plan.loop.enabled) {
    std::vector<Column> body_params = plan.params;
    body_params.push_back(Column{"ITERATION", DataType::kInt});
    FEDFLOW_ASSIGN_OR_RETURN(
        LoweredProcess body,
        LowerGraph(plan, plan.name + "_body", body_params));

    LoweredProcess compiled;
    compiled.helpers = std::move(body.helpers);
    ProcessDefinition& def = compiled.process;
    def.name = plan.name;
    def.input_params = plan.params;
    ActivityDef block;
    block.name = "LOOP";
    block.kind = ActivityKind::kBlock;
    block.sub = std::make_shared<ProcessDefinition>(std::move(body.process));
    for (const Column& p : plan.params) {
      block.inputs.push_back(InputSource::FromProcessInput(p.name));
    }
    block.inputs.push_back(InputSource::Constant(Value::Int(0)));  // ITERATION
    FEDFLOW_ASSIGN_OR_RETURN(
        block.exit_condition,
        sql::ParseExpression("ITERATION >= " + plan.loop.count_param));
    block.accumulate = plan.loop.union_all ? BlockAccumulate::kUnionAll
                                           : BlockAccumulate::kLastIteration;
    def.activities.push_back(std::move(block));
    def.output_activity = "LOOP";
    FEDFLOW_RETURN_NOT_OK(wfms::ValidateProcess(def));
    return compiled;
  }

  return LowerGraph(plan, plan.name, plan.params);
}

}  // namespace fedflow::plan
