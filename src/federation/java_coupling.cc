#include "federation/java_coupling.h"

#include <memory>

#include "common/strings.h"
#include "fdbs/procedural_function.h"
#include "federation/udtf_coupling.h"
#include "plan/lower_sql.h"

namespace fedflow::federation {

bool JavaUdtfSupports(MappingCase c) { return c != MappingCase::kGeneral; }

namespace {

/// Renders a value as a SQL literal for parameter substitution.
std::string LiteralSql(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.type() == DataType::kVarchar) {
    std::string escaped;
    for (char c : v.AsVarchar()) {
      if (c == '\'') escaped += "''";
      else escaped.push_back(c);
    }
    return "'" + escaped + "'";
  }
  if (v.type() == DataType::kBool) return v.AsBool() ? "TRUE" : "FALSE";
  return v.ToString();
}

}  // namespace

Status JavaUdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::PlanOptions& options) {
  // Compile + optimize the plan ONCE at registration; the procedural body
  // interprets the captured plan directly, rendering parameters as literals
  // at call time (a prepared-statement analog).
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return RegisterFederatedFunction(
      spec, std::make_shared<const plan::FedPlan>(std::move(fed_plan)));
}

Status JavaUdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec,
    std::shared_ptr<const plan::FedPlan> fed_plan) {
  if (!JavaUdtfSupports(fed_plan->mapping_case)) {
    return Status::Unsupported(
        std::string("the Java UDTF architecture cannot express the ") +
        MappingCaseName(fed_plan->mapping_case) + " case");
  }
  Schema returns = fed_plan->result_schema;

  fdbs::ProceduralBody body =
      [plan = std::move(fed_plan), returns](
          const std::vector<Value>& args,
          fdbs::SqlClient* client) -> Result<Table> {
    const plan::FedPlan& fed_plan = *plan;
    auto render_param = [&](const std::string& param) -> std::string {
      for (size_t i = 0; i < fed_plan.params.size(); ++i) {
        if (EqualsIgnoreCase(fed_plan.params[i].name, param)) {
          return LiteralSql(args[i]);
        }
      }
      return param;  // resolved per-iteration below (ITERATION)
    };

    if (!fed_plan.loop.enabled) {
      FEDFLOW_ASSIGN_OR_RETURN(std::string sql,
                               plan::RenderSelectSql(fed_plan, render_param));
      return client->Query(sql);
    }

    // Cyclic case: client-side do-until loop, one statement per iteration.
    int64_t limit = 0;
    for (size_t i = 0; i < fed_plan.params.size(); ++i) {
      if (EqualsIgnoreCase(fed_plan.params[i].name,
                           fed_plan.loop.count_param)) {
        FEDFLOW_ASSIGN_OR_RETURN(limit, args[i].ToInt64());
      }
    }
    Table all(returns);
    int64_t iteration = 0;
    do {
      ++iteration;
      auto render_with_iteration =
          [&](const std::string& param) -> std::string {
        if (EqualsIgnoreCase(param, "ITERATION")) {
          return std::to_string(iteration);
        }
        return render_param(param);
      };
      FEDFLOW_ASSIGN_OR_RETURN(
          std::string sql,
          plan::RenderSelectSql(fed_plan, render_with_iteration));
      FEDFLOW_ASSIGN_OR_RETURN(Table chunk, client->Query(sql));
      if (!fed_plan.loop.union_all) all = Table(returns);  // keep last only
      for (Row& r : chunk.mutable_rows()) {
        FEDFLOW_RETURN_NOT_OK(all.AppendRow(std::move(r)));
      }
    } while (iteration < limit);
    return all;
  };

  auto fn = std::make_shared<fdbs::ProceduralTableFunction>(
      spec.name, spec.params, returns, std::move(body),
      model_->jdbc_statement_us);
  // The SQL I-UDTF's decorator with the Java start/finish steps: the same
  // warm-up surcharge and statement-level retry (a retriable failure
  // re-interprets the WHOLE plan).
  return db_->catalog().RegisterTableFunction(
      std::make_shared<InstrumentedIUdtf>(std::move(fn), model_, retry_,
                                          kJavaIUdtfSteps));
}

}  // namespace fedflow::federation
