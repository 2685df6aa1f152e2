#include "federation/java_coupling.h"

#include <memory>

#include "common/strings.h"
#include "fdbs/procedural_function.h"
#include "federation/udtf_coupling.h"
#include "plan/lower_sql.h"
#include "sql/parser.h"

namespace fedflow::federation {

bool JavaUdtfSupports(MappingCase c) { return c != MappingCase::kGeneral; }

Status JavaUdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::PlanOptions& options) {
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return RegisterFederatedFunction(spec, fed_plan);
}

Status JavaUdtfCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::FedPlan& fed_plan) {
  if (!JavaUdtfSupports(fed_plan.mapping_case)) {
    return Status::Unsupported(
        std::string("the Java UDTF architecture cannot express the ") +
        MappingCaseName(fed_plan.mapping_case) + " case");
  }
  // The prepared statement: rendered and parsed once, here. Parameters and
  // ITERATION are referenced DB2-style as Name.Param, like the SQL I-UDTF
  // and PSM lowerings, and bound per JDBC statement.
  FEDFLOW_ASSIGN_OR_RETURN(
      std::string select_sql,
      plan::RenderSelectSql(fed_plan, [&spec](const std::string& param) {
        return spec.name + "." + param;
      }));
  FEDFLOW_ASSIGN_OR_RETURN(sql::SelectStmt parsed,
                           sql::ParseSelect(select_sql));
  auto select = std::make_shared<const sql::SelectStmt>(std::move(parsed));

  fdbs::ProceduralBody body =
      [select, name = spec.name, params = fed_plan.params,
       loop = fed_plan.loop, returns = fed_plan.result_schema](
          const std::vector<Value>& args,
          fdbs::SqlClient* client) -> Result<Table> {
    fdbs::ParamScope scope;
    scope.function_name = name;
    // ITERATION leads the scope, so it shadows a parameter of that name.
    if (loop.enabled) scope.params.emplace_back("ITERATION", Value::Int(0));
    int64_t limit = 0;
    for (size_t i = 0; i < params.size(); ++i) {
      FEDFLOW_ASSIGN_OR_RETURN(Value bound, args[i].CastTo(params[i].type));
      if (loop.enabled && EqualsIgnoreCase(params[i].name, loop.count_param)) {
        FEDFLOW_ASSIGN_OR_RETURN(limit, bound.ToInt64());
      }
      scope.params.emplace_back(params[i].name, std::move(bound));
    }
    if (!loop.enabled) return client->Query(*select, scope);

    // Cyclic case: client-side do-until loop, one statement per iteration.
    Table all(returns);
    int64_t iteration = 0;
    do {
      ++iteration;
      scope.params.front().second = Value::Int(static_cast<int32_t>(iteration));
      FEDFLOW_ASSIGN_OR_RETURN(Table chunk, client->Query(*select, scope));
      if (!loop.union_all) all = Table(returns);  // keep last only
      for (Row& r : chunk.mutable_rows()) {
        FEDFLOW_RETURN_NOT_OK(all.AppendRow(std::move(r)));
      }
    } while (iteration < limit);
    return all;
  };

  auto fn = std::make_shared<fdbs::ProceduralTableFunction>(
      spec.name, spec.params, fed_plan.result_schema, std::move(body),
      model_->jdbc_statement_us);
  // The SQL I-UDTF's decorator with the Java start/finish steps: the same
  // warm-up surcharge and statement-level retry (a retriable failure
  // re-executes the WHOLE body).
  return db_->catalog().RegisterTableFunction(
      std::make_shared<InstrumentedIUdtf>(std::move(fn), model_, retry_,
                                          kJavaIUdtfSteps));
}

}  // namespace fedflow::federation
