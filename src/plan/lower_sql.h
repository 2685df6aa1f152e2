// SQL lowering of the plan IR: renders the body SELECT of a federated
// function — outputs with casts, lateral TABLE(...) references in plan
// order, join predicates. Shared by the SQL I-UDTF compiler, the PSM
// compiler and the Java/procedural coupling, which all render parameters
// DB2-style as "SpecName.Param" once, at registration, and bind their
// values per execution. For a passthrough plan the rendered text is
// byte-identical to the legacy BuildSpecSelectSql output.
#ifndef FEDFLOW_PLAN_LOWER_SQL_H_
#define FEDFLOW_PLAN_LOWER_SQL_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "plan/fed_plan.h"

namespace fedflow::plan {

/// Renders a parameter reference inside generated SQL.
using ParamRenderer = std::function<std::string(const std::string& param)>;

/// Renders the plan's body SELECT: constants as literals
/// (sql::LiteralExpr::ToSql), parameters through `render_param`, node
/// columns qualified. Looping plans render their body graph (the caller
/// supplies ITERATION through `render_param`).
Result<std::string> RenderSelectSql(const FedPlan& plan,
                                    const ParamRenderer& render_param);

}  // namespace fedflow::plan

#endif  // FEDFLOW_PLAN_LOWER_SQL_H_
