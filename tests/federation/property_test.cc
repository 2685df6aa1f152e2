// Property tests: for randomly generated mapping graphs, the UDTF coupling
// (compiled to SQL and run by the FDBS) and the WfMS coupling (compiled to a
// workflow process and run by the engine) must produce exactly the same
// result as a direct oracle evaluation of the spec.
#include <gtest/gtest.h>

#include <map>

#include "appsys/appsystem.h"
#include "common/rng.h"
#include "federation/controller.h"
#include "federation/spec.h"
#include "federation/java_coupling.h"
#include "federation/udtf_coupling.h"
#include "federation/wfms_coupling.h"
#include "in_flow.h"

namespace fedflow::federation {
namespace {

/// Synthetic application system with deterministic single-row functions of
/// arity 1 and 2, plus a multi-row function for join properties.
class PropSystem : public appsys::AppSystem {
 public:
  PropSystem() : AppSystem("propsys") {
    auto single = [](const std::string& name, int arity, auto fn) {
      appsys::LocalFunction f;
      f.name = name;
      for (int i = 0; i < arity; ++i) {
        f.params.push_back(Column{"p" + std::to_string(i), DataType::kInt});
      }
      f.result_schema.AddColumn("v", DataType::kInt);
      f.body = [fn](const std::vector<Value>& args) -> Result<Table> {
        Schema s;
        s.AddColumn("v", DataType::kInt);
        Table t(s);
        t.AppendRowUnchecked({Value::Int(fn(args))});
        return t;
      };
      return f;
    };
    (void)Register(single("F1", 1, [](const std::vector<Value>& a) {
      return 2 * a[0].AsInt() + 1;
    }));
    (void)Register(single("F2", 1, [](const std::vector<Value>& a) {
      return (a[0].AsInt() * a[0].AsInt()) % 97;
    }));
    (void)Register(single("F3", 1, [](const std::vector<Value>& a) {
      return a[0].AsInt() - 7;
    }));
    (void)Register(single("G1", 2, [](const std::vector<Value>& a) {
      return a[0].AsInt() + 3 * a[1].AsInt();
    }));
    (void)Register(single("G2", 2, [](const std::vector<Value>& a) {
      return a[0].AsInt() * 5 - a[1].AsInt();
    }));
    // Multi-row: M(x) -> rows v = x, x+1, ..., x + (|x| mod 4).
    appsys::LocalFunction multi;
    multi.name = "M";
    multi.params = {Column{"p0", DataType::kInt}};
    multi.result_schema.AddColumn("v", DataType::kInt);
    multi.body = [](const std::vector<Value>& args) -> Result<Table> {
      Schema s;
      s.AddColumn("v", DataType::kInt);
      Table t(s);
      int x = args[0].AsInt();
      int n = (x < 0 ? -x : x) % 4;
      for (int i = 0; i <= n; ++i) {
        t.AppendRowUnchecked({Value::Int(x + i)});
      }
      return t;
    };
    (void)Register(std::move(multi));
  }
};

/// One fully wired harness per architecture.
struct Harness {
  appsys::AppSystemRegistry systems;
  sim::LatencyModel model;
  sim::SystemState state;
  // Separate FDBS instances per architecture (both registrations use the
  // federated function's own name).
  fdbs::Database db;
  fdbs::Database db_wfms;
  fdbs::Database db_java;
  Controller controller{&systems, &model};
  wfms::Engine engine;
  UdtfCoupling udtf{&db, &systems, &model};
  WfmsCoupling wfms{&db_wfms, &engine, &systems, &model};
  UdtfCoupling udtf_for_java{&db_java, &systems, &model};
  JavaUdtfCoupling java{&db_java, &systems, &model};

  Harness() {
    (void)systems.Add(std::make_shared<PropSystem>());
    controller.Start();
    (void)udtf.RegisterAccessUdtfs();
    (void)udtf_for_java.RegisterAccessUdtfs();
  }

  /// Runs `sql` on `on` in a flow on the harness controller and ledger.
  Result<Table> Execute(fdbs::Database& on, const std::string& sql) {
    return ExecuteInFlow(on, &controller, &state, sql);
  }
};

/// Oracle: evaluates the spec directly against the application systems in
/// topological order (single-row functions only; no joins).
Result<Table> OracleEvaluate(const FederatedFunctionSpec& spec,
                             const appsys::AppSystemRegistry& systems,
                             const std::vector<Value>& params) {
  FEDFLOW_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           TopologicalCallOrder(spec));
  std::map<std::string, Table> outputs;
  for (size_t idx : order) {
    const SpecCall& call = spec.calls[idx];
    std::vector<Value> args;
    for (const SpecArg& arg : call.args) {
      switch (arg.kind) {
        case SpecArg::Kind::kConstant:
          args.push_back(arg.constant);
          break;
        case SpecArg::Kind::kParam: {
          bool found = false;
          for (size_t p = 0; p < spec.params.size(); ++p) {
            if (spec.params[p].name == arg.param) {
              args.push_back(params[p]);
              found = true;
            }
          }
          if (!found) return Status::NotFound("param " + arg.param);
          break;
        }
        case SpecArg::Kind::kNodeColumn: {
          const Table& src = outputs.at(arg.node);
          FEDFLOW_ASSIGN_OR_RETURN(size_t col,
                                   src.schema().FindColumn(arg.column));
          if (src.num_rows() != 1) {
            return Status::ExecutionError("oracle: multi-row scalar source");
          }
          args.push_back(src.rows()[0][col]);
          break;
        }
      }
    }
    FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem * sys,
                             systems.Get(call.system));
    FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem::CallResult result,
                             sys->Call(call.function, args));
    outputs[call.id] = std::move(result.table);
  }
  // Assemble outputs (single combined row; all sources single-row here).
  Schema schema;
  Row row;
  for (const SpecOutput& out : spec.outputs) {
    const Table& src = outputs.at(out.node);
    FEDFLOW_ASSIGN_OR_RETURN(size_t col, src.schema().FindColumn(out.column));
    Value v = src.rows()[0][col];
    DataType t = src.schema().column(col).type;
    if (out.cast_to != DataType::kNull) {
      FEDFLOW_ASSIGN_OR_RETURN(v, v.CastTo(out.cast_to));
      t = out.cast_to;
    }
    schema.AddColumn(out.name, t);
    row.push_back(std::move(v));
  }
  Table result(schema);
  FEDFLOW_RETURN_NOT_OK(result.AppendRow(std::move(row)));
  return result;
}

/// Generates a random acyclic single-row mapping spec.
FederatedFunctionSpec RandomSpec(Rng* rng, uint64_t tag) {
  FederatedFunctionSpec spec;
  spec.name = "Rand" + std::to_string(tag);
  spec.params = {Column{"P1", DataType::kInt}, Column{"P2", DataType::kInt}};
  const char* unary[] = {"F1", "F2", "F3"};
  const char* binary[] = {"G1", "G2"};
  const int n = static_cast<int>(rng->Uniform(1, 5));
  for (int i = 0; i < n; ++i) {
    SpecCall call;
    call.id = "N" + std::to_string(i);
    call.system = "propsys";
    const bool is_binary = rng->Chance(0.4);
    call.function = is_binary ? binary[rng->Uniform(0, 1)]
                              : unary[rng->Uniform(0, 2)];
    const int arity = is_binary ? 2 : 1;
    for (int a = 0; a < arity; ++a) {
      SpecArg arg;
      // Prefer node references when earlier nodes exist (builds real DAGs).
      if (i > 0 && rng->Chance(0.6)) {
        arg = SpecArg::NodeColumn(
            "N" + std::to_string(rng->Uniform(0, i - 1)), "v");
      } else if (rng->Chance(0.5)) {
        arg = SpecArg::Param(rng->Chance(0.5) ? "P1" : "P2");
      } else {
        arg = SpecArg::Constant(
            Value::Int(static_cast<int32_t>(rng->Uniform(-20, 20))));
      }
      call.args.push_back(std::move(arg));
    }
    spec.calls.push_back(std::move(call));
  }
  // 1-2 outputs from random nodes (concat path needs distinct names).
  const int outs = static_cast<int>(rng->Uniform(1, 2));
  for (int o = 0; o < outs; ++o) {
    SpecOutput out;
    out.name = "O" + std::to_string(o);
    out.node = "N" + std::to_string(rng->Uniform(0, n - 1));
    out.column = "v";
    if (rng->Chance(0.3)) out.cast_to = DataType::kBigInt;
    spec.outputs.push_back(std::move(out));
  }
  return spec;
}

class EquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalencePropertyTest, BothArchitecturesMatchTheOracle) {
  Rng rng(GetParam() * 7919 + 17);
  Harness harness;
  for (int round = 0; round < 5; ++round) {
    FederatedFunctionSpec spec =
        RandomSpec(&rng, GetParam() * 100 + static_cast<uint64_t>(round));
    ASSERT_TRUE(ValidateSpec(spec).ok()) << spec.name;

    ASSERT_TRUE(harness.udtf.RegisterFederatedFunction(spec).ok())
        << spec.name;
    ASSERT_TRUE(harness.wfms.RegisterFederatedFunction(spec).ok())
        << spec.name;
    ASSERT_TRUE(harness.java.RegisterFederatedFunction(spec).ok())
        << spec.name;

    std::vector<Value> args = {
        Value::Int(static_cast<int32_t>(rng.Uniform(-50, 50))),
        Value::Int(static_cast<int32_t>(rng.Uniform(-50, 50)))};
    auto oracle = OracleEvaluate(spec, harness.systems, args);
    ASSERT_TRUE(oracle.ok()) << oracle.status();

    std::string call_sql = "SELECT * FROM TABLE (" + spec.name + "(" +
                           args[0].ToString() + ", " + args[1].ToString() +
                           ")) AS R";
    // Note: the WfMS wrapper shadows nothing here because both couplings
    // registered the same name in the same catalog would collide; the UDTF
    // coupling registered first, so query it, then run the process directly.
    auto via_udtf = harness.Execute(harness.db, call_sql);
    ASSERT_TRUE(via_udtf.ok()) << spec.name << ": " << via_udtf.status();
    EXPECT_TRUE(Table::SameRowsAnyOrder(*via_udtf, *oracle))
        << spec.name << "\nUDTF:\n"
        << via_udtf->ToString() << "oracle:\n"
        << oracle->ToString();

    // WfMS path: run the registered process through the engine directly.
    auto process_result = harness.engine.Run(
        spec.name, args, harness.wfms.wrapper()->invoker());
    ASSERT_TRUE(process_result.ok())
        << spec.name << ": " << process_result.status();
    Table wfms_out(oracle->schema());
    for (const Row& r : process_result->output.rows()) {
      Row copy = r;
      ASSERT_TRUE(wfms_out.AppendRow(std::move(copy)).ok());
    }
    EXPECT_TRUE(Table::SameRowsAnyOrder(wfms_out, *oracle))
        << spec.name << "\nWfMS:\n"
        << wfms_out.ToString() << "oracle:\n"
        << oracle->ToString();

    // Java UDTF path (the procedural third architecture).
    auto via_java = harness.Execute(harness.db_java, call_sql);
    ASSERT_TRUE(via_java.ok()) << spec.name << ": " << via_java.status();
    EXPECT_TRUE(Table::SameRowsAnyOrder(*via_java, *oracle))
        << spec.name << "\nJava:\n"
        << via_java->ToString() << "oracle:\n"
        << oracle->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalencePropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- join property ------------------------------------------------------------

class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, JoinSpecsAgreeAcrossArchitectures) {
  Rng rng(GetParam() * 104729 + 3);
  Harness harness;
  // Two multi-row calls joined on their value columns.
  FederatedFunctionSpec spec;
  spec.name = "Join" + std::to_string(GetParam());
  spec.params = {Column{"P1", DataType::kInt}, Column{"P2", DataType::kInt}};
  spec.calls = {
      {"A", "propsys", "M", {SpecArg::Param("P1")}},
      {"B", "propsys", "M", {SpecArg::Param("P2")}},
  };
  spec.joins = {{"A", "v", "B", "v"}};
  spec.outputs = {{"AV", "A", "v", DataType::kNull},
                  {"BV", "B", "v", DataType::kNull}};
  ASSERT_TRUE(harness.udtf.RegisterFederatedFunction(spec).ok());
  ASSERT_TRUE(harness.wfms.RegisterFederatedFunction(spec).ok());

  for (int round = 0; round < 8; ++round) {
    int x = static_cast<int32_t>(rng.Uniform(-10, 10));
    int y = static_cast<int32_t>(rng.Uniform(-10, 10));
    std::vector<Value> args = {Value::Int(x), Value::Int(y)};
    auto via_udtf = harness.Execute(
        harness.db, "SELECT * FROM TABLE (" + spec.name + "(" +
                        std::to_string(x) + ", " + std::to_string(y) +
                        ")) AS R");
    ASSERT_TRUE(via_udtf.ok()) << via_udtf.status();
    auto process_result =
        harness.engine.Run(spec.name, args, harness.wfms.wrapper()->invoker());
    ASSERT_TRUE(process_result.ok()) << process_result.status();
    Table wfms_out(via_udtf->schema());
    for (const Row& r : process_result->output.rows()) {
      Row copy = r;
      ASSERT_TRUE(wfms_out.AppendRow(std::move(copy)).ok());
    }
    EXPECT_TRUE(Table::SameRowsAnyOrder(*via_udtf, wfms_out))
        << "x=" << x << " y=" << y << "\nUDTF:\n"
        << via_udtf->ToString() << "WfMS:\n"
        << wfms_out.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace fedflow::federation
