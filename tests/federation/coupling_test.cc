// Unit tests of both couplings: the generated I-UDTF SQL, the compiled
// process definitions, the controller, and the SQL/MED wrapper adapter.
#include <gtest/gtest.h>

#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "federation/binding.h"
#include "federation/controller.h"
#include "federation/sample_scenario.h"
#include "federation/udtf_coupling.h"
#include "federation/wfms_coupling.h"
#include "in_flow.h"
#include "sql/parser.h"
#include "wfms/fdl.h"

namespace fedflow::federation {
namespace {

class CouplingTest : public ::testing::Test {
 protected:
  static wfms::EngineOptions EngineOpts(const sim::LatencyModel& model) {
    wfms::EngineOptions opts;
    opts.navigation_cost_us = model.wf_navigation_us;
    opts.container_cost_us = model.wf_container_us;
    opts.helper_cost_us = model.wf_helper_us;
    return opts;
  }

  CouplingTest()
      : scenario_(appsys::GenerateScenario({})),
        controller_(&systems_, &model_),
        engine_(EngineOpts(model_)),
        udtf_(&db_, &systems_, &model_),
        wfms_(&db_, &engine_, &systems_, &model_) {
    (void)systems_.Add(std::make_shared<appsys::StockKeepingSystem>(scenario_));
    (void)systems_.Add(std::make_shared<appsys::PurchasingSystem>(scenario_));
    (void)systems_.Add(std::make_shared<appsys::PdmSystem>(scenario_));
    controller_.Start();
  }

  /// Runs `sql` in a flow on the fixture's controller and ledger.
  Result<Table> Execute(const std::string& sql, SimClock* clock = nullptr) {
    return ExecuteInFlow(db_, &controller_, &state_, sql, clock);
  }

  appsys::Scenario scenario_;
  appsys::AppSystemRegistry systems_;
  sim::LatencyModel model_;
  sim::SystemState state_;
  fdbs::Database db_;
  Controller controller_;
  wfms::Engine engine_;
  UdtfCoupling udtf_;
  WfmsCoupling wfms_;
};

// --- binding ------------------------------------------------------------------

TEST_F(CouplingTest, BindSpecAcceptsAllSamples) {
  for (const FederatedFunctionSpec& spec : AllSampleSpecs()) {
    EXPECT_TRUE(BindSpec(spec, systems_).ok()) << spec.name;
  }
}

TEST_F(CouplingTest, BindSpecRejectsUnknownSystemFunctionAndColumn) {
  FederatedFunctionSpec spec = GibKompNrSpec();
  spec.calls[0].system = "erp";
  EXPECT_FALSE(BindSpec(spec, systems_).ok());

  spec = GibKompNrSpec();
  spec.calls[0].function = "NoSuchFn";
  EXPECT_FALSE(BindSpec(spec, systems_).ok());

  spec = GibKompNrSpec();
  spec.outputs[0].column = "Ghost";
  EXPECT_FALSE(BindSpec(spec, systems_).ok());
}

TEST_F(CouplingTest, BindSpecChecksCallArity) {
  FederatedFunctionSpec spec = GibKompNrSpec();
  spec.calls[0].args.push_back(SpecArg::Constant(Value::Int(1)));
  auto st = BindSpec(spec, systems_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("expects"), std::string::npos);
}

TEST_F(CouplingTest, ResolveResultSchemaAppliesCasts) {
  auto schema = ResolveResultSchema(GetNumberSupp1234Spec(), systems_);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->column(0).name, "Number");
  EXPECT_EQ(schema->column(0).type, DataType::kBigInt);
}

TEST_F(CouplingTest, NodeColumnTypeResolvesThroughSignature) {
  auto t = NodeColumnType(BuySuppCompSpec(), systems_, "DP", "Answer");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, DataType::kVarchar);
}

// --- UDTF coupling: generated SQL ----------------------------------------------

TEST_F(CouplingTest, GeneratedBuySuppCompSqlMatchesPaperShape) {
  auto sql = udtf_.CompileIUdtfSql(BuySuppCompSpec());
  ASSERT_TRUE(sql.ok()) << sql.status();
  // The generated statement mirrors the paper's CREATE FUNCTION verbatim in
  // structure: parameters referenced as BuySuppComp.X, five lateral
  // TABLE(...) references, outputs projected from the last call.
  EXPECT_NE(sql->find("CREATE FUNCTION BuySuppComp (SupplierNo INT, "
                      "CompName VARCHAR)"),
            std::string::npos);
  EXPECT_NE(sql->find("RETURNS TABLE (Answer VARCHAR)"), std::string::npos);
  EXPECT_NE(sql->find("TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ"),
            std::string::npos);
  EXPECT_NE(sql->find("TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG"),
            std::string::npos);
  EXPECT_NE(sql->find("TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP"),
            std::string::npos);
  // And it reparses with our own SQL frontend.
  EXPECT_TRUE(sql::Parse(*sql).ok());
}

TEST_F(CouplingTest, GeneratedSimpleCaseUsesCastAndConstant) {
  auto sql = udtf_.CompileIUdtfSql(GetNumberSupp1234Spec());
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("BIGINT(GN.Number)"), std::string::npos);
  EXPECT_NE(sql->find("GetNumber(1234, GetNumberSupp1234.CompNo)"),
            std::string::npos);
}

TEST_F(CouplingTest, GeneratedIndependentCaseHasJoinPredicate) {
  auto sql = udtf_.CompileIUdtfSql(GetSubCompDiscountsSpec());
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("WHERE GSCD.SubCompNo=GCS4D.CompNo"), std::string::npos);
}

TEST_F(CouplingTest, GeneratedSqlEmitsTopologicalOrder) {
  // Even if the spec lists the dependent call first, the FROM clause lists
  // providers before consumers.
  FederatedFunctionSpec spec = GetSuppQualSpec();
  std::swap(spec.calls[0], spec.calls[1]);
  auto sql = udtf_.CompileIUdtfSql(spec);
  ASSERT_TRUE(sql.ok());
  EXPECT_LT(sql->find("GetSupplierNo"), sql->find("GetQuality"));
}

TEST_F(CouplingTest, CyclicSpecUnsupportedByUdtf) {
  auto sql = udtf_.CompileIUdtfSql(AllCompNamesSpec());
  ASSERT_FALSE(sql.ok());
  EXPECT_EQ(sql.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(sql.status().message().find("cyclic"), std::string::npos);
}

TEST_F(CouplingTest, StringConstantsEscapedInGeneratedSql) {
  FederatedFunctionSpec spec = GibKompNrSpec();
  spec.params.clear();
  spec.calls[0].args[0] = SpecArg::Constant(Value::Varchar("o'ring"));
  auto sql = udtf_.CompileIUdtfSql(spec);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("'o''ring'"), std::string::npos);
  EXPECT_TRUE(sql::Parse(*sql).ok());
}

TEST_F(CouplingTest, RegisterFederatedFunctionMakesItQueryable) {
  ASSERT_TRUE(udtf_.RegisterAccessUdtfs().ok());
  ASSERT_TRUE(udtf_.RegisterFederatedFunction(GibKompNrSpec()).ok());
  auto result =
      Execute("SELECT G.Nr FROM TABLE (GibKompNr('brakepad')) AS G");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows()[0][0].AsInt(), 17);
}

TEST_F(CouplingTest, AccessUdtfRegistrationIsIdempotentlyRejected) {
  ASSERT_TRUE(udtf_.RegisterAccessUdtfs().ok());
  EXPECT_FALSE(udtf_.RegisterAccessUdtfs().ok());  // duplicates
}

TEST_F(CouplingTest, AccessUdtfGoesThroughControllerAndCharges) {
  ASSERT_TRUE(udtf_.RegisterAccessUdtfs().ok());
  SimClock clock;
  auto result =
      Execute("SELECT GQ.Qual FROM TABLE (GetQuality(1234)) AS GQ", &clock);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(controller_.dispatch_count(), 1);
  EXPECT_GT(clock.breakdown().Of(sim::steps::kUdtfPrepareA), 0);
  EXPECT_GT(clock.breakdown().Of(sim::steps::kUdtfRmiCalls), 0);
  EXPECT_GT(clock.breakdown().Of(sim::steps::kUdtfProcessActivities), 0);
}

TEST_F(CouplingTest, StoppedControllerFailsAccessUdtfs) {
  ASSERT_TRUE(udtf_.RegisterAccessUdtfs().ok());
  controller_.Stop();
  auto result = Execute("SELECT GQ.Qual FROM TABLE (GetQuality(1234)) AS GQ");
  ASSERT_FALSE(result.ok());
  // The flow is there; its controller is what refuses.
  EXPECT_NE(result.status().message().find("controller not started"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(result.status().message().find("no flow"), std::string::npos);
}

// --- WfMS coupling: compiled processes ------------------------------------------

TEST_F(CouplingTest, CompiledBuySuppCompProcessShape) {
  auto compiled = wfms_.CompileProcess(BuySuppCompSpec());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const wfms::ProcessDefinition& p = compiled->process;
  EXPECT_EQ(p.activities.size(), 6u);  // 5 programs + RESULT helper
  EXPECT_EQ(p.output_activity, "RESULT");
  // The precedence graph of Fig. 1.
  int edges = 0;
  for (const wfms::ControlConnector& c : p.connectors) {
    (void)c;
    ++edges;
  }
  EXPECT_EQ(edges, 5);  // GQ->GG, GR->GG, GG->DP, GCN->DP, DP->RESULT
}

TEST_F(CouplingTest, CompiledIndependentProcessUsesJoinHelper) {
  auto compiled = wfms_.CompileProcess(GetSubCompDiscountsSpec());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  bool has_join_activity = false;
  for (const wfms::ActivityDef& a : compiled->process.activities) {
    if (a.kind == wfms::ActivityKind::kHelper && a.name == "JOIN1") {
      has_join_activity = true;
    }
  }
  EXPECT_TRUE(has_join_activity);
  ASSERT_EQ(compiled->helpers.size(), 2u);  // join + result
}

TEST_F(CouplingTest, CompiledLoopProcessUsesBlock) {
  auto compiled = wfms_.CompileProcess(AllCompNamesSpec());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const wfms::ProcessDefinition& p = compiled->process;
  ASSERT_EQ(p.activities.size(), 1u);
  EXPECT_EQ(p.activities[0].kind, wfms::ActivityKind::kBlock);
  EXPECT_EQ(p.activities[0].accumulate, wfms::BlockAccumulate::kUnionAll);
  ASSERT_NE(p.activities[0].exit_condition, nullptr);
  EXPECT_EQ(p.activities[0].exit_condition->ToSql(), "(ITERATION >= MaxNo)");
  // The sub-process got the implicit ITERATION parameter.
  ASSERT_NE(p.activities[0].sub, nullptr);
  EXPECT_EQ(p.activities[0].sub->input_params.back().name, "ITERATION");
}

TEST_F(CouplingTest, CompiledProcessesRenderAsFdl) {
  for (const FederatedFunctionSpec& spec : AllSampleSpecs()) {
    auto compiled = wfms_.CompileProcess(spec);
    ASSERT_TRUE(compiled.ok()) << spec.name << ": " << compiled.status();
    std::string fdl = wfms::ToFdl(compiled->process);
    auto reparsed = wfms::ParseFdl(fdl);
    EXPECT_TRUE(reparsed.ok()) << spec.name << ":\n" << fdl << "\n"
                               << reparsed.status();
  }
}

TEST_F(CouplingTest, WfmsRegisterFederatedFunctionMakesItQueryable) {
  ASSERT_TRUE(wfms_.RegisterFederatedFunction(GetSuppQualReliaSpec()).ok());
  auto result = Execute(
      "SELECT R.Qual, R.Relia FROM TABLE (GetSuppQualRelia(1234)) AS R");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows()[0][0].AsInt(), 9);
  EXPECT_EQ(result->rows()[0][1].AsInt(), 8);
}

TEST_F(CouplingTest, WrapperListsRegisteredFunctions) {
  ASSERT_TRUE(wfms_.RegisterFederatedFunction(GibKompNrSpec()).ok());
  ASSERT_TRUE(wfms_.RegisterFederatedFunction(GetSuppQualSpec()).ok());
  auto fns = wfms_.wrapper()->Functions();
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(wfms_.wrapper()->Name(), "wfms");
}

TEST_F(CouplingTest, WrapperChargesWfmsCostCategories) {
  ASSERT_TRUE(wfms_.RegisterFederatedFunction(GetSuppQualSpec()).ok());
  SimClock clock;
  auto result =
      Execute("SELECT R.Qual FROM TABLE (GetSuppQual('Stark')) AS R", &clock);
  ASSERT_TRUE(result.ok()) << result.status();
  const TimeBreakdown& b = clock.breakdown();
  EXPECT_GT(b.Of(sim::steps::kWfStartUdtf), 0);
  EXPECT_GT(b.Of(sim::steps::kWfProcessStart), 0);
  EXPECT_GT(b.Of(wfms::steps::kProcessActivities), 0);
  EXPECT_GT(b.Of(wfms::steps::kWorkflowNavigation), 0);
  EXPECT_GT(b.Of(sim::steps::kWfController), 0);
  // Cold call charged warm-up.
  EXPECT_GT(b.Of(sim::steps::kWarmup), 0);
}

TEST_F(CouplingTest, StoppedControllerFailsWrapper) {
  ASSERT_TRUE(wfms_.RegisterFederatedFunction(GibKompNrSpec()).ok());
  controller_.Stop();
  auto result = Execute("SELECT G.Nr FROM TABLE (GibKompNr('brakepad')) AS G");
  ASSERT_FALSE(result.ok());
  // The flow is there; its controller is what refuses.
  EXPECT_NE(result.status().message().find("controller not started"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(result.status().message().find("no flow"), std::string::npos);
}

TEST_F(CouplingTest, ControllerDispatchRoutesAndCounts) {
  auto r = controller_.Dispatch("pdm", "GetCompNo",
                                {Value::Varchar("brakepad")});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 17);
  EXPECT_GT(r->app_cost_us, 0);
  EXPECT_EQ(controller_.dispatch_count(), 1);
  EXPECT_FALSE(controller_.Dispatch("ghost", "f", {}).ok());
}

TEST_F(CouplingTest, DuplicateWfmsRegistrationRejected) {
  ASSERT_TRUE(wfms_.RegisterFederatedFunction(GibKompNrSpec()).ok());
  EXPECT_FALSE(wfms_.RegisterFederatedFunction(GibKompNrSpec()).ok());
}

}  // namespace
}  // namespace fedflow::federation
