// IntegrationServer facade behavior across the three architectures.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "federation/sample_scenario.h"

namespace fedflow::federation {
namespace {

TEST(ServerTest, ArchitectureNamesStable) {
  EXPECT_STREQ(ArchitectureName(Architecture::kWfms), "WfMS approach");
  EXPECT_STREQ(ArchitectureName(Architecture::kUdtf), "UDTF approach");
  EXPECT_STREQ(ArchitectureName(Architecture::kJavaUdtf),
               "Java UDTF approach");
}

TEST(ServerTest, EngineOnlyPresentUnderWfms) {
  auto wfms = MakeSampleServer(Architecture::kWfms);
  auto udtf = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(wfms.ok() && udtf.ok());
  EXPECT_NE((*wfms)->engine(), nullptr);
  EXPECT_NE((*wfms)->program_invoker(), nullptr);
  EXPECT_EQ((*udtf)->engine(), nullptr);
  EXPECT_EQ((*udtf)->program_invoker(), nullptr);
}

TEST(ServerTest, QueryTimedOnPlainSqlChargesNothing) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Query("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE((*server)->Query("INSERT INTO t VALUES (1)").ok());
  auto timed = (*server)->QueryTimed("SELECT * FROM t");
  ASSERT_TRUE(timed.ok());
  // Local-only SQL crosses no modeled boundary: zero virtual time.
  EXPECT_EQ(timed->elapsed_us, 0);
}

TEST(ServerTest, DistinctAdHocFiltersAddNoMetricName) {
  // Metric names are a fixed set: a vectorized filter's SQL text must not
  // become one, or every distinct ad-hoc query grows the registry.
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Query("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE((*server)->Query("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE((*server)->QueryTimed("SELECT x FROM t WHERE x > 0").ok());
  const obs::MetricsRegistry& metrics = (*server)->metrics();
  const size_t names = metrics.Counters().size() + metrics.Gauges().size();
  for (int i = 0; i < 5000; ++i) {
    auto r = (*server)->QueryTimed("SELECT x FROM t WHERE x > " +
                                   std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status();
  }
  EXPECT_EQ(metrics.Counters().size() + metrics.Gauges().size(), names);
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

TEST(ServerTest, DeeplyNestedQueryIsAnInvalidArgumentNotACrash) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  for (const std::string& expr :
       {Repeat("(", 10000) + "1" + Repeat(")", 10000),
        Repeat("NOT ", 100000) + "TRUE", Repeat("- ", 100000) + "1",
        // Parses without deep recursion, but the tree is 100,000 levels tall.
        "1" + Repeat("+1", 99999)}) {
    auto r = (*server)->Query("SELECT " + expr + " AS v");
    ASSERT_FALSE(r.ok()) << expr.substr(0, 40);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
  }
}

TEST(ServerTest, QueryExactlyAtTheNestingBoundEvaluates) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  for (const auto& [expr, want] : std::vector<std::pair<std::string, Value>>{
           {Repeat("(", 255) + "7" + Repeat(")", 255), Value::Int(7)},
           {Repeat("NOT ", 255) + "TRUE", Value::Bool(false)},
           {Repeat("- ", 255) + "1", Value::Int(-1)},
           {"1" + Repeat("+1", 255), Value::Int(256)}}) {
    auto r = (*server)->Query("SELECT " + expr + " AS v");
    ASSERT_TRUE(r.ok() && r->num_rows() == 1u) << expr.substr(0, 40);
    EXPECT_EQ(r->rows()[0][0].ToString(), want.ToString());
  }
}

TEST(ServerTest, CallFederatedQuotesStringArguments) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  // A name containing a quote must survive literal rendering.
  auto r = (*server)->CallFederated("GibKompNr",
                                    {Value::Varchar("o'brien pad")});
  ASSERT_TRUE(r.ok()) << r.status();  // unknown component: empty result
  EXPECT_EQ(r->table.num_rows(), 0u);
}

TEST(ServerTest, RebootResetsWarmth) {
  auto server = MakeSampleServer(Architecture::kUdtf);
  ASSERT_TRUE(server.ok());
  (void)(*server)->CallFederated("GibKompNr", {Value::Varchar("brakepad")});
  EXPECT_EQ((*server)->state().QueryWarmth("GibKompNr"),
            sim::SystemState::Warmth::kHot);
  (*server)->Reboot();
  EXPECT_EQ((*server)->state().QueryWarmth("GibKompNr"),
            sim::SystemState::Warmth::kCold);
  EXPECT_TRUE((*server)->controller().started());
}

TEST(ServerTest, RegisteringUnsupportedSpecFailsCleanly) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = IntegrationServer::Create(Architecture::kUdtf, scenario);
  ASSERT_TRUE(server.ok());
  auto st = (*server)->RegisterFederatedFunction(AllCompNamesSpec());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST(ServerTest, UnknownSystemInSpecFails) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = IntegrationServer::Create(Architecture::kWfms, scenario);
  ASSERT_TRUE(server.ok());
  FederatedFunctionSpec spec = GibKompNrSpec();
  spec.calls[0].system = "sap_r3";
  auto st = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(st.ok());
  // The fedlint gate rejects the spec before any coupling sees it.
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("fedlint"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("FF005"), std::string::npos) << st.message();
}

TEST(ServerTest, ScenarioConfigScalesLoopExperiment) {
  // Bigger component catalog => longer AllCompNames loops still work.
  auto server = MakeSampleServer(Architecture::kWfms, {8, 120, 42});
  ASSERT_TRUE(server.ok());
  auto r = (*server)->CallFederated("AllCompNames", {Value::Int(100)});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.num_rows(), 100u);
}

TEST(ServerTest, WarmthReportedOnTimedCalls) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok());
  auto first = (*server)->CallFederated("GetSuppQual",
                                        {Value::Varchar("Stark")});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->warmth, sim::SystemState::Warmth::kCold);
  auto second = (*server)->CallFederated("GetSuppQual",
                                         {Value::Varchar("Stark")});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->warmth, sim::SystemState::Warmth::kHot);
}

TEST(ServerTest, UnknownInputsDivergenceDocumented) {
  // Known behavioral difference (see EXPERIMENTS.md): unknown supplier name
  // yields an empty table through the UDTF lateral join but a failed process
  // through the WfMS (scalar input from an empty predecessor output).
  auto udtf = MakeSampleServer(Architecture::kUdtf);
  auto wfms = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(udtf.ok() && wfms.ok());
  auto u = (*udtf)->CallFederated("GetSuppQual", {Value::Varchar("Ghost")});
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(u->table.num_rows(), 0u);
  auto w = (*wfms)->CallFederated("GetSuppQual", {Value::Varchar("Ghost")});
  EXPECT_FALSE(w.ok());
}

// --- every coupling requires a flow ------------------------------------------

struct MissingFlowCase {
  const char* coupling;
  Architecture arch;
  const char* sql;
};

class MissingFlowTest : public ::testing::TestWithParam<MissingFlowCase> {};

TEST_P(MissingFlowTest, CallWithoutFlowFailsInsteadOfUsingPinnedController) {
  auto server = MakeSampleServer(GetParam().arch);
  ASSERT_TRUE(server.ok()) << server.status();
  const int64_t dispatches = (*server)->controller().dispatch_count();
  // Straight into the FDBS, past every server entry point: no flow.
  auto r = (*server)->database().Execute(GetParam().sql);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("no flow"), std::string::npos)
      << r.status();
  // Nothing ran on the pinned controller or warmed its ledger.
  EXPECT_EQ((*server)->controller().dispatch_count(), dispatches);
  EXPECT_FALSE((*server)->state().infrastructure_warm());
}

INSTANTIATE_TEST_SUITE_P(
    Couplings, MissingFlowTest,
    ::testing::Values(
        MissingFlowCase{"AUdtf", Architecture::kUdtf,
                        "SELECT * FROM TABLE (GetQuality(1234)) AS Q"},
        MissingFlowCase{"SqlIUdtf", Architecture::kUdtf,
                        "SELECT * FROM TABLE (GetSuppQual('Stark')) AS R"},
        MissingFlowCase{"JavaIUdtf", Architecture::kJavaUdtf,
                        "SELECT * FROM TABLE (GetSuppQual('Stark')) AS R"},
        MissingFlowCase{"WfmsWrapper", Architecture::kWfms,
                        "SELECT * FROM TABLE (GetSuppQual('Stark')) AS R"}),
    [](const ::testing::TestParamInfo<MissingFlowCase>& info) {
      return std::string(info.param.coupling);
    });

// --- CallFederatedFor is Checkout + CallFederatedOnLease ----------------------

/// The call.* counters, global and tenant-scoped.
std::map<std::string, uint64_t> CallCounters(const obs::MetricsRegistry& m) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : m.Counters()) {
    if (name.find("call.") != std::string::npos) out[name] = value;
  }
  return out;
}

using FoldParam = std::tuple<Architecture, bool>;  // (arch, caching)

class LeaseFoldTest : public ::testing::TestWithParam<FoldParam> {};

std::string FoldName(const ::testing::TestParamInfo<FoldParam>& info) {
  static const char* kArch[] = {"Wfms", "Udtf", "Java"};
  return std::string(kArch[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Cached" : "Uncached");
}

TEST_P(LeaseFoldTest, CallFederatedForMatchesCheckoutPlusCallOnLease) {
  const auto [arch, caching] = GetParam();
  auto per_call = MakeSampleServer(arch);
  auto on_lease = MakeSampleServer(arch);
  ASSERT_TRUE(per_call.ok() && on_lease.ok());
  (*per_call)->set_caching_enabled(caching);
  (*on_lease)->set_caching_enabled(caching);
  // Cold (first call after boot), warm (another function), hot, and hot
  // again — served from the whole-call cache when caching is on.
  const std::vector<std::pair<std::string, std::vector<Value>>> calls = {
      {"GetSuppQual", {Value::Varchar("Stark")}},
      {"GetSuppQualRelia", {Value::Int(1234)}},
      {"GetSuppQualRelia", {Value::Int(1234)}},
      {"GetSuppQualRelia", {Value::Int(1234)}},
  };
  const sim::SystemState::Warmth expected[] = {
      sim::SystemState::Warmth::kCold, sim::SystemState::Warmth::kWarm,
      sim::SystemState::Warmth::kHot, sim::SystemState::Warmth::kHot};
  for (size_t i = 0; i < calls.size(); ++i) {
    const auto& [name, args] = calls[i];
    auto a = (*per_call)->CallFederatedFor("alice", name, args);
    auto lease = (*on_lease)->controller_pool().Checkout("alice", name);
    ASSERT_TRUE(lease.ok()) << lease.status();
    auto b = (*on_lease)->CallFederatedOnLease(*lease, "alice", name, args);
    ASSERT_TRUE(a.ok()) << name << ": " << a.status();
    ASSERT_TRUE(b.ok()) << name << ": " << b.status();
    EXPECT_TRUE(a->table == b->table) << name;
    EXPECT_EQ(a->elapsed_us, b->elapsed_us) << name;
    EXPECT_EQ(a->breakdown.entries(), b->breakdown.entries()) << name;
    EXPECT_EQ(a->warmth, expected[i]) << name;
    EXPECT_EQ(b->warmth, expected[i]) << name;
  }
  EXPECT_EQ(CallCounters((*per_call)->metrics()),
            CallCounters((*on_lease)->metrics()));
  EXPECT_EQ(CallCounters((*per_call)->metrics()).at("call.count"),
            calls.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, LeaseFoldTest,
    ::testing::Combine(::testing::Values(Architecture::kWfms,
                                         Architecture::kUdtf,
                                         Architecture::kJavaUdtf),
                       ::testing::Bool()),
    FoldName);

}  // namespace
}  // namespace fedflow::federation
