// Federated calls carry their arguments as values: CallFederated* builds the
// call statement from literal expressions, and the Java I-UDTF executes a
// body SELECT prepared at registration with its parameters bound. So a hot
// call parses no SQL (pinned with sql::ParseInvocations), and a DOUBLE
// argument or spec constant reaches the local functions with its full
// precision under all three couplings.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "federation/sample_scenario.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace fedflow::federation {
namespace {

constexpr Architecture kArchs[] = {Architecture::kWfms, Architecture::kUdtf,
                                   Architecture::kJavaUdtf};

std::unique_ptr<IntegrationServer> SampleServer(Architecture arch) {
  auto server = MakeSampleServer(arch);
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(*server) : nullptr;
}

struct Call {
  std::string name;
  std::vector<Value> args;
};

TEST(PreparedCallTest, HotCallsParseNoSql) {
  const std::vector<Call> calls = {
      {"GibKompNr", {Value::Varchar("brakepad")}},
      {"GetSuppQual", {Value::Varchar("Stark")}},
      {"GetNoSuppComp", {Value::Varchar("Stark"), Value::Varchar("brakepad")}},
      {"BuySuppComp", {Value::Int(1234), Value::Varchar("brakepad")}},
      // Cyclic: one prepared statement per iteration under Java.
      {"AllCompNames", {Value::Int(4)}},
  };
  for (Architecture arch : kArchs) {
    SCOPED_TRACE(ArchitectureName(arch));
    std::unique_ptr<IntegrationServer> server = SampleServer(arch);
    ASSERT_NE(server, nullptr);
    std::vector<Call> supported;
    for (const Call& c : calls) {
      // The SQL I-UDTF cannot express the cyclic case.
      if (arch == Architecture::kUdtf && c.name == "AllCompNames") continue;
      supported.push_back(c);
    }
    for (const Call& c : supported) {  // warm-up: cold, then warm
      ASSERT_TRUE(server->CallFederated(c.name, c.args).ok()) << c.name;
    }
    const int64_t before = sql::ParseInvocations();
    for (int round = 0; round < 3; ++round) {
      for (const Call& c : supported) {
        auto r = server->CallFederated(c.name, c.args);
        ASSERT_TRUE(r.ok()) << c.name << ": " << r.status();
        EXPECT_EQ(r->warmth, sim::SystemState::Warmth::kHot) << c.name;
      }
    }
    EXPECT_EQ(sql::ParseInvocations(), before);
  }
}

TEST(PreparedCallTest, QueryTimedParsesItsTextOnce) {
  for (Architecture arch : kArchs) {
    SCOPED_TRACE(ArchitectureName(arch));
    std::unique_ptr<IntegrationServer> server = SampleServer(arch);
    ASSERT_NE(server, nullptr);
    const int64_t before = sql::ParseInvocations();
    auto r = server->QueryTimed(
        "SELECT R.Qual FROM TABLE (GetSuppQual('Stark')) AS R");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->table.num_rows(), 1u);
    EXPECT_EQ(sql::ParseInvocations() - before, 1);
  }
}

/// The "sql" attribute of the trace's root "query" span; empty when absent.
std::string QuerySpanSql(IntegrationServer& server) {
  for (const obs::Span& span : server.tracer().Snapshot()) {
    if (span.name != "query") continue;
    for (const auto& [key, value] : span.attributes) {
      if (key == "sql") return value;
    }
  }
  return "";
}

TEST(PreparedCallTest, TracedQuerySpanStillShowsTheSql) {
  std::unique_ptr<IntegrationServer> server =
      SampleServer(Architecture::kUdtf);
  ASSERT_NE(server, nullptr);
  server->tracer().Enable();
  ASSERT_TRUE(server
                  ->CallFederated("GetNoSuppComp", {Value::Varchar("Stark"),
                                                    Value::Varchar("it's")})
                  .ok());
  EXPECT_EQ(QuerySpanSql(*server),
            "SELECT * FROM TABLE (GetNoSuppComp('Stark', 'it''s')) AS R");

  server->tracer().Reset();
  const std::string text =
      "SELECT R.Qual FROM TABLE (GetSuppQual('Stark')) AS R";
  ASSERT_TRUE(server->QueryTimed(text).ok());
  EXPECT_EQ(QuerySpanSql(*server), text);
}

/// QualOf: the quality of one supplier, stock.GetQuality(supplier).
FederatedFunctionSpec QualOfSpec(std::vector<Column> params,
                                 SpecArg supplier) {
  FederatedFunctionSpec spec;
  spec.name = "QualOf";
  spec.params = std::move(params);
  spec.calls = {{"GQ", "stock", "GetQuality", {std::move(supplier)}}};
  spec.outputs = {{"Qual", "GQ", "Qual", DataType::kNull}};
  return spec;
}

// 1002.9999999 names supplier 1002: GetQuality's INT parameter truncates
// it. Printed with six decimals ("1003.000000") it would name 1003.
constexpr double kAlmost1003 = 1002.9999999;

TEST(PreparedCallTest, DoubleArgumentKeepsItsPrecision) {
  for (Architecture arch : kArchs) {
    SCOPED_TRACE(ArchitectureName(arch));
    std::unique_ptr<IntegrationServer> server = SampleServer(arch);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server
                    ->RegisterFederatedFunction(QualOfSpec(
                        {Column{"S", DataType::kDouble}}, SpecArg::Param("S")))
                    .ok());
    auto as_double =
        server->CallFederated("QualOf", {Value::Double(kAlmost1003)});
    auto as_int = server->CallFederated("QualOf", {Value::Int(1002)});
    auto next = server->CallFederated("QualOf", {Value::Int(1003)});
    ASSERT_TRUE(as_double.ok()) << as_double.status();
    ASSERT_TRUE(as_int.ok() && next.ok());
    ASSERT_FALSE(Table::SameRowsAnyOrder(as_int->table, next->table))
        << "the scenario must tell supplier 1002 from 1003";
    EXPECT_TRUE(Table::SameRowsAnyOrder(as_double->table, as_int->table))
        << "DOUBLE:\n"
        << as_double->table.ToString() << "INT 1002:\n"
        << as_int->table.ToString();
  }
}

TEST(PreparedCallTest, DoubleConstantAgreesAcrossCouplings) {
  std::vector<Table> tables;
  for (Architecture arch : kArchs) {
    SCOPED_TRACE(ArchitectureName(arch));
    std::unique_ptr<IntegrationServer> server = SampleServer(arch);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server
                    ->RegisterFederatedFunction(QualOfSpec(
                        {}, SpecArg::Constant(Value::Double(kAlmost1003))))
                    .ok());
    auto constant = server->CallFederated("QualOf", {});
    ASSERT_TRUE(constant.ok()) << constant.status();
    EXPECT_EQ(constant->table.num_rows(), 1u);
    tables.push_back(std::move(constant->table));
  }
  for (size_t a = 1; a < tables.size(); ++a) {
    EXPECT_TRUE(Table::SameRowsAnyOrder(tables[0], tables[a]))
        << ArchitectureName(kArchs[0]) << ":\n"
        << tables[0].ToString() << ArchitectureName(kArchs[a]) << ":\n"
        << tables[a].ToString();
  }
}

}  // namespace
}  // namespace fedflow::federation
