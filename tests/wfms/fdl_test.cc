#include "wfms/fdl.h"

#include <gtest/gtest.h>

#include <string>

namespace fedflow::wfms {
namespace {

constexpr char kBuySuppComp[] = R"(
-- the paper's Fig. 1 process
PROCESS BuySuppComp (SupplierNo INT, CompName VARCHAR)
  PROGRAM GQ SYSTEM stock FUNCTION GetQuality IN (INPUT.SupplierNo)
  PROGRAM GR SYSTEM purchasing FUNCTION GetReliability IN (INPUT.SupplierNo)
  PROGRAM GG SYSTEM purchasing FUNCTION GetGrade IN (GQ.Qual, GR.Relia)
  PROGRAM GCN SYSTEM pdm FUNCTION GetCompNo IN (INPUT.CompName)
  PROGRAM DP SYSTEM purchasing FUNCTION DecidePurchase \
      IN (GG.Grade, GCN.No)
  CONNECT GQ -> GG
  CONNECT GR -> GG
  CONNECT GG -> DP
  CONNECT GCN -> DP
  OUTPUT DP
END
)";

TEST(FdlTest, ParsesFig1Process) {
  auto procs = ParseFdl(kBuySuppComp);
  ASSERT_TRUE(procs.ok()) << procs.status();
  ASSERT_EQ(procs->size(), 1u);
  const ProcessDefinition& p = (*procs)[0];
  EXPECT_EQ(p.name, "BuySuppComp");
  ASSERT_EQ(p.input_params.size(), 2u);
  EXPECT_EQ(p.input_params[1].type, DataType::kVarchar);
  EXPECT_EQ(p.activities.size(), 5u);
  EXPECT_EQ(p.connectors.size(), 4u);
  EXPECT_EQ(p.output_activity, "DP");
  // Data flow parsed: GG reads GQ.Qual.
  auto gg = p.FindActivity("GG");
  ASSERT_TRUE(gg.ok());
  ASSERT_EQ((*gg)->inputs.size(), 2u);
  EXPECT_EQ((*gg)->inputs[0].kind, InputSource::Kind::kActivityOutput);
  EXPECT_EQ((*gg)->inputs[0].activity, "GQ");
  EXPECT_EQ((*gg)->inputs[0].column, "Qual");
}

TEST(FdlTest, LineContinuationSupported) {
  auto procs = ParseFdl(kBuySuppComp);
  ASSERT_TRUE(procs.ok());
  auto dp = (*procs)[0].FindActivity("DP");
  ASSERT_TRUE(dp.ok());
  EXPECT_EQ((*dp)->inputs.size(), 2u);
}

TEST(FdlTest, ConstantsAndWholeTableSources) {
  auto procs = ParseFdl(R"(
PROCESS P (x INT)
  PROGRAM A SYSTEM s FUNCTION f IN (1234, INPUT.x, 'text', -5, 2.5)
  HELPER H USING concat IN (A.*)
  CONNECT A -> H
  OUTPUT H
END
)");
  ASSERT_TRUE(procs.ok()) << procs.status();
  const auto& a = (*procs)[0].activities[0];
  ASSERT_EQ(a.inputs.size(), 5u);
  EXPECT_EQ(a.inputs[0].constant.AsInt(), 1234);
  EXPECT_EQ(a.inputs[2].constant.AsVarchar(), "text");
  EXPECT_EQ(a.inputs[3].constant.AsInt(), -5);
  EXPECT_DOUBLE_EQ(a.inputs[4].constant.AsDouble(), 2.5);
  const auto& h = (*procs)[0].activities[1];
  EXPECT_EQ(h.inputs[0].kind, InputSource::Kind::kActivityOutput);
  EXPECT_EQ(h.inputs[0].column, "");
}

TEST(FdlTest, ConditionsOnConnectors) {
  auto procs = ParseFdl(R"(
PROCESS P ()
  PROGRAM A SYSTEM s FUNCTION f
  PROGRAM B SYSTEM s FUNCTION g JOIN OR
  CONNECT A -> B WHEN A.v > 3 AND A.v < 10
  OUTPUT B
END
)");
  ASSERT_TRUE(procs.ok()) << procs.status();
  ASSERT_NE((*procs)[0].connectors[0].condition, nullptr);
  EXPECT_EQ((*procs)[0].activities[1].join, JoinKind::kOr);
}

TEST(FdlTest, OverDeepConditionIsRejectedWithItsLine) {
  // Conditions are SQL expressions, so the SQL parser's nesting bound
  // applies: 10,000 nested parentheses fail cleanly, 255 still parse.
  auto fdl = [](int depth) {
    return "PROCESS P ()\nPROGRAM A SYSTEM s FUNCTION f\n"
           "PROGRAM B SYSTEM s FUNCTION g\nCONNECT A -> B WHEN " +
           std::string(depth, '(') + "A.v > 3" + std::string(depth, ')') +
           "\nEND\n";
  };
  auto deep = ParseFdl(fdl(10000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep.status().message().find("FDL line 4: nesting deeper than"),
            std::string::npos)
      << deep.status();
  EXPECT_TRUE(ParseFdl(fdl(255)).ok());
}

TEST(FdlTest, BlockReferencesEarlierProcess) {
  auto procs = ParseFdl(R"(
PROCESS Body (ITERATION INT)
  PROGRAM A SYSTEM s FUNCTION f IN (INPUT.ITERATION)
  OUTPUT A
END
PROCESS Loop (MaxNo INT)
  BLOCK L SUB Body IN (0) UNION MAXITER 500 UNTIL ITERATION >= MaxNo
  OUTPUT L
END
)");
  ASSERT_TRUE(procs.ok()) << procs.status();
  ASSERT_EQ(procs->size(), 2u);
  const ActivityDef& block = (*procs)[1].activities[0];
  EXPECT_EQ(block.kind, ActivityKind::kBlock);
  ASSERT_NE(block.sub, nullptr);
  EXPECT_EQ(block.sub->name, "Body");
  EXPECT_EQ(block.accumulate, BlockAccumulate::kUnionAll);
  EXPECT_EQ(block.max_iterations, 500);
  ASSERT_NE(block.exit_condition, nullptr);
}

TEST(FdlTest, BlockReferencingUnknownProcessFails) {
  auto procs = ParseFdl(R"(
PROCESS Loop (n INT)
  BLOCK L SUB Ghost IN (0)
  OUTPUT L
END
)");
  ASSERT_FALSE(procs.ok());
  EXPECT_NE(procs.status().message().find("Ghost"), std::string::npos);
}

TEST(FdlTest, ErrorsCarryLineNumbers) {
  auto procs = ParseFdl("PROCESS P ()\n  NONSENSE here\nEND\n");
  ASSERT_FALSE(procs.ok());
  EXPECT_NE(procs.status().message().find("line 2"), std::string::npos);
}

TEST(FdlTest, MissingEndFails) {
  auto procs = ParseFdl("PROCESS P ()\n  PROGRAM A SYSTEM s FUNCTION f\n");
  ASSERT_FALSE(procs.ok());
  EXPECT_NE(procs.status().message().find("missing END"), std::string::npos);
}

TEST(FdlTest, StatementOutsideProcessFails) {
  EXPECT_FALSE(ParseFdl("PROGRAM A SYSTEM s FUNCTION f\n").ok());
}

TEST(FdlTest, NestedProcessFails) {
  EXPECT_FALSE(ParseFdl("PROCESS A ()\nPROCESS B ()\nEND\nEND\n").ok());
}

TEST(FdlTest, ValidationRunsAtEnd) {
  // Data flow without a control path must be rejected by END-time validation.
  auto procs = ParseFdl(R"(
PROCESS P ()
  PROGRAM A SYSTEM s FUNCTION f
  PROGRAM B SYSTEM s FUNCTION g IN (A.v)
  OUTPUT B
END
)");
  ASSERT_FALSE(procs.ok());
  EXPECT_NE(procs.status().message().find("control path"), std::string::npos);
}

TEST(FdlTest, DefaultOutputIsLastActivity) {
  auto procs = ParseFdl(R"(
PROCESS P ()
  PROGRAM A SYSTEM s FUNCTION f
  PROGRAM B SYSTEM s FUNCTION g
END
)");
  ASSERT_TRUE(procs.ok()) << procs.status();
  EXPECT_EQ((*procs)[0].output_activity, "B");
}

TEST(FdlTest, RoundTripThroughToFdl) {
  auto procs = ParseFdl(kBuySuppComp);
  ASSERT_TRUE(procs.ok());
  std::string emitted = ToFdl((*procs)[0]);
  auto reparsed = ParseFdl(emitted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << emitted;
  EXPECT_EQ(ToFdl((*reparsed)[0]), emitted);
}

TEST(FdlTest, RoundTripKeepsConstantsExactly) {
  auto procs = ParseFdl(R"(
PROCESS P (x INT)
  PROGRAM A SYSTEM s FUNCTION f IN ('it''s', 1002.9999999, -5, INPUT.x)
  OUTPUT A
END
)");
  ASSERT_TRUE(procs.ok()) << procs.status();
  std::string emitted = ToFdl((*procs)[0]);
  auto reparsed = ParseFdl(emitted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << emitted;
  auto a = (*reparsed)[0].FindActivity("A");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ((*a)->inputs.size(), 4u);
  EXPECT_EQ((*a)->inputs[0].constant.AsVarchar(), "it's");
  EXPECT_EQ((*a)->inputs[1].constant.AsDouble(), 1002.9999999) << emitted;
  EXPECT_EQ((*a)->inputs[2].constant.AsInt(), -5);
}

TEST(FdlTest, RoundTripWithBlocksEmitsSubProcessFirst) {
  auto procs = ParseFdl(R"(
PROCESS Body (ITERATION INT)
  PROGRAM A SYSTEM s FUNCTION f IN (INPUT.ITERATION)
  OUTPUT A
END
PROCESS Loop (MaxNo INT)
  BLOCK L SUB Body IN (0) UNION UNTIL ITERATION >= MaxNo
  OUTPUT L
END
)");
  ASSERT_TRUE(procs.ok()) << procs.status();
  std::string emitted = ToFdl((*procs)[1]);
  EXPECT_LT(emitted.find("PROCESS Body"), emitted.find("PROCESS Loop"));
  auto reparsed = ParseFdl(emitted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << emitted;
  EXPECT_EQ(reparsed->size(), 2u);
}

}  // namespace
}  // namespace fedflow::wfms
