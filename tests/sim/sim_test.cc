#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../common/random_values.h"
#include "common/column_batch.h"
#include "common/rng.h"
#include "sim/latency.h"
#include "sim/rmi.h"
#include "sim/system_state.h"

namespace fedflow::sim {
namespace {

TEST(LatencyModelTest, MarshalCostScalesWithBytes) {
  LatencyModel m;
  EXPECT_EQ(m.MarshalCost(0), 0);
  EXPECT_EQ(m.MarshalCost(1000), m.rmi_per_byte_ns);
  EXPECT_GT(m.MarshalCost(4000), m.MarshalCost(2000));
}

TEST(LatencyModelTest, WithoutControllerZeroesControllerCosts) {
  LatencyModel m = WithoutController({});
  EXPECT_EQ(m.controller_attach_us, 0);
  EXPECT_EQ(m.controller_return_us, 0);
  EXPECT_EQ(m.controller_dispatch_us, 0);
  EXPECT_EQ(m.wf_controller_us, 0);
  EXPECT_EQ(m.wf_controller_process_us, 0);
  // Everything else untouched.
  LatencyModel base;
  EXPECT_EQ(m.rmi_call_base_us, base.rmi_call_base_us);
  EXPECT_EQ(m.wf_jvm_boot_activity_us, base.wf_jvm_boot_activity_us);
}

TEST(SystemStateTest, ColdWarmHotTransitions) {
  SystemState state;
  EXPECT_EQ(state.QueryWarmth("F"), SystemState::Warmth::kCold);
  state.MarkRun("G");
  EXPECT_EQ(state.QueryWarmth("F"), SystemState::Warmth::kWarm);
  EXPECT_EQ(state.QueryWarmth("G"), SystemState::Warmth::kHot);
  state.MarkRun("F");
  EXPECT_EQ(state.QueryWarmth("f"), SystemState::Warmth::kHot);  // case-ins
  state.Boot();
  EXPECT_EQ(state.QueryWarmth("F"), SystemState::Warmth::kCold);
  EXPECT_FALSE(state.infrastructure_warm());
}

TEST(SystemStateTest, WarmthNames) {
  EXPECT_STREQ(WarmthName(SystemState::Warmth::kCold), "cold");
  EXPECT_STREQ(WarmthName(SystemState::Warmth::kWarm), "warm");
  EXPECT_STREQ(WarmthName(SystemState::Warmth::kHot), "hot");
}

TEST(RmiTest, RoundTripsArgumentsAndResult) {
  LatencyModel model;
  RmiChannel rmi(&model);
  std::vector<Value> seen_args;
  std::string seen_fn;
  auto handler = [&](const std::string& fn,
                     const std::vector<Value>& args) -> Result<Table> {
    seen_fn = fn;
    seen_args = args;
    Schema s;
    s.AddColumn("echo", DataType::kVarchar);
    Table t(s);
    t.AppendRowUnchecked({Value::Varchar("pong")});
    return t;
  };
  RmiChannel::CallCosts costs;
  auto result = rmi.Invoke(
      "Ping", {Value::Int(1), Value::Null(), Value::Varchar("x")}, handler,
      &costs);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(seen_fn, "Ping");
  ASSERT_EQ(seen_args.size(), 3u);
  EXPECT_TRUE(seen_args[1].is_null());
  EXPECT_EQ(result->rows()[0][0].AsVarchar(), "pong");
  EXPECT_GE(costs.call_us, model.rmi_call_base_us);
  EXPECT_GE(costs.return_us, model.rmi_return_base_us);
}

TEST(RmiTest, LargerPayloadCostsMore) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto echo = [](const std::string&,
                 const std::vector<Value>& args) -> Result<Table> {
    Schema s;
    s.AddColumn("v", DataType::kVarchar);
    Table t(s);
    t.AppendRowUnchecked({args[0]});
    return t;
  };
  RmiChannel::CallCosts small, big;
  ASSERT_TRUE(rmi.Invoke("f", {Value::Varchar("x")}, echo, &small).ok());
  ASSERT_TRUE(
      rmi.Invoke("f", {Value::Varchar(std::string(10000, 'x'))}, echo, &big)
          .ok());
  EXPECT_GT(big.call_us, small.call_us);
  EXPECT_GT(big.return_us, small.return_us);
}

TEST(RmiTest, HandlerErrorPropagates) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto handler = [](const std::string&,
                    const std::vector<Value>&) -> Result<Table> {
    return Status::ExecutionError("remote side failed");
  };
  auto result = rmi.Invoke("f", {}, handler, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("remote side failed"),
            std::string::npos);
}

TEST(RmiTest, NullCostsPointerAllowed) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto handler = [](const std::string&,
                    const std::vector<Value>&) -> Result<Table> {
    return Table();
  };
  EXPECT_TRUE(rmi.Invoke("f", {}, handler, nullptr).ok());
}

/// A random response table for the wire oracle. Column c has type
/// kAllTypes[c % 6], so from width 6 on every type (a kNull-typed column
/// included) is present. Every column of a non-empty table holds a NULL;
/// VARCHAR values include empty strings and strings with NUL bytes; with
/// `mistype`, one typed column carries a value of another type.
Table RandomWireTable(Rng* rng, size_t width, size_t rows, bool mistype) {
  Schema schema;
  for (size_t c = 0; c < width; ++c) {
    schema.AddColumn("c" + std::to_string(c), kAllTypes[c % 6]);
  }
  Table table(schema);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < width; ++c) {
      Value v = RandomValue(kAllTypes[c % 6], rng);
      if (v.type() == DataType::kVarchar && rng->Chance(0.3)) {
        v = rng->Chance(0.5) ? Value::Varchar("")
                             : Value::Varchar(std::string("a\0b\0", 4));
      }
      row.push_back(std::move(v));
    }
    table.AppendRowUnchecked(std::move(row));
  }
  if (rows == 0) return table;
  for (size_t c = 0; c < width; ++c) {
    table.mutable_rows()[rng->Uniform(0, rows - 1)][c] = Value::Null();
  }
  if (mistype && width > 1) {
    // Column 1 is BOOL-typed; a VARCHAR there degrades it to generic.
    table.mutable_rows()[rng->Uniform(0, rows - 1)][1] =
        Value::Varchar("mistyped");
  }
  return table;
}

void ExpectSameColumns(const ColumnBatch& expected, const ColumnBatch& actual) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const ColumnData& want = expected.column(c);
    const ColumnData& got = actual.column(c);
    EXPECT_EQ(want.type(), got.type()) << "col " << c;
    EXPECT_EQ(want.is_generic(), got.is_generic()) << "col " << c;
    EXPECT_EQ(want.null_map(), got.null_map()) << "col " << c;
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      EXPECT_TRUE(SameValue(want.GetValue(r), got.GetValue(r)))
          << "row " << r << " col " << c << ": " << want.GetValue(r) << " vs "
          << got.GetValue(r);
    }
  }
}

// The "row equals columnar" oracle carried across the wire: every column
// batch the response stream decodes equals ColumnBatch::FromRows over the
// same rows of the handler's table, the row stream returns those rows, and
// either drained stream charges exactly Invoke's return leg.
TEST(RmiTest, StreamedBatchesEqualFromRowsOfTheHandlerRows) {
  LatencyModel model;
  RmiChannel rmi(&model);
  Rng rng(0x0a11);
  size_t degraded = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t width = static_cast<size_t>(trial % 8);
    const size_t rows =
        trial % 5 == 0 ? 0 : static_cast<size_t>(rng.Uniform(1, 40));
    const Table table = RandomWireTable(&rng, width, rows, trial % 3 == 1);
    auto handler = [&table](const std::string&,
                            const std::vector<Value>&) -> Result<Table> {
      return table;
    };
    RmiChannel::CallCosts one_shot;
    auto materialized = rmi.Invoke("Wire", {}, handler, &one_shot);
    ASSERT_TRUE(materialized.ok()) << materialized.status();
    ExpectRowsEqual(table.rows(), materialized->rows());

    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}, SIZE_MAX}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", batch size " +
                   std::to_string(batch_size));
      VDuration columns_cost = 0;
      auto columns = rmi.InvokeStreaming(
          "Wire", {}, handler, batch_size, nullptr,
          [&columns_cost](VDuration c) { columns_cost += c; });
      ASSERT_TRUE(columns.ok()) << columns.status();
      size_t offset = 0;
      while (true) {
        auto batch = (*columns)->NextColumns();
        ASSERT_TRUE(batch.ok()) << batch.status();
        if (batch->empty()) break;
        std::vector<Row> slice(table.rows().begin() + offset,
                               table.rows().begin() + offset +
                                   batch->num_rows());
        const ColumnBatch expected =
            ColumnBatch::FromRows(table.schema(), std::move(slice));
        ExpectSameColumns(expected, *batch);
        for (size_t c = 0; c < batch->num_columns(); ++c) {
          if (batch->column(c).is_generic() &&
              batch->column(c).type() != DataType::kNull) {
            ++degraded;
          }
        }
        offset += batch->num_rows();
      }
      EXPECT_EQ(offset, rows);
      EXPECT_EQ(columns_cost, one_shot.return_us);

      VDuration rows_cost = 0;
      auto row_stream = rmi.InvokeStreaming(
          "Wire", {}, handler, batch_size, nullptr,
          [&rows_cost](VDuration c) { rows_cost += c; });
      ASSERT_TRUE(row_stream.ok()) << row_stream.status();
      std::vector<Row> seen;
      while (true) {
        auto batch = (*row_stream)->Next();
        ASSERT_TRUE(batch.ok()) << batch.status();
        if (batch->empty()) break;
        for (Row& row : batch->rows) seen.push_back(std::move(row));
      }
      ExpectRowsEqual(table.rows(), seen);
      EXPECT_EQ(rows_cost, one_shot.return_us);
    }
  }
  EXPECT_GT(degraded, 0u) << "no mistyped value reached a typed column";
}

TEST(LatencyCalibrationTest, Fig6SharesEmergeFromConstants) {
  // Sanity-check the calibration: the fixed WfMS wrapper costs relative to a
  // 3-activity call should be in the ballpark of the paper's percentages.
  LatencyModel m;
  // For GetNoSuppComp: 3 program activities + 1 result helper.
  VDuration activities = 3 * (m.wf_jvm_boot_activity_us + m.wf_container_us) +
                         1000 /* approx local work */ + m.wf_helper_us +
                         m.wf_container_us;
  VDuration navigation = 4 * m.wf_navigation_us;
  VDuration fixed = m.wf_udtf_start_us + m.wf_udtf_process_us +
                    m.wf_controller_process_us + m.rmi_call_base_us +
                    m.wf_process_start_us + m.wf_controller_us +
                    m.rmi_return_base_us + m.wf_udtf_finish_us;
  double total = static_cast<double>(activities + navigation + fixed);
  double activity_share = static_cast<double>(activities) / total;
  EXPECT_GT(activity_share, 0.45);  // paper: 51%
  EXPECT_LT(activity_share, 0.60);
  double nav_share = static_cast<double>(navigation) / total;
  EXPECT_GT(nav_share, 0.05);  // paper: 9%
  EXPECT_LT(nav_share, 0.15);
}

}  // namespace
}  // namespace fedflow::sim
