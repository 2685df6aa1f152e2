// Fault injection, retry policies, and the failure behaviour of the RMI
// channel: injected faults carry wire costs, streams stay well-defined on
// empty/drained/malformed responses, and everything is seed-deterministic.
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "common/codec.h"
#include "common/vclock.h"
#include "sim/latency.h"
#include "sim/rmi.h"

namespace fedflow::sim {
namespace {

TEST(FaultInjectorTest, WithoutProfilesEveryDecisionIsInert) {
  FaultInjector faults(42);
  for (int i = 0; i < 10; ++i) {
    FaultInjector::Decision d = faults.Consult("GetNumber");
    EXPECT_EQ(d.fault, FaultInjector::Fault::kNone);
    EXPECT_EQ(d.extra_latency_us, 0);
  }
  EXPECT_EQ(faults.attempts("GetNumber"), 10);
  EXPECT_EQ(faults.injected_failures("GetNumber"), 0);
  EXPECT_EQ(faults.total_attempts(), 10);
}

TEST(FaultInjectorTest, ForcedFailuresConsumeBeforeAnyDraw) {
  FaultInjector faults;
  faults.InjectTransientFailures("F", 2);
  EXPECT_EQ(faults.Consult("F").fault, FaultInjector::Fault::kTransient);
  EXPECT_EQ(faults.Consult("f").fault, FaultInjector::Fault::kTransient);
  EXPECT_EQ(faults.Consult("F").fault, FaultInjector::Fault::kNone);
  EXPECT_EQ(faults.attempts("F"), 3);
  EXPECT_EQ(faults.injected_failures("F"), 2);
}

TEST(FaultInjectorTest, PermanentOutageFailsEveryAttempt) {
  FaultInjector faults;
  FaultProfile down;
  down.permanent_outage = true;
  faults.SetProfile("Dead", down);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(faults.Consult("DEAD").fault, FaultInjector::Fault::kPermanent);
  }
  EXPECT_EQ(faults.injected_failures("dead"), 5);
}

TEST(FaultInjectorTest, CertainRatesAlwaysFire) {
  FaultInjector faults(7);
  FaultProfile p;
  p.transient_failure_rate = 1.0;
  p.latency_spike_rate = 1.0;
  p.latency_spike_us = 250;
  faults.SetProfile("Flaky", p);
  FaultInjector::Decision d = faults.Consult("Flaky");
  EXPECT_EQ(d.fault, FaultInjector::Fault::kTransient);
  EXPECT_EQ(d.extra_latency_us, 250);
}

TEST(FaultInjectorTest, SameSeedSameFunctionSameDecisionSequence) {
  FaultProfile p;
  p.transient_failure_rate = 0.35;
  p.latency_spike_rate = 0.2;
  p.latency_spike_us = 100;
  FaultInjector a(123), b(123);
  a.SetProfile("GSN", p);
  b.SetProfile("gsn", p);  // case-insensitive: same stream
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Decision da = a.Consult("GSN");
    FaultInjector::Decision db = b.Consult("GSN");
    EXPECT_EQ(da.fault, db.fault) << "attempt " << i;
    EXPECT_EQ(da.extra_latency_us, db.extra_latency_us) << "attempt " << i;
  }
}

TEST(FaultInjectorTest, StreamsArePerFunctionNotInterleaved) {
  // Consulting another function between attempts must not shift a
  // function's stream — that is what makes outcomes immune to thread
  // scheduling across functions.
  FaultProfile p;
  p.transient_failure_rate = 0.5;
  FaultInjector lone(9), mixed(9);
  lone.SetProfile("A", p);
  mixed.SetProfile("A", p);
  mixed.SetProfile("B", p);
  for (int i = 0; i < 100; ++i) {
    (void)mixed.Consult("B");
    EXPECT_EQ(lone.Consult("A").fault, mixed.Consult("A").fault)
        << "attempt " << i;
  }
}

TEST(FaultInjectorTest, ClearProfilesKeepsCountersResetCountersKeepsProfiles) {
  FaultInjector faults;
  faults.InjectTransientFailures("F", 1);
  (void)faults.Consult("F");
  faults.ClearProfiles();
  EXPECT_EQ(faults.attempts("F"), 1);
  EXPECT_EQ(faults.Consult("F").fault, FaultInjector::Fault::kNone);

  FaultProfile down;
  down.permanent_outage = true;
  faults.SetProfile("F", down);
  faults.ResetCounters();
  EXPECT_EQ(faults.attempts("F"), 0);
  EXPECT_EQ(faults.injected_failures("F"), 0);
  EXPECT_EQ(faults.Consult("F").fault, FaultInjector::Fault::kPermanent);
}

TEST(RetryPolicyTest, DefaultIsDisabled) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_EQ(policy.max_attempts, 1);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_us = 1000;
  policy.backoff_multiplier = 2;
  policy.max_backoff_us = 32000;
  EXPECT_EQ(policy.BackoffBefore(1), 0);  // first try waits for nothing
  EXPECT_EQ(policy.BackoffBefore(2), 1000);
  EXPECT_EQ(policy.BackoffBefore(3), 2000);
  EXPECT_EQ(policy.BackoffBefore(4), 4000);
  EXPECT_EQ(policy.BackoffBefore(7), 32000);   // 32000 exactly at the cap
  EXPECT_EQ(policy.BackoffBefore(8), 32000);   // 64000 clamped
  EXPECT_EQ(policy.BackoffBefore(100), 32000);
}

TEST(RetryLoopTest, IsRetriableOnlyForUnavailable) {
  EXPECT_TRUE(IsRetriable(Status::Unavailable("x")));
  EXPECT_FALSE(IsRetriable(Status::OK()));
  EXPECT_FALSE(IsRetriable(Status::Internal("x")));
  EXPECT_FALSE(IsRetriable(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(IsRetriable(Status::NotFound("x")));
}

TEST(RetryLoopTest, NullPolicyNeverRetries) {
  RetryLoop loop(nullptr, nullptr);
  EXPECT_FALSE(loop.ShouldRetry(Status::Unavailable("x")));
}

TEST(RetryLoopTest, RetriesUpToMaxAttemptsChargingBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 500;
  policy.backoff_multiplier = 2;
  SimClock clock;
  RetryLoop loop(&policy, &clock);
  ASSERT_TRUE(loop.ShouldRetry(Status::Unavailable("x")));
  ASSERT_TRUE(loop.Backoff().ok());
  EXPECT_EQ(clock.now(), 500);
  ASSERT_TRUE(loop.ShouldRetry(Status::Unavailable("x")));
  ASSERT_TRUE(loop.Backoff().ok());
  EXPECT_EQ(clock.now(), 1500);
  EXPECT_EQ(clock.breakdown().Of(steps::kRetryBackoff), 1500);
  // All three attempts spent.
  EXPECT_EQ(loop.attempt(), 3);
  EXPECT_FALSE(loop.ShouldRetry(Status::Unavailable("x")));
  // Non-retriable failures never loop.
  EXPECT_FALSE(loop.ShouldRetry(Status::Internal("x")));
}

TEST(RetryLoopTest, DeadlineConvertsToDeadlineExceededWithoutCharging) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 1000;
  policy.deadline_us = 1500;
  SimClock clock;
  clock.Charge("work", 1000);  // pre-loop work; the budget starts after it
  RetryLoop loop(&policy, &clock);
  // First backoff: 1000us elapsed since the loop started, within budget.
  ASSERT_TRUE(loop.Backoff().ok());
  EXPECT_EQ(clock.now(), 2000);
  // Second backoff (2000us) would put the call 3000us past its start,
  // blowing the 1500us budget.
  Status s = loop.Backoff();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(clock.now(), 2000) << "an abandoned wait is not charged";
}

// --- RMI channel failure behaviour -----------------------------------------

Result<Table> EchoHandler(const std::string&, const std::vector<Value>& args) {
  Schema s;
  s.AddColumn("v", DataType::kInt);
  Table t(s);
  t.AppendRowUnchecked({args.empty() ? Value::Int(0) : args[0]});
  return t;
}

TEST(RmiFaultTest, InjectedTransientFailureIsUnavailableAndCharged) {
  LatencyModel model;
  FaultInjector faults;
  faults.InjectTransientFailures("Ping", 1);
  RmiChannel rmi(&model, &faults);
  RmiChannel::CallCosts costs;
  auto result = rmi.Invoke("Ping", {Value::Int(1)}, EchoHandler, &costs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // The request leg was spent and the error response rode back.
  EXPECT_GE(costs.call_us, model.rmi_call_base_us);
  EXPECT_GE(costs.return_us, model.rmi_return_base_us);

  // The next attempt (forced failure consumed) succeeds.
  auto retry = rmi.Invoke("Ping", {Value::Int(1)}, EchoHandler, &costs);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(faults.attempts("Ping"), 2);
}

TEST(RmiFaultTest, PermanentOutageNamesTheFunction) {
  LatencyModel model;
  FaultInjector faults;
  FaultProfile down;
  down.permanent_outage = true;
  faults.SetProfile("Ping", down);
  RmiChannel rmi(&model, &faults);
  auto result = rmi.Invoke("Ping", {}, EchoHandler, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("permanent outage"),
            std::string::npos);
}

TEST(RmiFaultTest, LatencySpikeInflatesTheRequestLeg) {
  LatencyModel model;
  FaultInjector faults;
  FaultProfile spiky;
  spiky.latency_spike_rate = 1.0;
  spiky.latency_spike_us = 777;
  faults.SetProfile("Ping", spiky);
  RmiChannel plain(&model);
  RmiChannel spiked(&model, &faults);
  RmiChannel::CallCosts base_costs, spike_costs;
  ASSERT_TRUE(plain.Invoke("Ping", {Value::Int(1)}, EchoHandler, &base_costs)
                  .ok());
  ASSERT_TRUE(
      spiked.Invoke("Ping", {Value::Int(1)}, EchoHandler, &spike_costs).ok());
  EXPECT_EQ(spike_costs.call_us, base_costs.call_us + 777);
  EXPECT_EQ(spike_costs.return_us, base_costs.return_us);
}

TEST(RmiFaultTest, HandlerFailureStillReportsWireCosts) {
  // Regression: a failed call used to leave *costs untouched, making remote
  // failures free in virtual time.
  LatencyModel model;
  RmiChannel rmi(&model);
  auto failing = [](const std::string&,
                    const std::vector<Value>&) -> Result<Table> {
    return Status::Internal("backend exploded");
  };
  RmiChannel::CallCosts costs;
  auto result = rmi.Invoke("Boom", {Value::Int(1)}, failing, &costs);
  ASSERT_FALSE(result.ok());
  EXPECT_GT(costs.call_us, 0);
  EXPECT_EQ(costs.return_us,
            model.rmi_return_base_us +
                model.MarshalCost(result.status().message().size()));

  // The request leg costs exactly what a successful call's request leg does.
  RmiChannel::CallCosts ok_costs;
  ASSERT_TRUE(rmi.Invoke("Boom", {Value::Int(1)}, EchoHandler, &ok_costs).ok());
  EXPECT_EQ(costs.call_us, ok_costs.call_us);
}

TEST(RmiFaultTest, StreamingFailuresAreChargedLikeInvoke) {
  LatencyModel model;
  FaultInjector faults;
  faults.InjectTransientFailures("Ping", 1);
  RmiChannel rmi(&model, &faults);
  RmiChannel::CallCosts costs;
  auto stream = rmi.InvokeStreaming("Ping", {Value::Int(1)}, EchoHandler, 8,
                                    &costs, nullptr);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(costs.call_us, model.rmi_call_base_us);
  EXPECT_GE(costs.return_us, model.rmi_return_base_us);
}

// --- RMI streaming edge cases ----------------------------------------------

Result<Table> RowsHandler(int n) {
  Schema s;
  s.AddColumn("v", DataType::kInt);
  Table t(s);
  for (int i = 0; i < n; ++i) t.AppendRowUnchecked({Value::Int(i)});
  return t;
}

TEST(RmiStreamingEdgeTest, ZeroRowStreamChargesHeaderOnFirstEmptyChunk) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto empty = [](const std::string&,
                  const std::vector<Value>&) -> Result<Table> {
    return RowsHandler(0);
  };
  // Reference: the one-shot call's return cost covers base + header bytes.
  RmiChannel::CallCosts one_shot;
  ASSERT_TRUE(rmi.Invoke("Empty", {}, empty, &one_shot).ok());

  VDuration streamed = 0;
  RmiChannel::CallCosts costs;
  auto stream = rmi.InvokeStreaming("Empty", {}, empty, 4, &costs,
                                    [&](VDuration c) { streamed += c; });
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_EQ(costs.return_us, 0) << "response leg arrives through on_chunk";

  auto first = (*stream)->Next();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->rows.empty());
  EXPECT_EQ(streamed, one_shot.return_us)
      << "header-only response: base + header cost on the first empty chunk";

  // Re-polling the drained stream yields empty batches and no new charges.
  auto again = (*stream)->Next();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->rows.empty());
  EXPECT_EQ(streamed, one_shot.return_us);
}

TEST(RmiStreamingEdgeTest, DrainedSourceKeepsReturningEmptyBatchesForFree) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto three = [](const std::string&,
                  const std::vector<Value>&) -> Result<Table> {
    return RowsHandler(3);
  };
  RmiChannel::CallCosts one_shot;
  ASSERT_TRUE(rmi.Invoke("Three", {}, three, &one_shot).ok());

  VDuration streamed = 0;
  auto stream = rmi.InvokeStreaming("Three", {}, three, 2, nullptr,
                                    [&](VDuration c) { streamed += c; });
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto b1 = (*stream)->Next();
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(b1->rows.size(), 2u);
  auto b2 = (*stream)->Next();
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(b2->rows.size(), 1u);
  EXPECT_EQ(streamed, one_shot.return_us)
      << "telescoped chunk costs must equal the one-shot return cost";
  for (int i = 0; i < 3; ++i) {
    auto drained = (*stream)->Next();
    ASSERT_TRUE(drained.ok());
    EXPECT_TRUE(drained->rows.empty());
  }
  EXPECT_EQ(streamed, one_shot.return_us) << "re-polling is free";
}

std::vector<uint8_t> EncodeResponse(int rows_encoded, uint32_t rows_claimed) {
  Schema s;
  s.AddColumn("v", DataType::kInt);
  ByteWriter w;
  w.PutSchema(s);
  w.PutU32(rows_claimed);
  for (int i = 0; i < rows_encoded; ++i) {
    w.PutRow({Value::Int(i)});
  }
  return w.buffer();
}

TEST(RmiStreamingEdgeTest, GarbageHeaderIsAStatusNotUb) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto decoded = rmi.DecodeResponseBuffer({0xde, 0xad, 0xbe, 0xef}, 4);
  EXPECT_FALSE(decoded.ok());
}

TEST(RmiStreamingEdgeTest, TruncatedRowSurfacesAsStatusFromNext) {
  LatencyModel model;
  RmiChannel rmi(&model);
  std::vector<uint8_t> buffer = EncodeResponse(2, 2);
  buffer.resize(buffer.size() - 3);  // chop the tail of the last row
  auto decoded = rmi.DecodeResponseBuffer(buffer, 8);
  ASSERT_TRUE(decoded.ok()) << "header still decodes";
  auto batch = (*decoded)->Next();
  EXPECT_FALSE(batch.ok()) << "truncated row must fail, not crash";
}

TEST(RmiStreamingEdgeTest, InflatedRowCountSurfacesAsStatusFromNext) {
  LatencyModel model;
  RmiChannel rmi(&model);
  // Header claims 5 rows; only 2 are encoded.
  auto decoded = rmi.DecodeResponseBuffer(EncodeResponse(2, 5), 8);
  ASSERT_TRUE(decoded.ok());
  auto batch = (*decoded)->Next();
  EXPECT_FALSE(batch.ok()) << "reading past the buffer must fail cleanly";
}

TEST(RmiStreamingEdgeTest, WireSizedRowAritySurfacesAsStatus) {
  LatencyModel model;
  RmiChannel rmi(&model);
  // Zero-column schema, one row, whose arity claims 2^32 - 1 values.
  const std::vector<uint8_t> buffer = {0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
                                       0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF};
  auto rows = rmi.DecodeResponseBuffer(buffer, 8);
  ASSERT_TRUE(rows.ok()) << "header still decodes";
  EXPECT_EQ((*rows)->Next().status().code(), StatusCode::kExecutionError);
  auto columns = rmi.DecodeResponseBuffer(buffer, 8);
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ((*columns)->NextColumns().status().code(),
            StatusCode::kExecutionError);
}

TEST(RmiStreamingEdgeTest, WireSizedRowCountSurfacesAsStatus) {
  LatencyModel model;
  RmiChannel rmi(&model);
  // One INT column; the header claims 2^32 - 1 rows and carries none. Every
  // row needs at least its 4-byte arity, so the claim fails the header check
  // before any consumer could size a reserve by it.
  const std::vector<uint8_t> buffer = EncodeResponse(0, 0xFFFFFFFF);
  ASSERT_EQ(buffer.size(), 14u);
  const std::vector<std::function<Status(RowSource&)>> consumers = {
      [](RowSource& s) { return DrainToTable(s).status(); },
      [](RowSource& s) { return s.Next().status(); },
      [](RowSource& s) { return s.NextColumns().status(); },
  };
  // SIZE_MAX is what ExecContext::batch_size = 0 becomes.
  for (size_t batch_size : {size_t{8}, SIZE_MAX}) {
    for (const auto& consume : consumers) {
      auto decoded = rmi.DecodeResponseBuffer(buffer, batch_size);
      const Status status =
          decoded.ok() ? consume(**decoded) : decoded.status();
      EXPECT_EQ(status.code(), StatusCode::kExecutionError) << status;
    }
  }
}

TEST(RmiStreamingEdgeTest, RowArityOtherThanSchemaWidthSurfacesAsStatus) {
  LatencyModel model;
  RmiChannel rmi(&model);
  Schema schema;
  schema.AddColumn("a", DataType::kInt);
  schema.AddColumn("b", DataType::kInt);
  const std::vector<std::function<Status(RowSource&)>> consumers = {
      [](RowSource& s) { return DrainToTable(s).status(); },
      [](RowSource& s) { return s.Next().status(); },
      [](RowSource& s) { return s.NextColumns().status(); },
  };
  // One row of `arity` INT values under a 2-column schema: a narrower row
  // must not be read past its end, a wider one must not pass as OK.
  for (size_t arity : {size_t{1}, size_t{3}}) {
    ByteWriter w;
    w.PutSchema(schema);
    w.PutU32(1);
    w.PutRow(Row(arity, Value::Int(7)));
    for (size_t batch_size : {size_t{8}, SIZE_MAX}) {
      for (const auto& consume : consumers) {
        auto decoded = rmi.DecodeResponseBuffer(w.buffer(), batch_size);
        ASSERT_TRUE(decoded.ok()) << "header still decodes";
        const Status status = consume(**decoded);
        EXPECT_EQ(status.code(), StatusCode::kExecutionError) << status;
        EXPECT_EQ(status.message(), "codec: row arity mismatch");
      }
    }
  }
}

TEST(RmiStreamingEdgeTest, WellFormedBufferDecodesAllRows) {
  LatencyModel model;
  RmiChannel rmi(&model);
  auto decoded = rmi.DecodeResponseBuffer(EncodeResponse(3, 3), 2);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto b1 = (*decoded)->Next();
  ASSERT_TRUE(b1.ok());
  ASSERT_EQ(b1->rows.size(), 2u);
  EXPECT_EQ(b1->rows[0][0].AsInt(), 0);
  auto b2 = (*decoded)->Next();
  ASSERT_TRUE(b2.ok());
  ASSERT_EQ(b2->rows.size(), 1u);
  EXPECT_EQ(b2->rows[0][0].AsInt(), 2);
}

}  // namespace
}  // namespace fedflow::sim
