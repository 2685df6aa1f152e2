// Unit tests for the fedtrace subsystem: span lifecycle, the disabled-tracer
// no-op guarantee, RMI trace-context propagation (the server-side span must
// parent under the client call span via the wire context), cost neutrality,
// error-path status attributes, metrics, and the exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/vclock.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "sim/rmi.h"

namespace fedflow::obs {
namespace {

using sim::FaultInjector;
using sim::FaultProfile;
using sim::LatencyModel;
using sim::RmiChannel;

TEST(TracerTest, DisabledTracerIsNoOp) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  SpanId id = tracer.StartSpan("x", Layer::kFdbs, 0, 0);
  EXPECT_EQ(id, 0u);
  // Every operation on id 0 is accepted and ignored.
  tracer.SetAttribute(id, "k", "v");
  tracer.SetStatus(id, Status::Internal("boom"));
  tracer.AddEvent(id, 5, "event");
  tracer.AddCharge(id, "Step", 10);
  tracer.EndSpan(id, 7);
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_FALSE(tracer.ContextOf(id).valid());
}

TEST(TracerTest, SpanTreeParentingAndAttributes) {
  Tracer tracer;
  tracer.Enable();
  SpanId root = tracer.StartSpan("root", Layer::kFdbs, 0, 0);
  SpanId child = tracer.StartSpan("child", Layer::kCoupling, root, 10);
  ASSERT_NE(root, 0u);
  ASSERT_NE(child, 0u);
  tracer.SetAttribute(child, "k", "v");
  tracer.AddEvent(child, 12, "evt", "detail");
  tracer.EndSpan(child, 20);
  tracer.EndSpan(root, 30);

  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
  EXPECT_EQ(spans[1].attribute("k"), "v");
  EXPECT_FALSE(spans[1].remote_parent);
  ASSERT_EQ(spans[1].events.size(), 1u);
  EXPECT_EQ(spans[1].events[0].name, "evt");
  EXPECT_EQ(spans[0].end_us, 30);
  EXPECT_TRUE(spans[0].finished);
}

TEST(TracerTest, RemoteSpanJoinsPropagatedContext) {
  Tracer tracer;
  tracer.Enable();
  SpanId client = tracer.StartSpan("call", Layer::kRmi, 0, 0);
  TraceContext ctx = tracer.ContextOf(client);
  ASSERT_TRUE(ctx.valid());
  SpanId serve = tracer.StartRemoteSpan("serve", Layer::kRmi, ctx, 0);
  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].id, serve);
  EXPECT_EQ(spans[1].parent, client);
  EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
  EXPECT_TRUE(spans[1].remote_parent);
}

TEST(TracerTest, InvalidRemoteContextStartsFreshTrace) {
  Tracer tracer;
  tracer.Enable();
  SpanId s = tracer.StartRemoteSpan("serve", Layer::kRmi, TraceContext{}, 0);
  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, s);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_FALSE(spans[0].remote_parent);
}

/// The provable propagation guarantee: invoking through the RMI channel with
/// a trace session marshals the client span's context into the request, and
/// the server side parents its serve span under it — remote_parent set.
TEST(RmiTraceTest, ServerSpanParentsUnderClientCallSpan) {
  LatencyModel model;
  Tracer tracer;
  tracer.Enable();
  SimClock clock;
  TraceSession session(&tracer, &clock);
  RmiChannel rmi(&model);
  RmiChannel::CallCosts costs;
  Schema schema({{"N", DataType::kInt}});
  auto handler = [&](const std::string&,
                     const std::vector<Value>&) -> Result<Table> {
    Table t(schema);
    EXPECT_TRUE(t.AppendRow({Value::Int(7)}).ok());
    return t;
  };
  auto out = rmi.Invoke("Fn", {Value::Int(1)}, handler, &costs, &session);
  ASSERT_TRUE(out.ok()) << out.status();

  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const Span& client = spans[0];
  const Span& serve = spans[1];
  EXPECT_EQ(client.name, "rmi:Fn");
  EXPECT_EQ(serve.name, "serve:Fn");
  EXPECT_EQ(serve.parent, client.id);
  EXPECT_EQ(serve.trace_id, client.trace_id);
  EXPECT_TRUE(serve.remote_parent);
  EXPECT_FALSE(client.remote_parent);
}

/// Tracing must not change modeled wire costs: the trace context rides
/// out-of-band (appended after the payload whose size prices the call).
TEST(RmiTraceTest, TracedAndUntracedCostsAreIdentical) {
  LatencyModel model;
  Schema schema({{"N", DataType::kInt}});
  auto handler = [&](const std::string&,
                     const std::vector<Value>&) -> Result<Table> {
    Table t(schema);
    EXPECT_TRUE(t.AppendRow({Value::Int(7)}).ok());
    return t;
  };
  RmiChannel rmi(&model);
  RmiChannel::CallCosts plain;
  ASSERT_TRUE(
      rmi.Invoke("Fn", {Value::Varchar("abc")}, handler, &plain).ok());

  Tracer tracer;
  tracer.Enable();
  SimClock clock;
  TraceSession session(&tracer, &clock);
  RmiChannel::CallCosts traced;
  ASSERT_TRUE(
      rmi.Invoke("Fn", {Value::Varchar("abc")}, handler, &traced, &session)
          .ok());
  EXPECT_EQ(plain.call_us, traced.call_us);
  EXPECT_EQ(plain.return_us, traced.return_us);
}

/// Satellite fix: RMI error paths stamp the span's "status" attribute with
/// the failing code, so outages are visible in traces.
TEST(RmiTraceTest, FailedCallStampsStatusOnSpan) {
  LatencyModel model;
  FaultInjector faults(42);
  FaultProfile down;
  down.permanent_outage = true;
  faults.SetProfile("Fn", down);

  Tracer tracer;
  tracer.Enable();
  SimClock clock;
  TraceSession session(&tracer, &clock);
  RmiChannel rmi(&model, &faults);
  RmiChannel::CallCosts costs;
  auto handler = [](const std::string&,
                    const std::vector<Value>&) -> Result<Table> {
    return Status::Internal("handler must not run");
  };
  auto out = rmi.Invoke("Fn", {Value::Int(1)}, handler, &costs, &session);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);

  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);  // client span only: the serve never opened
  EXPECT_EQ(spans[0].attribute("status"), "unavailable");
  bool fault_event = false;
  for (const SpanEvent& e : spans[0].events) {
    if (e.name == "fault injected") fault_event = true;
  }
  EXPECT_TRUE(fault_event);
}

/// While a TraceSession observes the clock, every charge lands in the
/// current span, and BreakdownFromSpans reassembles the clock's breakdown
/// exactly — steps in first-insertion order with identical durations.
TEST(TraceSessionTest, ChargesReassembleClockBreakdown) {
  Tracer tracer;
  tracer.Enable();
  SimClock clock;
  TraceSession session(&tracer, &clock);
  clock.set_observer(&session);
  {
    SpanScope outer(&session, "outer", Layer::kFdbs);
    clock.Charge("A", 10);
    {
      SpanScope inner(&session, "inner", Layer::kCoupling);
      clock.Charge("B", 20);
      clock.Charge("A", 5);
    }
    clock.ChargeWork("C", 7);
  }
  clock.set_observer(nullptr);

  std::vector<Span> spans = tracer.Snapshot();
  TimeBreakdown derived = BreakdownFromSpans(spans);
  EXPECT_EQ(derived.entries(), clock.breakdown().entries());
  EXPECT_EQ(LayerTotal(spans, Layer::kFdbs), 17);      // A:10 + C:7
  EXPECT_EQ(LayerTotal(spans, Layer::kCoupling), 25);  // B:20 + A:5
}

TEST(TraceSessionTest, InactiveSessionMakesScopesNoOps) {
  Tracer tracer;  // disabled
  SimClock clock;
  TraceSession session(&tracer, &clock);
  SpanScope scope(&session, "x", Layer::kFdbs);
  EXPECT_EQ(scope.id(), 0u);
  scope.SetAttribute("k", "v");
  scope.AddEvent("e");
  EXPECT_EQ(tracer.span_count(), 0u);
  SpanScope null_scope(nullptr, "y", Layer::kFdbs);
  EXPECT_EQ(null_scope.id(), 0u);
}

TEST(MetricsTest, CountersAndHistograms) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.counter("absent"), 0u);
  metrics.Inc("calls");
  metrics.Inc("calls", 2);
  EXPECT_EQ(metrics.counter("calls"), 3u);

  metrics.Observe("lat", 100);
  metrics.Observe("lat", 300);
  Histogram h = metrics.histogram("lat");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 400);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 300);
  auto buckets = h.Buckets();
  uint64_t total = 0;
  for (const auto& [bound, count] : buckets) total += count;
  EXPECT_EQ(total, 2u);

  EXPECT_EQ(metrics.histogram("absent").count(), 0u);
  std::string dump = metrics.ToString();
  EXPECT_NE(dump.find("calls"), std::string::npos);
  EXPECT_NE(dump.find("lat"), std::string::npos);

  metrics.Reset();
  EXPECT_EQ(metrics.counter("calls"), 0u);
  EXPECT_EQ(metrics.histogram("lat").count(), 0u);
}

TEST(MetricsTest, EscapeMetricSegmentRoundTripsPlainIdentifiers) {
  // Every identifier the scenarios use passes through unchanged, so the
  // established metric names are unaffected by the escaping.
  EXPECT_EQ(EscapeMetricSegment("GetSuppQual"), "GetSuppQual");
  EXPECT_EQ(EscapeMetricSegment("tenant-a_1"), "tenant-a_1");
  // Dots (the metric-name separator) and the escape character itself are
  // rewritten; the mapping is injective ("a.b" can never collide with a
  // literal "a%2Eb").
  EXPECT_EQ(EscapeMetricSegment("a.b"), "a%2Eb");
  EXPECT_EQ(EscapeMetricSegment("a%2Eb"), "a%252Eb");
}

TEST(MetricsTest, TenantMetricNamesNoLongerCollideAcrossSegments) {
  // Before the escaping, tenant "a.b" with metric "calls" and tenant "a"
  // with metric "b.calls" both landed under "tenant.a.b.calls".
  MetricsRegistry metrics;
  TenantMetrics dotted(&metrics, "a.b");
  TenantMetrics plain(&metrics, "a");
  dotted.Inc("calls");
  plain.Inc("b.calls", 5);
  EXPECT_EQ(metrics.counter(TenantMetricName("a.b", "calls")), 1u);
  EXPECT_EQ(metrics.counter(TenantMetricName("a", "b.calls")), 5u);
  EXPECT_NE(TenantMetricName("a.b", "calls"), TenantMetricName("a", "b.calls"));
  // Plain tenants keep their historical names.
  EXPECT_EQ(TenantMetricName("acme", "call.count"), "tenant.acme.call.count");
}

TEST(ExportTest, ChromeTraceJsonAndSpanTree) {
  Tracer tracer;
  tracer.Enable();
  SpanId root = tracer.StartSpan("root", Layer::kFdbs, 0, 0);
  SpanId child = tracer.StartSpan("serve \"x\"", Layer::kRmi, root, 10);
  tracer.SetAttribute(child, "status", "unavailable");
  tracer.AddEvent(child, 12, "fault injected");
  tracer.EndSpan(child, 20);
  tracer.EndSpan(root, 30);
  std::vector<Span> spans = tracer.Snapshot();

  std::string json = ChromeTraceJson(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"rmi\""), std::string::npos);
  EXPECT_NE(json.find("serve \\\"x\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);     // instant event

  std::string tree = SpanTreeString(spans);
  EXPECT_NE(tree.find("[fdbs] root"), std::string::npos);
  EXPECT_NE(tree.find("status=unavailable"), std::string::npos);
  // The child renders indented under the root.
  EXPECT_LT(tree.find("[fdbs] root"), tree.find("[rmi] serve"));
}

TEST(TracerTest, EnableToggleRacesWithSpanStarts) {
  // The switch is read without the tracer's lock by every StartSpan, so one
  // thread may flip it while another records spans.
  Tracer tracer;
  std::thread toggler([&tracer] {
    for (int i = 0; i < 5000; ++i) {
      if (i % 2 == 0) {
        tracer.Enable();
      } else {
        tracer.Disable();
      }
    }
  });
  size_t recorded = 0;
  for (int i = 0; i < 5000; ++i) {
    SpanId id = tracer.StartSpan("x", Layer::kWfms, 0, i);
    SpanId remote = tracer.StartRemoteSpan("y", Layer::kRmi,
                                           tracer.ContextOf(id), i);
    tracer.EndSpan(remote, i + 1);
    tracer.EndSpan(id, i + 1);
    recorded += (id != 0) + (remote != 0);
  }
  toggler.join();
  EXPECT_EQ(tracer.span_count(), recorded);
}

TEST(TracerTest, ResetDropsSpans) {
  Tracer tracer;
  tracer.Enable();
  tracer.StartSpan("x", Layer::kFdbs, 0, 0);
  EXPECT_EQ(tracer.span_count(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.enabled());  // switch untouched
}

}  // namespace
}  // namespace fedflow::obs
