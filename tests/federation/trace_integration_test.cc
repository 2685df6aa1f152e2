// End-to-end fedtrace tests over the sample scenario: the trace-derived
// Fig. 6 per-step breakdown must equal the clock's step accounting exactly,
// tracing must be cost-neutral (disabled AND enabled), the RMI boundary must
// propagate trace context so server-side spans parent under the client call
// span, and the metrics registry must record the stack's activity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "federation/sample_scenario.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace fedflow::federation {
namespace {

const std::vector<Value>& NoSuppArgs() {
  static const std::vector<Value> args = {Value::Varchar("Stark"),
                                          Value::Varchar("brakepad")};
  return args;
}

std::map<obs::SpanId, obs::Span> ById(const std::vector<obs::Span>& spans) {
  std::map<obs::SpanId, obs::Span> by_id;
  for (const obs::Span& s : spans) by_id[s.id] = s;
  return by_id;
}

class TraceIntegrationTest : public ::testing::TestWithParam<Architecture> {};

/// The tentpole proof: reassembling the breakdown from span charges yields
/// the clock's TimeBreakdown bit-identically — same steps, same insertion
/// order, same durations — for the paper's Fig. 6 function.
TEST_P(TraceIntegrationTest, TraceDerivedBreakdownEqualsClockExactly) {
  auto server = MakeSampleServer(GetParam());
  ASSERT_TRUE(server.ok()) << server.status();
  (*server)->tracer().Enable();
  auto result = (*server)->CallFederated("GetNoSuppComp", NoSuppArgs());
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<obs::Span> spans = (*server)->tracer().Snapshot();
  ASSERT_FALSE(spans.empty());
  TimeBreakdown derived = obs::BreakdownFromSpans(spans);
  EXPECT_EQ(derived.entries(), result->breakdown.entries());
  EXPECT_GT(result->breakdown.Total(), 0);
}

/// Tracing is free in virtual time: a traced run reports the same elapsed
/// time and breakdown as an untraced run of the same call.
TEST_P(TraceIntegrationTest, TracingIsVirtualTimeNeutral) {
  auto plain = MakeSampleServer(GetParam());
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto traced = MakeSampleServer(GetParam());
  ASSERT_TRUE(traced.ok()) << traced.status();
  (*traced)->tracer().Enable();

  auto p = (*plain)->CallFederated("GetNoSuppComp", NoSuppArgs());
  ASSERT_TRUE(p.ok()) << p.status();
  auto t = (*traced)->CallFederated("GetNoSuppComp", NoSuppArgs());
  ASSERT_TRUE(t.ok()) << t.status();

  EXPECT_EQ(p->elapsed_us, t->elapsed_us);
  EXPECT_EQ(p->breakdown.entries(), t->breakdown.entries());
  EXPECT_EQ((*plain)->tracer().span_count(), 0u);
}

/// Cross-boundary propagation, verified on the whole stack: every serve-side
/// RMI span is a child of a client-side `rmi:` span via the wire context.
TEST_P(TraceIntegrationTest, ServeSpansParentUnderClientCallSpans) {
  auto server = MakeSampleServer(GetParam());
  ASSERT_TRUE(server.ok()) << server.status();
  (*server)->tracer().Enable();
  auto result = (*server)->CallFederated("GetNoSuppComp", NoSuppArgs());
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<obs::Span> spans = (*server)->tracer().Snapshot();
  auto by_id = ById(spans);
  size_t serve_count = 0;
  for (const obs::Span& s : spans) {
    if (s.name.rfind("serve:", 0) != 0) continue;
    ++serve_count;
    EXPECT_TRUE(s.remote_parent) << s.name;
    ASSERT_NE(s.parent, 0u) << s.name;
    const obs::Span& parent = by_id.at(s.parent);
    EXPECT_EQ(parent.layer, obs::Layer::kRmi);
    EXPECT_EQ(parent.name.rfind("rmi:", 0), 0u) << parent.name;
    EXPECT_EQ(parent.trace_id, s.trace_id);
  }
  EXPECT_GT(serve_count, 0u);
}

/// Every architectural layer the coupling exercises shows up in the trace,
/// and appsys spans sit under the serve span via an unbroken parent chain.
TEST_P(TraceIntegrationTest, AllLayersAppearWithUnbrokenAncestry) {
  auto server = MakeSampleServer(GetParam());
  ASSERT_TRUE(server.ok()) << server.status();
  (*server)->tracer().Enable();
  auto result = (*server)->CallFederated("GetNoSuppComp", NoSuppArgs());
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<obs::Span> spans = (*server)->tracer().Snapshot();
  auto by_id = ById(spans);
  std::map<obs::Layer, size_t> layer_counts;
  for (const obs::Span& s : spans) ++layer_counts[s.layer];
  EXPECT_GT(layer_counts[obs::Layer::kFdbs], 0u);
  EXPECT_GT(layer_counts[obs::Layer::kCoupling], 0u);
  EXPECT_GT(layer_counts[obs::Layer::kRmi], 0u);
  EXPECT_GT(layer_counts[obs::Layer::kAppsys], 0u);
  if (GetParam() == Architecture::kWfms) {
    EXPECT_GT(layer_counts[obs::Layer::kWfms], 0u);
  }

  // Each appsys span reaches the root "query" span by walking parents.
  for (const obs::Span& s : spans) {
    if (s.layer != obs::Layer::kAppsys) continue;
    obs::SpanId cursor = s.id;
    size_t hops = 0;
    while (by_id.at(cursor).parent != 0 && hops < 64) {
      cursor = by_id.at(cursor).parent;
      ++hops;
    }
    EXPECT_EQ(by_id.at(cursor).name, "query") << "orphaned: " << s.name;
  }
}

INSTANTIATE_TEST_SUITE_P(BothArchitectures, TraceIntegrationTest,
                         ::testing::Values(Architecture::kWfms,
                                           Architecture::kUdtf),
                         [](const auto& info) {
                           return info.param == Architecture::kWfms ? "Wfms"
                                                                    : "Udtf";
                         });

/// The WfMS trace mirrors the engine's audit trail: process and activity
/// spans carry the audit records as span events, under the process span
/// hierarchy.
TEST(WfmsTraceTest, ProcessSpanMirrorsAuditTrail) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  (*server)->tracer().Enable();
  auto result = (*server)->CallFederated("GetNoSuppComp", NoSuppArgs());
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<obs::Span> spans = (*server)->tracer().Snapshot();
  auto by_id = ById(spans);
  const obs::Span* proc = nullptr;
  for (const obs::Span& s : spans) {
    if (s.name.rfind("wf:", 0) == 0) proc = &by_id.at(s.id);
  }
  ASSERT_NE(proc, nullptr);
  bool started = false;
  bool finished = false;
  for (const obs::SpanEvent& e : proc->events) {
    if (e.name == "process started") started = true;
    if (e.name == "process finished") finished = true;
  }
  EXPECT_TRUE(started);
  EXPECT_TRUE(finished);

  // One activity span per executed activity, each a child of the process
  // span, with checkpoint events (RunRecoverable persists every completion).
  size_t activities = 0;
  for (const obs::Span& s : spans) {
    if (s.name.rfind("activity:", 0) != 0) continue;
    ++activities;
    EXPECT_EQ(s.parent, proc->id);
    EXPECT_EQ(s.layer, obs::Layer::kWfms);
    bool checkpointed = false;
    for (const obs::SpanEvent& e : s.events) {
      if (e.name == "activity checkpointed") checkpointed = true;
    }
    EXPECT_TRUE(checkpointed) << s.name;
  }
  EXPECT_EQ(activities, 4u);  // GSN, GCN, GN, RESULT
}

/// Satellite: audit records are deterministically ordered by (virtual time,
/// activity index) under parallel forks — repeated runs of a forking process
/// produce the identical trail regardless of pool scheduling.
TEST(WfmsTraceTest, AuditOrderingIsDeterministicUnderParallelForks) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  wfms::Engine* engine = (*server)->engine();
  ASSERT_NE(engine, nullptr);
  wfms::ProgramInvoker* invoker = (*server)->program_invoker();
  ASSERT_NE(invoker, nullptr);

  // GetSuppQualRelia forks GQ and GR in parallel from the same input.
  std::vector<wfms::AuditEntry> reference;
  for (int run = 0; run < 10; ++run) {
    auto result =
        engine->Run("GetSuppQualRelia", {Value::Int(1234)}, invoker);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::vector<wfms::AuditEntry>& entries = result->audit.entries();
    ASSERT_FALSE(entries.empty());
    // Ordered by (time, activity index); process-started leads.
    EXPECT_EQ(entries.front().event, wfms::AuditEvent::kProcessStarted);
    EXPECT_EQ(entries.back().event, wfms::AuditEvent::kProcessFinished);
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LE(entries[i - 1].time, entries[i].time) << "entry " << i;
      if (entries[i - 1].time == entries[i].time &&
          entries[i - 1].event != wfms::AuditEvent::kProcessStarted &&
          entries[i].event != wfms::AuditEvent::kProcessFinished) {
        EXPECT_LE(entries[i - 1].activity_index, entries[i].activity_index)
            << "entry " << i;
      }
    }
    if (run == 0) {
      reference = entries;
    } else {
      ASSERT_EQ(entries.size(), reference.size());
      for (size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].time, reference[i].time) << "entry " << i;
        EXPECT_EQ(entries[i].event, reference[i].event) << "entry " << i;
        EXPECT_EQ(entries[i].activity, reference[i].activity) << "entry " << i;
        EXPECT_EQ(entries[i].activity_index, reference[i].activity_index)
            << "entry " << i;
      }
    }
  }
}

/// One event log: the engine records each navigation event once, so the
/// events on a traced instance's process and activity spans are exactly its
/// audit trail — same events, same virtual times, same activities.
TEST(WfmsTraceTest, SpanEventsAreTheAuditTrail) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  obs::Tracer& tracer = (*server)->tracer();
  tracer.Enable();
  constexpr VTime kBase = 1000;  // the instance's time 0 on the trace
  wfms::InstanceCheckpoint ckpt;
  auto result = (*server)->engine()->RunRecoverable(
      "BuySuppComp", {Value::Int(1234), Value::Varchar("brakepad")},
      (*server)->program_invoker(), &ckpt, obs::TraceHandle{&tracer, 0, kBase});
  ASSERT_TRUE(result.ok()) << result.status();

  using Event = std::tuple<std::string, VTime, std::string>;
  const std::string kActivity = "activity:";
  std::vector<Event> on_spans;
  for (const obs::Span& s : tracer.Snapshot()) {
    const bool process = s.name.rfind("wf:", 0) == 0;
    const bool activity = s.name.rfind(kActivity, 0) == 0;
    if (!process && !activity) continue;
    for (const obs::SpanEvent& e : s.events) {
      // Process-span events name their activity (if any) in the detail.
      std::string name = activity ? s.name.substr(kActivity.size())
                         : e.name == "activity dead" ? e.detail
                                                     : "";
      on_spans.emplace_back(e.name, e.time_us - kBase, std::move(name));
    }
  }
  std::vector<Event> in_audit;
  int checkpointed = 0;
  for (const wfms::AuditEntry& e : result->audit.entries()) {
    in_audit.emplace_back(wfms::AuditEventName(e.event), e.time, e.activity);
    if (e.event == wfms::AuditEvent::kActivityCheckpointed) ++checkpointed;
  }
  EXPECT_EQ(checkpointed, 6);  // GQ, GR, GCN, GG, DP, RESULT
  std::sort(on_spans.begin(), on_spans.end());
  std::sort(in_audit.begin(), in_audit.end());
  EXPECT_EQ(on_spans, in_audit);
}

/// The metrics registry aggregates the stack's activity: call counts,
/// warmth transitions, and (WfMS) activity/checkpoint counts.
TEST(MetricsIntegrationTest, ServerRecordsCallAndWarmthMetrics) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  obs::MetricsRegistry& metrics = (*server)->metrics();
  EXPECT_EQ(metrics.counter("warmth.boot"), 1u);  // Create() boots once

  // The paper's cold/warm/hot protocol: boot, call another function (cold),
  // first call of the target (warm), repeat call of the target (hot).
  ASSERT_TRUE(
      (*server)->CallFederated("GibKompNr", {Value::Varchar("brakepad")}).ok());
  ASSERT_TRUE((*server)->CallFederated("GetNoSuppComp", NoSuppArgs()).ok());
  ASSERT_TRUE((*server)->CallFederated("GetNoSuppComp", NoSuppArgs()).ok());

  EXPECT_EQ(metrics.counter("call.count"), 3u);
  EXPECT_EQ(metrics.counter("call.function.GetNoSuppComp"), 2u);
  EXPECT_EQ(metrics.counter("call.warmth.cold"), 1u);
  EXPECT_EQ(metrics.counter("call.warmth.warm"), 1u);
  EXPECT_EQ(metrics.counter("call.warmth.hot"), 1u);
  EXPECT_EQ(metrics.counter("warmth.to_warm"), 1u);
  EXPECT_EQ(metrics.counter("warmth.to_hot"), 2u);  // one per first run
  // Every executed activity is checkpointed by the recoverable runner.
  EXPECT_GE(metrics.counter("wfms.activities"), 8u);
  EXPECT_EQ(metrics.counter("wfms.checkpoints"),
            metrics.counter("wfms.activities"));
  EXPECT_EQ(metrics.counter("wfms.resumes"), 0u);

  EXPECT_EQ(metrics.histogram("call.elapsed_us.cold").count(), 1u);
  EXPECT_EQ(metrics.histogram("call.elapsed_us.warm").count(), 1u);
  EXPECT_EQ(metrics.histogram("call.elapsed_us.hot").count(), 1u);

  // Reboot re-boots the infrastructure.
  (*server)->Reboot();
  EXPECT_EQ(metrics.counter("warmth.boot"), 2u);
}

}  // namespace
}  // namespace fedflow::federation
