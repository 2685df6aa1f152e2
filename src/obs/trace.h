// fedtrace: virtual-time distributed tracing across the integration stack.
//
// A Span is one timed piece of work (a federated call, an RMI leg, a workflow
// activity, a local-function execution), stamped with virtual-clock
// timestamps and tagged with the architectural layer it ran in. Spans form a
// tree; across the RMI boundary the parent link is established by
// *propagation*: the caller marshals its TraceContext into the request
// header, and the server side parents its spans under the decoded context —
// exactly the shape of cross-process context propagation in production
// tracing systems, minus the wall clock.
//
// The Tracer is default-off and every operation on a disabled tracer is a
// no-op, so wiring it through the stack leaves untraced runs bit-identical.
// Spans additionally accumulate "charges": the (step, duration) pairs the
// SimClock records while the span is current. Summing all charges of a trace
// reproduces the clock's TimeBreakdown exactly (export.h), which is how the
// subsystem validates that no virtual time escapes the span tree.
#ifndef FEDFLOW_OBS_TRACE_H_
#define FEDFLOW_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/vclock.h"

namespace fedflow::obs {

/// Architectural layer a span belongs to (the paper's Fig. 2 tiers).
enum class Layer {
  kFdbs,      ///< FDBS executor: statements, lateral A-UDTF steps
  kCoupling,  ///< coupling layer: I-UDTFs, SQL/MED wrapper, A-UDTF shims
  kRmi,       ///< simulated RMI channel legs (client call / server serve)
  kWfms,      ///< workflow engine: process instances and activities
  kAppsys,    ///< local-function execution inside an application system
  kPlan,      ///< plan compiler/optimizer: compile, passes, lowering checks
};

/// Stable lower-case layer name ("fdbs", "coupling", ...).
const char* LayerName(Layer layer);

/// Span identifier; 0 means "no span".
using SpanId = uint64_t;

/// The propagated identity of a span: what crosses the RMI boundary inside
/// the request header. trace_id == 0 marks an absent/invalid context.
struct TraceContext {
  uint64_t trace_id = 0;
  SpanId span_id = 0;

  bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// A point event attached to a span (audit records, faults, retries).
struct SpanEvent {
  VTime time_us = 0;
  std::string name;
  std::string detail;
};

/// One (step, duration) portion of virtual time recorded while the span was
/// current. `seq` is the global charge order, so a breakdown reassembled
/// from charges preserves the clock's step-insertion order.
struct SpanCharge {
  std::string step;
  VDuration duration_us = 0;
  uint64_t seq = 0;
};

/// One completed (or still-open) span.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = trace root
  uint64_t trace_id = 0;
  std::string name;
  Layer layer = Layer::kFdbs;
  VTime start_us = 0;
  VTime end_us = 0;
  bool finished = false;
  /// True when the parent link was established from a TraceContext decoded
  /// off the wire rather than from an in-memory span handle.
  bool remote_parent = false;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<SpanEvent> events;
  std::vector<SpanCharge> charges;

  /// Last value set for `key`, or "" when absent.
  std::string attribute(const std::string& key) const;
};

/// Collects spans for one integration server. Thread-safe: workflow fork
/// branches on pool threads record concurrently. Disabled (the default)
/// every member is a cheap no-op and StartSpan returns 0, which all other
/// members accept and ignore — instrumentation never needs null checks.
class Tracer {
 public:
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Opens a span. parent == 0 starts a new trace (fresh trace id);
  /// otherwise the span joins its parent's trace. Returns 0 when disabled.
  SpanId StartSpan(const std::string& name, Layer layer, SpanId parent,
                   VTime start_us);

  /// Opens a span whose parent arrived over the wire as a TraceContext
  /// (RMI server side). An invalid context starts a new trace.
  SpanId StartRemoteSpan(const std::string& name, Layer layer,
                         const TraceContext& ctx, VTime start_us);

  /// Closes a span. No-op for id 0 or an unknown/already-finished span.
  void EndSpan(SpanId id, VTime end_us);

  void SetAttribute(SpanId id, const std::string& key,
                    const std::string& value);

  /// Sets the conventional "status" attribute from a Status code.
  void SetStatus(SpanId id, const Status& status);

  void AddEvent(SpanId id, VTime time_us, const std::string& name,
                const std::string& detail = "");

  /// Records a (step, duration) portion of virtual time against the span.
  void AddCharge(SpanId id, const std::string& step, VDuration duration_us);

  /// The propagatable identity of `id` ({} when unknown/disabled).
  TraceContext ContextOf(SpanId id) const;

  /// Copies out all spans recorded so far, in creation (id) order.
  std::vector<Span> Snapshot() const;

  /// Number of spans recorded so far.
  size_t span_count() const;

  /// Drops all recorded spans (the enabled/disabled switch is untouched).
  void Reset();

 private:
  std::atomic<bool> enabled_{false};  ///< read without mu_ by every StartSpan
  mutable std::mutex mu_;
  std::vector<Span> spans_;       // spans_[id - 1]
  uint64_t next_trace_id_ = 1;
  uint64_t next_charge_seq_ = 1;
};

/// Cross-thread handle for instrumenting work that runs away from the
/// session stack (workflow activities, some on pool threads): an explicit parent
/// instead of ambient state. `base_us` maps the callee's relative virtual
/// times (engine token timestamps start at 0 per instance) onto the
/// session's clock timeline.
struct TraceHandle {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
  VTime base_us = 0;

  bool active() const { return tracer != nullptr && tracer->enabled(); }
};

/// Per-statement trace state on the navigating (single) thread: the ambient
/// span stack plus the clock-charge hook. While a TraceSession is installed
/// as the SimClock's observer, every Charge/ChargeWork lands in the current
/// span's charge list — the completeness invariant behind trace-derived
/// breakdowns.
class TraceSession : public ClockObserver {
 public:
  /// Does not attach itself; callers install it with clock->set_observer().
  TraceSession(Tracer* tracer, SimClock* clock)
      : tracer_(tracer), clock_(clock) {}

  bool active() const { return tracer_ != nullptr && tracer_->enabled(); }
  Tracer* tracer() const { return tracer_; }
  SimClock* clock() const { return clock_; }

  /// The span charges and child spans currently attach to (0 = none yet).
  SpanId current() const { return stack_.empty() ? 0 : stack_.back(); }

  /// Explicit-parent handle for work leaving this thread.
  TraceHandle handle() const { return TraceHandle{tracer_, current()}; }

  void Push(SpanId id) { stack_.push_back(id); }
  void Pop() {
    if (!stack_.empty()) stack_.pop_back();
  }

  void OnCharge(const std::string& step, VDuration duration_us) override {
    if (active()) tracer_->AddCharge(current(), step, duration_us);
  }

 private:
  Tracer* tracer_;
  SimClock* clock_;
  std::vector<SpanId> stack_;
};

/// RAII span over the session's clock: starts at construction time
/// (clock->now()), becomes the session's current span, and on destruction
/// pops itself and closes at the then-current clock time. Inactive sessions
/// (null pointer or disabled tracer) make every member a no-op.
class SpanScope {
 public:
  SpanScope(TraceSession* session, const std::string& name, Layer layer)
      : session_(session) {
    if (session_ == nullptr || !session_->active()) return;
    VTime now = session_->clock() != nullptr ? session_->clock()->now() : 0;
    id_ = session_->tracer()->StartSpan(name, layer, session_->current(), now);
    session_->Push(id_);
  }

  ~SpanScope() {
    if (id_ == 0) return;
    session_->Pop();
    VTime now = session_->clock() != nullptr ? session_->clock()->now() : 0;
    session_->tracer()->EndSpan(id_, now);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  SpanId id() const { return id_; }

  void SetAttribute(const std::string& key, const std::string& value) {
    if (id_ != 0) session_->tracer()->SetAttribute(id_, key, value);
  }

  void SetStatus(const Status& status) {
    if (id_ != 0) session_->tracer()->SetStatus(id_, status);
  }

  void AddEvent(const std::string& name, const std::string& detail = "") {
    if (id_ == 0) return;
    VTime now = session_->clock() != nullptr ? session_->clock()->now() : 0;
    session_->tracer()->AddEvent(id_, now, name, detail);
  }

 private:
  TraceSession* session_;
  SpanId id_ = 0;
};

}  // namespace fedflow::obs

#endif  // FEDFLOW_OBS_TRACE_H_
