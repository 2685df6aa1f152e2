#include "wfms/engine.h"

#include <algorithm>
#include <deque>
#include <iterator>

#include "common/strings.h"
#include "wfms/condition.h"
#include "wfms/container.h"
#include "wfms/helpers.h"

namespace fedflow::wfms {

namespace {

constexpr size_t kWorkerThreads = 4;  ///< pool threads for hand-offs

/// How long an instance's ready work may wait for one of its busy threads
/// before the watcher hands it to the pool; also the watcher's tick.
constexpr std::chrono::microseconds kHandOffDeadline{1000};
/// Ticks without an offer after which the watcher parks until the next one.
constexpr int kIdleTicksBeforePark = 100;

/// Lifecycle of one activity within an instance.
enum class AState { kWaiting, kScheduled, kFinished, kDead, kFailed };

struct ActState {
  AState state = AState::kWaiting;
  int incoming = 0;    ///< number of incoming control connectors
  int unresolved = 0;  ///< incoming connectors not yet evaluated
  int true_in = 0;     ///< incoming connectors that evaluated to true
  VTime ready = 0;     ///< max resolution time over incoming connectors
  VTime end = 0;       ///< completion time (finished activities)
};

}  // namespace

/// Navigates one process instance, top-level or block sub-process alike. The
/// thread calling Run drains the ready queue itself, fork branches included.
/// A thread that takes an activity while others are still queued only posts
/// an offer (at most one pending per instance); the engine's watcher hands
/// the instance to a pool thread once the offer is older than
/// kHandOffDeadline and work is still queued.
///
/// Progress: a thread that queues activities (ResolveOutgoing, or Run before
/// its first Drain) goes on to take the first of them without blocking, and
/// takes the next one as soon as it finishes its activity. So every ready
/// activity is either taken by a thread that finished its previous activity,
/// or is queued while an offer is pending, which the watcher hands to the
/// pool within two deadlines: one for the offer to age, at most one more to
/// the watcher's next tick. No activity waits forever for a sibling that was
/// not handed off — a branch that blocks on its sibling still gets it run.
///
/// No deadlock however many threads navigate: a navigating thread waits only
/// for activities that are executing, never for a pool task not yet started,
/// and a task keeps the runner (always in a shared_ptr) alive, so one that
/// starts late finds the queue empty. Token times ignore which thread ran.
class InstanceRunner : public std::enable_shared_from_this<InstanceRunner> {
 public:
  using Lock = std::unique_lock<std::mutex>;

  InstanceRunner(Engine* engine, std::shared_ptr<const ProcessDefinition> def,
                 const std::vector<Value>& args, ProgramInvoker* invoker,
                 InstanceCheckpoint* ckpt, obs::TraceHandle trace)
      : engine_(engine),
        def_(std::move(def)),
        invoker_(invoker),
        ckpt_(ckpt),
        trace_(trace),
        raw_args_(args),
        audit_(def_) {}

  Result<ProcessResult> Run();

  /// The watcher's claim on this instance's overdue offer: clears it and
  /// reports whether ready work is still waiting for a thread.
  bool ClaimOffer() {
    Lock lock(mu_);
    offer_pending_ = false;
    return !ready_.empty();
  }

  /// A pool thread's share of the navigation, after a hand-off.
  void Help() {
    Lock lock(mu_);
    Drain(lock);
  }

 private:
  struct Work {
    size_t idx;
    VTime start;
  };

  // Must hold mu_.
  void Schedule(size_t idx, VTime start);
  void MarkDead(size_t idx, VTime t);
  void ResolveOutgoing(size_t idx, VTime t, bool source_ran);
  void Fail(const Status& status, size_t idx, VTime t, obs::SpanId span = 0);
  /// Records one navigation event on the audit trail and, when `span` is
  /// live, as its span event (detail defaulting to the activity's name).
  void Record(obs::SpanId span, VTime t, AuditEvent event, int activity = -1,
              std::string detail = {});

  /// Runs queued activities until none is left, posting an offer whenever
  /// it leaves work queued and none is pending. Holds `lock` on mu_.
  void Drain(Lock& lock);
  /// Runs one activity, releasing `lock` around its external work.
  void ExecuteActivity(Lock& lock, size_t idx, VTime start);

  /// Resolves one input source: a whole-table source is the producing
  /// activity's shared table itself; only a constant, a process input or a
  /// column projection builds a new one. Must hold mu_.
  Result<std::shared_ptr<const Table>> ResolveInput(
      const InputSource& in) const;
  Result<Value> ResolveInputScalar(const InputSource& in) const;

  /// Condition resolver over instance data. Must hold mu_.
  Result<Value> ResolveRef(const std::string& qualifier,
                           const std::string& name) const;

  /// Runs the external work of an activity. Must NOT hold mu_; `inputs`
  /// were resolved under the lock beforehand.
  Result<InvokeResult> DoProgram(const ActivityDef& a,
                                 const std::vector<Value>& args,
                                 obs::SpanId span, VTime start);
  Result<InvokeResult> DoHelper(
      const ActivityDef& a,
      const std::vector<std::shared_ptr<const Table>>& inputs);
  Result<InvokeResult> DoBlock(const ActivityDef& a,
                               const std::vector<Value>& args, size_t idx,
                               obs::SpanId span, VTime start);

  /// The instance's virtual time `t` (tokens start at 0) on the session
  /// timeline.
  VTime TraceTime(VTime t) const { return trace_.base_us + t; }

  Engine* engine_;
  const std::shared_ptr<const ProcessDefinition> def_;
  ProgramInvoker* invoker_;
  InstanceCheckpoint* ckpt_;  ///< null = run without forward recovery
  obs::TraceHandle trace_;
  obs::SpanId proc_span_ = 0;  ///< process span; 0 when tracing is off
  const std::vector<Value>& raw_args_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Run waits on it for executing activities
  std::vector<ActState> states_;
  /// Per activity: (outgoing connector, index of its target).
  std::vector<std::vector<std::pair<const ControlConnector*, size_t>>>
      outgoing_;
  std::vector<std::pair<std::string, Value>> inputs_;  // process input fields
  Container data_;                                     // activity outputs
  std::deque<Work> ready_;  ///< scheduled activities no thread has taken yet
  int running_ = 0;         ///< activities taken and still executing
  bool offer_pending_ = false;  ///< an offer is posted, not yet claimed
  Status error_;
  /// (virtual failure time, activity index) of the failure error_ reports;
  /// earliest wins so the surfaced error does not depend on which pool
  /// thread reported first when several activities fail in one attempt.
  std::pair<VTime, size_t> error_rank_{0, 0};
  AuditTrail audit_;
  TimeBreakdown breakdown_;
};

Result<ProcessResult> InstanceRunner::Run() {
  const size_t n = def_->activities.size();

  // Bind and coerce process inputs.
  if (raw_args_.size() != def_->input_params.size()) {
    return Status::InvalidArgument(
        "process " + def_->name + " expects " +
        std::to_string(def_->input_params.size()) + " argument(s), got " +
        std::to_string(raw_args_.size()));
  }
  for (size_t i = 0; i < raw_args_.size(); ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(Value v,
                             raw_args_[i].CastTo(def_->input_params[i].type));
    inputs_.emplace_back(def_->input_params[i].name, std::move(v));
  }

  // Process-level span; every executed activity hangs a child span under it.
  // Ends on every exit path at the instance's final virtual time.
  struct ProcSpanGuard {
    obs::Tracer* tracer = nullptr;
    obs::SpanId id = 0;
    VTime end_us = 0;
    ~ProcSpanGuard() {
      if (tracer != nullptr && id != 0) tracer->EndSpan(id, end_us);
    }
  } proc_guard;
  if (trace_.active()) {
    proc_span_ = trace_.tracer->StartSpan("wf:" + def_->name, obs::Layer::kWfms,
                                          trace_.parent, TraceTime(0));
    proc_guard.tracer = trace_.tracer;
    proc_guard.id = proc_span_;
    proc_guard.end_us = TraceTime(0);
  }

  states_.resize(n);
  outgoing_.resize(n);
  audit_.Reserve(3 * n + 2);  // started, checkpointed, finished per activity
  for (const ControlConnector& c : def_->connectors) {
    FEDFLOW_ASSIGN_OR_RETURN(size_t from, def_->ActivityIndex(c.from));
    FEDFLOW_ASSIGN_OR_RETURN(size_t to, def_->ActivityIndex(c.to));
    outgoing_[from].emplace_back(&c, to);
    states_[to].incoming += 1;
    states_[to].unresolved += 1;
  }

  {
    Lock lock(mu_);
    std::vector<size_t> restored;
    const bool resuming = ckpt_ != nullptr && ckpt_->valid;
    if (resuming) {
      // Restore persisted state: completed activities keep their outputs (the
      // checkpoint's own handles) and finish times and are never re-executed.
      audit_ = ckpt_->audit;
      for (const InstanceCheckpoint::CompletedActivity& c : ckpt_->completed) {
        Result<size_t> idx = def_->ActivityIndex(c.activity);
        if (!idx.ok()) {
          return Status::InvalidArgument(
              "checkpoint names unknown activity " + c.activity +
              " of process " + def_->name);
        }
        if (c.output == nullptr) {
          return Status::InvalidArgument("checkpoint holds no output for "
                                         "activity " + c.activity +
                                         " of process " + def_->name);
        }
        states_[*idx].state = AState::kFinished;
        states_[*idx].end = c.end_us;
        data_.Set(c.activity, c.output);
        restored.push_back(*idx);
      }
      Record(proc_span_, ckpt_->failed_at_us, AuditEvent::kProcessResumed);
      if (engine_->options_.metrics != nullptr) {
        engine_->options_.metrics->Inc("wfms.resumes");
      }
    } else {
      Record(proc_span_, 0, AuditEvent::kProcessStarted);
      if (ckpt_ != nullptr) {
        ckpt_->process = def_->name;
        ckpt_->args = raw_args_;
        ckpt_->completed.clear();
        ckpt_->audit = AuditTrail();
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (states_[i].incoming == 0 && states_[i].state == AState::kWaiting) {
        Schedule(i, 0);
      }
    }
    // Re-fire the restored activities' outgoing connectors: conditions
    // re-evaluate identically over the restored containers, so dead paths
    // die again and only genuinely unfinished successors get scheduled
    // (restored targets are kFinished and skip the scheduling branch).
    for (size_t idx : restored) {
      ResolveOutgoing(idx, states_[idx].end, /*source_ran=*/true);
    }
    while (true) {
      Drain(lock);
      if (running_ == 0) break;
      cv_.wait(lock, [this] { return running_ == 0 || !ready_.empty(); });
    }
  }

  // Assemble the result (single-threaded again from here).
  VTime end_time = 0;
  for (const ActState& s : states_) {
    end_time = std::max(end_time, std::max(s.end, s.ready));
  }
  proc_guard.end_us = TraceTime(end_time);
  if (!error_.ok() && proc_span_ != 0) {
    trace_.tracer->SetStatus(proc_span_, error_);
  }
  if (!error_.ok()) {
    if (ckpt_ != nullptr) {
      // Persist the failed instance: everything that completed stays
      // completed; a later run with this checkpoint resumes from here.
      ckpt_->valid = true;
      ckpt_->failed_at_us = end_time;
      ckpt_->attempt_work = breakdown_;
      ckpt_->audit = audit_;
    }
    return error_;
  }
  if (ckpt_ != nullptr) {
    ckpt_->valid = false;
    ckpt_->completed.clear();
  }
  Record(proc_span_, end_time, AuditEvent::kProcessFinished);

  FEDFLOW_ASSIGN_OR_RETURN(size_t out_idx,
                           def_->ActivityIndex(def_->output_activity));
  if (states_[out_idx].state == AState::kDead) {
    return Status::ExecutionError("output activity " + def_->output_activity +
                                  " was removed by dead-path elimination");
  }
  if (states_[out_idx].state != AState::kFinished) {
    return Status::Internal("output activity " + def_->output_activity +
                            " did not finish");
  }
  FEDFLOW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> out,
                           data_.Get(def_->output_activity));

  ProcessResult result;
  result.output = *out;
  result.elapsed_us = end_time;
  result.breakdown = std::move(breakdown_);
  result.audit = std::move(audit_);
  return result;
}

void InstanceRunner::Schedule(size_t idx, VTime start) {
  states_[idx].state = AState::kScheduled;
  ready_.push_back(Work{idx, start});
}

void InstanceRunner::Drain(Lock& lock) {
  while (!ready_.empty()) {
    const Work w = ready_.front();
    ready_.pop_front();
    ++running_;
    if (!ready_.empty() && !offer_pending_) {
      offer_pending_ = true;
      engine_->PostOffer(weak_from_this());
    }
    ExecuteActivity(lock, w.idx, w.start);
    --running_;
    if (running_ == 0 || !ready_.empty()) cv_.notify_one();
  }
}

void InstanceRunner::Record(obs::SpanId span, VTime t, AuditEvent event,
                            int activity, std::string detail) {
  if (span != 0) {
    const std::string& shown = !detail.empty() ? detail
                               : activity >= 0 ? def_->activities[activity].name
                                               : def_->name;
    trace_.tracer->AddEvent(span, TraceTime(t), AuditEventName(event), shown);
  }
  audit_.Record(t, event, activity, std::move(detail));
}

void InstanceRunner::MarkDead(size_t idx, VTime t) {
  states_[idx].state = AState::kDead;
  Record(proc_span_, t, AuditEvent::kActivityDead, static_cast<int>(idx));
  ResolveOutgoing(idx, t, /*source_ran=*/false);
}

void InstanceRunner::ResolveOutgoing(size_t idx, VTime t, bool source_ran) {
  for (const auto& [c, to] : outgoing_[idx]) {
    bool truth = false;
    if (source_ran) {
      if (c->condition == nullptr) {
        truth = true;
      } else {
        Result<bool> eval = EvalConditionBool(
            *c->condition, [this](const std::string& q, const std::string& n) {
              return ResolveRef(q, n);
            });
        if (!eval.ok()) {
          const std::pair<VTime, size_t> rank{t, idx};
          if (error_.ok() || rank < error_rank_) {
            error_ = eval.status().WithContext(
                "evaluating transition condition " + c->from + " -> " + c->to);
            error_rank_ = rank;
          }
          return;
        }
        truth = *eval;
      }
    }
    ActState& st = states_[to];
    st.unresolved -= 1;
    st.ready = std::max(st.ready, t);
    if (truth) st.true_in += 1;
    // Scheduling deliberately ignores error_: independently-ready activities
    // always run to completion even after a sibling failed, so the set of
    // completed (checkpointable) activities is deterministic instead of
    // depending on how far the pool got before the failure. Only the failed
    // activity's successors stall (Fail never resolves outgoing connectors).
    if (st.unresolved == 0 && st.state == AState::kWaiting) {
      const JoinKind join = def_->activities[to].join;
      const bool should_run = join == JoinKind::kAnd
                                  ? st.true_in == st.incoming
                                  : st.true_in > 0;
      if (should_run) {
        Schedule(to, st.ready);
      } else {
        MarkDead(to, st.ready);
      }
    }
  }
}

void InstanceRunner::Fail(const Status& status, size_t idx, VTime t,
                          obs::SpanId span) {
  states_[idx].state = AState::kFailed;
  Record(span, t, AuditEvent::kActivityFailed, static_cast<int>(idx),
         status.ToString());
  const std::pair<VTime, size_t> rank{t, idx};
  if (error_.ok() || rank < error_rank_) {
    error_ = status.WithContext("activity " + def_->activities[idx].name +
                                " in process " + def_->name);
    error_rank_ = rank;
  }
}

Result<std::shared_ptr<const Table>> InstanceRunner::ResolveInput(
    const InputSource& in) const {
  switch (in.kind) {
    case InputSource::Kind::kConstant:
      return std::make_shared<const Table>(
          Container::WrapScalar("value", in.constant));
    case InputSource::Kind::kProcessInput: {
      for (const auto& [name, value] : inputs_) {
        if (EqualsIgnoreCase(name, in.param)) {
          return std::make_shared<const Table>(
              Container::WrapScalar(name, value));
        }
      }
      return Status::NotFound("process input not found: " + in.param);
    }
    case InputSource::Kind::kActivityOutput: {
      if (!data_.Has(in.activity)) {
        // A dead-path-eliminated source supplies no data: its consumers see
        // an empty table (helpers like union_all skip it; scalar consumers
        // fail with a clear message).
        auto idx = def_->ActivityIndex(in.activity);
        if (idx.ok() && states_[*idx].state == AState::kDead) {
          return std::make_shared<const Table>();
        }
      }
      FEDFLOW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                               data_.Get(in.activity));
      if (in.column.empty()) return t;
      FEDFLOW_ASSIGN_OR_RETURN(size_t idx, t->schema().FindColumn(in.column));
      Schema schema;
      schema.AddColumn(t->schema().column(idx).name,
                       t->schema().column(idx).type);
      Table out(schema);
      for (const Row& r : t->rows()) out.AppendRowUnchecked({r[idx]});
      return std::make_shared<const Table>(std::move(out));
    }
  }
  return Status::Internal("bad input source kind");
}

Result<Value> InstanceRunner::ResolveInputScalar(const InputSource& in) const {
  FEDFLOW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t, ResolveInput(in));
  if (t->schema().num_columns() != 1) {
    return Status::ExecutionError(
        "scalar input requires a single-column source; specify a column");
  }
  if (t->num_rows() != 1) {
    return Status::ExecutionError(
        "scalar input requires exactly one row, got " +
        std::to_string(t->num_rows()));
  }
  return t->rows()[0][0];
}

Result<Value> InstanceRunner::ResolveRef(const std::string& qualifier,
                                         const std::string& name) const {
  if (qualifier.empty() || EqualsIgnoreCase(qualifier, "INPUT")) {
    for (const auto& [pname, value] : inputs_) {
      if (EqualsIgnoreCase(pname, name)) return value;
    }
    if (!qualifier.empty()) {
      return Status::NotFound("process input not found: " + name);
    }
  }
  if (!qualifier.empty()) {
    FEDFLOW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                             data_.Get(qualifier));
    if (t->num_rows() == 0) return Value::Null();
    FEDFLOW_ASSIGN_OR_RETURN(size_t idx, t->schema().FindColumn(name));
    return t->rows()[0][idx];
  }
  // Unqualified, not a process input: search completed activity outputs.
  for (const std::string& slot : data_.Names()) {
    const std::shared_ptr<const Table> t = *data_.Get(slot);
    if (t->schema().IndexOf(name).has_value()) {
      if (t->num_rows() == 0) return Value::Null();
      return t->rows()[0][*t->schema().IndexOf(name)];
    }
  }
  return Status::NotFound("condition reference not found: " + name);
}

void InstanceRunner::ExecuteActivity(Lock& lock, size_t idx, VTime start) {
  const ActivityDef& a = def_->activities[idx];

  // Resolve inputs under the lock (reads shared instance data). The table
  // handles keep the helper's inputs alive until it returns.
  std::vector<Value> scalar_args;
  std::vector<std::shared_ptr<const Table>> table_args;
  Status st = Status::OK();
  for (const InputSource& in : a.inputs) {
    if (a.kind == ActivityKind::kHelper) {
      Result<std::shared_ptr<const Table>> t = ResolveInput(in);
      if (!t.ok()) {
        st = t.status();
        break;
      }
      table_args.push_back(std::move(*t));
    } else {
      Result<Value> v = ResolveInputScalar(in);
      if (!v.ok()) {
        st = v.status();
        break;
      }
      scalar_args.push_back(std::move(*v));
    }
  }
  if (!st.ok()) {
    Fail(st.WithContext("resolving inputs"), idx, start);
    return;
  }
  // Per-activity span: token start/end times on the session timeline, the
  // activity's navigation events as span events.
  obs::SpanId act_span = 0;
  if (proc_span_ != 0) {
    act_span = trace_.tracer->StartSpan("activity:" + a.name, obs::Layer::kWfms,
                                        proc_span_, TraceTime(start));
  }
  Record(act_span, start, AuditEvent::kActivityStarted, static_cast<int>(idx));
  lock.unlock();
  if (engine_->options_.metrics != nullptr) {
    engine_->options_.metrics->Inc("wfms.activities");
  }

  // External work, outside the lock.
  Result<InvokeResult> work = [&]() -> Result<InvokeResult> {
    switch (a.kind) {
      case ActivityKind::kProgram:
        return DoProgram(a, scalar_args, act_span, start);
      case ActivityKind::kHelper:
        return DoHelper(a, table_args);
      case ActivityKind::kBlock:
        return DoBlock(a, scalar_args, idx, act_span, start);
    }
    return Status::Internal("bad activity kind");
  }();

  lock.lock();
  if (!work.ok()) {
    Fail(work.status(), idx, start, act_span);
    if (act_span != 0) {
      trace_.tracer->SetStatus(act_span, work.status());
      trace_.tracer->EndSpan(act_span, TraceTime(start));
    }
  } else {
    const EngineOptions& opts = engine_->options_;
    VDuration dur =
        opts.navigation_cost_us + opts.container_cost_us + work->duration;
    VTime end = start + dur;
    states_[idx].state = AState::kFinished;
    states_[idx].end = end;
    // The output becomes immutable here: the instance container and the
    // checkpoint share this one handle.
    auto output = std::make_shared<const Table>(std::move(work->output));
    if (ckpt_ != nullptr) {
      // Persist the completion — the paper's WfMS keeps exactly this on
      // stable storage.
      ckpt_->completed.push_back(
          InstanceCheckpoint::CompletedActivity{a.name, output, end});
      Record(act_span, end, AuditEvent::kActivityCheckpointed,
             static_cast<int>(idx));
      if (opts.metrics != nullptr) opts.metrics->Inc("wfms.checkpoints");
    }
    data_.Set(a.name, std::move(output));
    if (opts.navigation_cost_us > 0) {
      breakdown_.Add(steps::kWorkflowNavigation, opts.navigation_cost_us);
    }
    if (opts.container_cost_us > 0) {
      breakdown_.Add(steps::kProcessActivities, opts.container_cost_us);
    }
    breakdown_.Merge(work->steps);
    Record(act_span, end, AuditEvent::kActivityFinished,
           static_cast<int>(idx));
    if (act_span != 0) trace_.tracer->EndSpan(act_span, TraceTime(end));
    ResolveOutgoing(idx, end, /*source_ran=*/true);
  }
}

Result<InvokeResult> InstanceRunner::DoProgram(const ActivityDef& a,
                                               const std::vector<Value>& args,
                                               obs::SpanId span, VTime start) {
  if (invoker_ == nullptr) {
    return Status::InvalidArgument(
        "process contains program activities but no invoker was supplied");
  }
  return invoker_->Invoke(
      a.system, a.function, args,
      obs::TraceHandle{trace_.tracer, span, TraceTime(start)});
}

Result<InvokeResult> InstanceRunner::DoHelper(
    const ActivityDef& a,
    const std::vector<std::shared_ptr<const Table>>& inputs) {
  auto it = engine_->helpers_.find(ToUpper(a.helper));
  if (it == engine_->helpers_.end()) {
    return Status::NotFound("helper not registered: " + a.helper);
  }
  std::vector<const Table*> borrowed;
  borrowed.reserve(inputs.size());
  for (const std::shared_ptr<const Table>& t : inputs) {
    borrowed.push_back(t.get());
  }
  FEDFLOW_ASSIGN_OR_RETURN(Table out, it->second(borrowed));
  InvokeResult result;
  result.output = std::move(out);
  result.duration = engine_->options_.helper_cost_us;
  if (result.duration > 0) {
    result.steps.Add(steps::kProcessActivities, result.duration);
  }
  return result;
}

Result<InvokeResult> InstanceRunner::DoBlock(const ActivityDef& a,
                                             const std::vector<Value>& args,
                                             size_t idx, obs::SpanId span,
                                             VTime start) {
  InvokeResult result;
  // Union-all accumulation appends each iteration's rows in place (a batch
  // append), so the loop never re-copies the rows accumulated so far.
  Table accumulated;
  bool accumulated_init = false;
  Table last_output;
  VDuration total = 0;
  int iteration = 0;

  // Position of the implicit ITERATION parameter in the sub-process, if any.
  int iter_param = -1;
  for (size_t i = 0; i < a.sub->input_params.size(); ++i) {
    if (EqualsIgnoreCase(a.sub->input_params[i].name, "ITERATION")) {
      iter_param = static_cast<int>(i);
    }
  }

  while (true) {
    ++iteration;
    if (iteration > a.max_iterations) {
      return Status::ExecutionError(
          "block " + a.name + " exceeded max_iterations (" +
          std::to_string(a.max_iterations) + ")");
    }
    std::vector<Value> sub_args = args;
    if (iter_param >= 0) sub_args[iter_param] = Value::Int(iteration);

    auto sub = std::make_shared<InstanceRunner>(
        engine_, a.sub, sub_args, invoker_, /*ckpt=*/nullptr,
        obs::TraceHandle{trace_.tracer, span, TraceTime(start) + total});
    FEDFLOW_ASSIGN_OR_RETURN(ProcessResult sub_result, sub->Run());
    total += sub_result.elapsed_us;
    result.steps.Merge(sub_result.breakdown);
    last_output = std::move(sub_result.output);
    {
      std::lock_guard<std::mutex> lock(mu_);
      Record(span, start + total, AuditEvent::kLoopIteration,
             static_cast<int>(idx), "iteration " + std::to_string(iteration));
    }

    // Evaluate the exit condition while last_output is still whole (the
    // resolver reads it); only then move the rows into the accumulator.
    bool done = a.exit_condition == nullptr;
    auto resolver = [&](const std::string& qualifier,
                        const std::string& name) -> Result<Value> {
      if (qualifier.empty() || EqualsIgnoreCase(qualifier, "LOOP")) {
        if (EqualsIgnoreCase(name, "ITERATION")) return Value::Int(iteration);
        if (EqualsIgnoreCase(name, "ROWCOUNT")) {
          return Value::BigInt(static_cast<int64_t>(last_output.num_rows()));
        }
        // Block input parameters by name.
        for (size_t i = 0; i < a.sub->input_params.size(); ++i) {
          if (EqualsIgnoreCase(a.sub->input_params[i].name, name)) {
            return sub_args[i];
          }
        }
      }
      // Sub-process output columns (first row), qualified by the sub-process
      // name or unqualified.
      if (qualifier.empty() || EqualsIgnoreCase(qualifier, a.sub->name)) {
        auto idx = last_output.schema().IndexOf(name);
        if (idx.has_value()) {
          if (last_output.num_rows() == 0) return Value::Null();
          return last_output.rows()[0][*idx];
        }
      }
      return Status::NotFound("exit-condition reference not found: " + name);
    };
    if (!done) {
      FEDFLOW_ASSIGN_OR_RETURN(done,
                               EvalConditionBool(*a.exit_condition, resolver));
    }
    if (a.accumulate == BlockAccumulate::kUnionAll) {
      if (!accumulated_init) {
        accumulated = Table(last_output.schema());
        accumulated_init = true;
      }
      FEDFLOW_RETURN_NOT_OK(accumulated.AppendTableRows(std::move(last_output)));
    }
    if (done) break;
  }

  if (a.accumulate == BlockAccumulate::kUnionAll) {
    result.output = std::move(accumulated);
  } else {
    result.output = std::move(last_output);
  }
  result.duration = total;
  return result;
}

Engine::Engine(EngineOptions options) : options_(options) {
  pool_ = std::make_unique<ThreadPool>(kWorkerThreads);
  helpers_.emplace("IDENTITY", MakeIdentityHelper());
  helpers_.emplace("CONCAT", MakeConcatHelper());
  helpers_.emplace("UNION_ALL", MakeUnionAllHelper());
  watcher_ = std::thread([this] { WatchOffers(); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(offers_mu_);
    stopping_ = true;
  }
  offers_cv_.notify_one();
  watcher_.join();
}

void Engine::PostOffer(std::weak_ptr<InstanceRunner> instance) {
  std::unique_lock<std::mutex> lock(offers_mu_);
  offers_.push_back(
      Offer{std::move(instance), std::chrono::steady_clock::now()});
  if (!watcher_parked_) return;
  watcher_parked_ = false;
  lock.unlock();
  offers_cv_.notify_one();
}

void Engine::WatchOffers() {
  std::vector<Offer> due;
  std::unique_lock<std::mutex> lock(offers_mu_);
  int idle_ticks = kIdleTicksBeforePark;  // an engine starts with no forks
  while (!stopping_) {
    if (offers_.empty() && idle_ticks >= kIdleTicksBeforePark) {
      watcher_parked_ = true;
      offers_cv_.wait(lock, [this] { return stopping_ || !offers_.empty(); });
      idle_ticks = 0;  // PostOffer cleared watcher_parked_
      continue;
    }
    offers_cv_.wait_for(lock, kHandOffDeadline, [this] { return stopping_; });
    idle_ticks = offers_.empty() ? idle_ticks + 1 : 0;
    // Offers are in posting order, so the overdue ones are a prefix.
    const auto cutoff = std::chrono::steady_clock::now() - kHandOffDeadline;
    auto fresh =
        std::find_if(offers_.begin(), offers_.end(),
                     [&](const Offer& o) { return o.posted > cutoff; });
    due.assign(std::make_move_iterator(offers_.begin()),
               std::make_move_iterator(fresh));
    offers_.erase(offers_.begin(), fresh);
    lock.unlock();
    for (Offer& offer : due) {
      std::shared_ptr<InstanceRunner> runner = offer.instance.lock();
      if (runner == nullptr || !runner->ClaimOffer()) continue;
      if (options_.metrics != nullptr) options_.metrics->Inc("wfms.handoffs");
      pool_->Submit([runner = std::move(runner)] { runner->Help(); });
    }
    due.clear();
    lock.lock();
  }
}

Status Engine::RegisterProcess(ProcessDefinition def) {
  FEDFLOW_RETURN_NOT_OK(ValidateProcess(def));
  std::string key = ToUpper(def.name);
  if (processes_.count(key) > 0) {
    return Status::AlreadyExists("process already registered: " + def.name);
  }
  processes_.emplace(std::move(key),
                     std::make_shared<const ProcessDefinition>(std::move(def)));
  return Status::OK();
}

Result<std::shared_ptr<const ProcessDefinition>> Engine::GetProcess(
    const std::string& name) const {
  auto it = processes_.find(ToUpper(name));
  if (it == processes_.end()) {
    return Status::NotFound("process not registered: " + name);
  }
  return it->second;
}

Status Engine::RegisterHelper(const std::string& name, HelperFn fn) {
  std::string key = ToUpper(name);
  if (helpers_.count(key) > 0) {
    return Status::AlreadyExists("helper already registered: " + name);
  }
  helpers_.emplace(std::move(key), std::move(fn));
  return Status::OK();
}

Result<ProcessResult> Engine::Run(const std::string& process,
                                  const std::vector<Value>& args,
                                  ProgramInvoker* invoker,
                                  const obs::TraceHandle& trace) {
  FEDFLOW_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessDefinition> def,
                           GetProcess(process));
  return std::make_shared<InstanceRunner>(this, std::move(def), args, invoker,
                                          nullptr, trace)->Run();
}

Result<ProcessResult> Engine::RunDefinition(const ProcessDefinition& def,
                                            const std::vector<Value>& args,
                                            ProgramInvoker* invoker,
                                            const obs::TraceHandle& trace) {
  FEDFLOW_RETURN_NOT_OK(ValidateProcess(def));
  // The run's audit trail names activities from its own copy of `def`.
  return std::make_shared<InstanceRunner>(
             this, std::make_shared<const ProcessDefinition>(def), args,
             invoker, nullptr, trace)->Run();
}

Result<ProcessResult> Engine::RunRecoverable(const std::string& process,
                                             const std::vector<Value>& args,
                                             ProgramInvoker* invoker,
                                             InstanceCheckpoint* ckpt,
                                             const obs::TraceHandle& trace) {
  if (ckpt == nullptr) {
    return Status::InvalidArgument("RunRecoverable requires a checkpoint");
  }
  FEDFLOW_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessDefinition> def,
                           GetProcess(process));
  if (ckpt->valid && !EqualsIgnoreCase(ckpt->process, def->name)) {
    return Status::InvalidArgument("checkpoint belongs to process " +
                                   ckpt->process + ", not " + def->name);
  }
  return std::make_shared<InstanceRunner>(this, std::move(def), args, invoker,
                                          ckpt, trace)->Run();
}

Result<ProcessResult> Engine::ResumeFrom(InstanceCheckpoint& ckpt,
                                         ProgramInvoker* invoker,
                                         const obs::TraceHandle& trace) {
  if (!ckpt.valid) {
    return Status::InvalidArgument(
        "checkpoint does not hold a failed instance");
  }
  return RunRecoverable(ckpt.process, ckpt.args, invoker, &ckpt, trace);
}

}  // namespace fedflow::wfms
