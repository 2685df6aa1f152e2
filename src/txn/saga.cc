#include "txn/saga.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/codec.h"
#include "common/strings.h"

namespace fedflow::txn {

namespace {

std::string StepKey(const std::string& system, const std::string& function) {
  return ToUpper(system) + "." + ToUpper(function);
}

}  // namespace

// ---------------------------------------------------------------------------
// SagaExec
// ---------------------------------------------------------------------------

SagaExec::SagaExec(const SagaSpecInfo* info, SagaRuntime* runtime,
                   int64_t saga_id, const std::vector<Value>& args)
    : info_(info), runtime_(runtime), saga_id_(saga_id) {
  const size_t n = std::min(info_->params.size(), args.size());
  for (size_t i = 0; i < n; ++i) {
    params_[ToUpper(info_->params[i].name)] = args[i];
  }
}

const SagaStep* SagaExec::WriteStepFor(const std::string& system,
                                       const std::string& function) const {
  auto it = info_->write_index.find(StepKey(system, function));
  if (it == info_->write_index.end()) return nullptr;
  return &info_->writes[it->second];
}

std::string SagaExec::CaptureNodeFor(const std::string& system,
                                     const std::string& function) const {
  auto it = info_->captures.find(StepKey(system, function));
  return it == info_->captures.end() ? std::string() : it->second;
}

std::string SagaExec::IdempotencyKey(const SagaStep& step) const {
  return "S" + std::to_string(saga_id_) + "#" + ToUpper(step.node);
}

std::optional<Table> SagaExec::DedupLookup(const SagaStep& step) {
  std::optional<Table> hit =
      runtime_->LedgerLookup(saga_id_, ToUpper(step.node));
  if (hit.has_value()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++dedup_hits_;
    }
    runtime_->Append(saga_id_, SagaLogRecord::Kind::kDedup, step.node);
    if (runtime_->metrics_ != nullptr) runtime_->metrics_->Inc("saga.dedup");
  }
  return hit;
}

Result<Value> SagaExec::ResolveUndoArg(const federation::SpecArg& arg,
                                       const SagaStep& step,
                                       const Table& output) const {
  using Kind = federation::SpecArg::Kind;
  switch (arg.kind) {
    case Kind::kConstant:
      return arg.constant;
    case Kind::kParam: {
      auto it = params_.find(ToUpper(arg.param));
      if (it == params_.end()) {
        return Status::Internal("saga " + info_->function +
                                ": undo argument references unbound parameter " +
                                arg.param);
      }
      return it->second;
    }
    case Kind::kNodeColumn: {
      const Table* source = nullptr;
      if (EqualsIgnoreCase(arg.node, step.node)) {
        source = &output;
      } else {
        auto it = node_outputs_.find(ToUpper(arg.node));
        if (it != node_outputs_.end()) source = &it->second;
      }
      if (source == nullptr) {
        return Status::Internal("saga " + info_->function + ": undo argument of " +
                                step.node + " needs output of node " + arg.node +
                                ", which has not run");
      }
      FEDFLOW_ASSIGN_OR_RETURN(size_t col,
                               source->schema().FindColumn(arg.column));
      if (source->empty()) {
        return Status::Internal("saga " + info_->function + ": undo argument of " +
                                step.node + " reads column " + arg.column +
                                " of node " + arg.node +
                                ", whose output has no rows");
      }
      return source->At(0, col);
    }
  }
  return Status::Internal("saga: unknown undo argument kind");
}

Status SagaExec::RecordApplied(const SagaStep& step, const Table& output) {
  AppliedStep applied;
  applied.node = step.node;
  applied.system = step.system;
  applied.compensation = step.compensation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const federation::SpecArg& arg : step.undo_args) {
      FEDFLOW_ASSIGN_OR_RETURN(Value v, ResolveUndoArg(arg, step, output));
      applied.undo_args.push_back(std::move(v));
    }
    applied_.push_back(std::move(applied));
    node_outputs_[ToUpper(step.node)] = output;
  }
  runtime_->LedgerRecord(saga_id_, ToUpper(step.node), output);
  runtime_->Append(saga_id_, SagaLogRecord::Kind::kApply, step.node);
  if (runtime_->metrics_ != nullptr) runtime_->metrics_->Inc("saga.apply");
  return Status::OK();
}

void SagaExec::RecordOutput(const std::string& node, const Table& output) {
  std::lock_guard<std::mutex> lock(mu_);
  node_outputs_[ToUpper(node)] = output;
}

int64_t SagaExec::steps_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(applied_.size());
}

int64_t SagaExec::dedup_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dedup_hits_;
}

// ---------------------------------------------------------------------------
// SagaRuntime
// ---------------------------------------------------------------------------

void SagaRuntime::Configure(const appsys::AppSystemRegistry* systems,
                            sim::LatencyModel model,
                            obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  systems_ = systems;
  model_ = model;
  metrics_ = metrics;
}

Status SagaRuntime::Register(const federation::FederatedFunctionSpec& spec,
                             const std::vector<size_t>& order) {
  SagaSpecInfo info;
  info.function = spec.name;
  info.params = spec.params;

  // Writes in execution order, so Abort's reverse walk undoes them the way
  // the lowering applied them.
  for (size_t idx : order) {
    if (idx >= spec.calls.size()) {
      return Status::Internal("saga registration: order index out of range");
    }
    const federation::SpecCall& call = spec.calls[idx];
    const federation::SpecCompensation* comp = spec.FindCompensation(call.id);
    if (comp == nullptr) continue;
    SagaStep step;
    step.node = call.id;
    step.system = call.system;
    step.function = call.function;
    step.compensation = comp->function;
    step.undo_args = comp->args;
    const std::string key = StepKey(step.system, step.function);
    if (info.write_index.count(key) > 0) {
      return Status::InvalidArgument(
          "saga " + spec.name + ": ambiguous write step " + key +
          " (two mutating nodes call the same local function)");
    }
    info.write_index[key] = info.writes.size();
    info.writes.push_back(std::move(step));
  }
  if (info.writes.empty()) return Status::OK();  // read-only function

  // Capture sources: non-write nodes whose output feeds some undo argument.
  for (const SagaStep& step : info.writes) {
    for (const federation::SpecArg& arg : step.undo_args) {
      if (arg.kind != federation::SpecArg::Kind::kNodeColumn) continue;
      if (EqualsIgnoreCase(arg.node, step.node)) continue;
      FEDFLOW_ASSIGN_OR_RETURN(const federation::SpecCall* src,
                               spec.FindCall(arg.node));
      const std::string key = StepKey(src->system, src->function);
      if (info.write_index.count(key) > 0) continue;  // write outputs recorded
      auto it = info.captures.find(key);
      if (it != info.captures.end() &&
          !EqualsIgnoreCase(it->second, src->id)) {
        return Status::InvalidArgument(
            "saga " + spec.name + ": ambiguous capture source " + key +
            " (two nodes call the same local function)");
      }
      info.captures[key] = ToUpper(src->id);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  specs_[ToUpper(spec.name)] = std::move(info);
  return Status::OK();
}

const SagaSpecInfo* SagaRuntime::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = specs_.find(ToUpper(name));
  return it == specs_.end() ? nullptr : &it->second;
}

std::unique_ptr<SagaExec> SagaRuntime::Begin(const SagaSpecInfo& info,
                                             const std::vector<Value>& args) {
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_saga_id_++;
    log_.push_back(SagaLogRecord{next_log_seq_++, id,
                                 SagaLogRecord::Kind::kBegin, ""});
  }
  if (metrics_ != nullptr) metrics_->Inc("saga.begin");
  return std::unique_ptr<SagaExec>(new SagaExec(&info, this, id, args));
}

void SagaRuntime::Commit(SagaExec& exec) {
  SagaOutcome outcome;
  outcome.function = exec.info().function;
  outcome.saga_id = exec.saga_id();
  outcome.aborted = false;
  outcome.steps_applied = exec.steps_applied();
  outcome.dedup_hits = exec.dedup_hits();
  Finish(SagaLogRecord::Kind::kCommit, outcome);
  {
    std::lock_guard<std::mutex> lock(exec.mu_);
    exec.finished_ = true;
  }
  if (metrics_ != nullptr) metrics_->Inc("saga.commit");
}

SagaOutcome SagaRuntime::Abort(SagaExec& exec, VDuration failed_elapsed_us,
                               const Status& error) {
  SagaOutcome outcome;
  outcome.function = exec.info().function;
  outcome.saga_id = exec.saga_id();
  outcome.aborted = true;
  outcome.steps_applied = exec.steps_applied();
  outcome.dedup_hits = exec.dedup_hits();
  outcome.failed_elapsed_us = failed_elapsed_us;
  outcome.error = error.ToString();

  // Backward recovery: undo the applied writes in reverse apply order. Each
  // compensation is a mutating local call, so the store's data version bumps
  // and no result-cache entry derived from the aborted state stays servable.
  std::vector<SagaExec::AppliedStep> applied;
  {
    std::lock_guard<std::mutex> lock(exec.mu_);
    applied = exec.applied_;
    exec.finished_ = true;
  }
  for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
    Append(exec.saga_id(), SagaLogRecord::Kind::kCompensate, it->node);
    if (metrics_ != nullptr) metrics_->Inc("saga.compensation");
    Result<appsys::AppSystem*> sys =
        systems_ == nullptr
            ? Result<appsys::AppSystem*>(
                  Status::Internal("saga runtime not configured"))
            : systems_->Get(it->system);
    if (!sys.ok()) {
      ++outcome.compensation_failures;
      continue;
    }
    ByteWriter request;
    request.PutRow(it->undo_args);
    Result<appsys::AppSystem::CallResult> call =
        (*sys)->Call(it->compensation, it->undo_args);
    if (!call.ok()) {
      ++outcome.compensation_failures;
      continue;
    }
    ++outcome.compensations_run;
    outcome.abort_cost_us += model_.rmi_call_base_us +
                             model_.MarshalCost(request.size()) +
                             call->cost_us + model_.rmi_return_base_us +
                             model_.txn_compensation_us;
  }

  Finish(SagaLogRecord::Kind::kAbort, outcome);
  if (metrics_ != nullptr) metrics_->Inc("saga.abort");
  return outcome;
}

std::optional<SagaOutcome> SagaRuntime::LastOutcome(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = outcomes_.find(ToUpper(name));
  if (it == outcomes_.end()) return std::nullopt;
  return it->second;
}

std::vector<SagaLogRecord> SagaRuntime::LogSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

int64_t SagaRuntime::ledger_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [saga_id, entries] : ledger_) {
    n += static_cast<int64_t>(entries.size());
  }
  return n;
}

void SagaRuntime::Append(int64_t saga_id, SagaLogRecord::Kind kind,
                         const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(SagaLogRecord{next_log_seq_++, saga_id, kind, ToUpper(node)});
}

std::optional<Table> SagaRuntime::LedgerLookup(int64_t saga_id,
                                               const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = ledger_.find(saga_id);
  if (sit == ledger_.end()) return std::nullopt;
  auto nit = sit->second.find(node);
  if (nit == sit->second.end()) return std::nullopt;
  return nit->second;
}

void SagaRuntime::LedgerRecord(int64_t saga_id, const std::string& node,
                               const Table& ack) {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_[saga_id][node] = ack;
}

void SagaRuntime::Finish(SagaLogRecord::Kind kind, SagaOutcome& outcome) {
  const int64_t id = outcome.saga_id;
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(SagaLogRecord{next_log_seq_++, id, kind, ""});
  ledger_.erase(id);
  // Stable: the finished saga's records and those in flight keep their order.
  auto done = std::stable_partition(
      log_.begin(), log_.end(),
      [id](const SagaLogRecord& r) { return r.saga_id != id; });
  outcome.log.assign(std::make_move_iterator(done),
                     std::make_move_iterator(log_.end()));
  log_.erase(done, log_.end());
  outcomes_[ToUpper(outcome.function)] = outcome;
}

}  // namespace fedflow::txn
