// The saga transaction subsystem: write-path federated functions with
// compensation-based backward recovery and exactly-once forward semantics.
//
// A federated function becomes a *saga* when its spec declares mutating call
// nodes paired with compensation functions (federation::SpecCompensation).
// Execution then follows the classic saga protocol adapted to the paper's
// architectures:
//
//   * Forward path, exactly-once: every mutating local call carries an
//     idempotency key (saga id + node id) marshalled with the RMI request.
//     The store-side dedup ledger records the acknowledgement of the first
//     successful apply; a retried attempt (WfMS checkpoint resume or
//     restart-everything I-UDTF) that presents a known key replays the
//     recorded acknowledgement at txn_dedup_us instead of re-applying.
//   * Durable saga log (virtual durability): BEGIN / APPLY / DEDUP /
//     COMPENSATE / COMMIT / ABORT records survive the failed flow, mirroring
//     what the paper credits the WfMS with keeping on persistent storage.
//     Forward recovery itself rides the WfMS engine's InstanceCheckpoint.
//   * Backward recovery: when a step exhausts its retry budget or deadline,
//     the coordinator runs the applied steps' compensations in reverse apply
//     order. Compensations are themselves mutating local calls, so each one
//     bumps the store's data_version — the result cache can never serve
//     state derived from an aborted saga.
#ifndef FEDFLOW_TXN_SAGA_H_
#define FEDFLOW_TXN_SAGA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "appsys/registry.h"
#include "common/result.h"
#include "common/table.h"
#include "common/vclock.h"
#include "federation/spec.h"
#include "obs/metrics.h"
#include "sim/latency.h"

namespace fedflow::txn {

/// One registered mutating step of a saga-enabled federated function.
struct SagaStep {
  std::string node;          ///< spec/plan call id (e.g. "RS")
  std::string system;        ///< application system of the write
  std::string function;      ///< mutating local function (e.g. ReserveStock)
  std::string compensation;  ///< undo function on the same system
  /// Undo arguments; resolved when the write applies, against the federated
  /// parameters, captured node outputs, and the write's own output.
  std::vector<federation::SpecArg> undo_args;
};

/// Registration-time saga view of one federated function. Step resolution at
/// the couplings is by (system, function) — FF454 guarantees uniqueness —
/// so no engine or RMI API had to grow a node-id channel.
struct SagaSpecInfo {
  std::string function;        ///< federated function name
  std::vector<Column> params;  ///< federated parameters, declaration order
  std::vector<SagaStep> writes;  ///< in dependency (execution) order
  /// Upper "SYSTEM.FUNCTION" -> index into `writes`.
  std::map<std::string, size_t> write_index;
  /// Upper "SYSTEM.FUNCTION" -> upper node id, for non-write nodes whose
  /// output feeds some compensation argument (capture sources).
  std::map<std::string, std::string> captures;
};

/// One record of the (virtually) durable saga log.
struct SagaLogRecord {
  enum class Kind { kBegin, kApply, kDedup, kCompensate, kCommit, kAbort };
  int64_t seq = 0;      ///< global monotonic sequence (durability order)
  int64_t saga_id = 0;
  Kind kind = Kind::kBegin;
  std::string node;     ///< step node for apply/dedup/compensate; else empty
};

/// Outcome of one finished saga, queryable per federated function.
struct SagaOutcome {
  std::string function;
  int64_t saga_id = 0;
  bool aborted = false;
  int64_t steps_applied = 0;       ///< writes applied (each exactly once)
  int64_t dedup_hits = 0;          ///< retried writes served from the ledger
  int64_t compensations_run = 0;   ///< backward-recovery undo calls
  int64_t compensation_failures = 0;
  /// Virtual time the failed forward attempt(s) burned before the abort.
  VDuration failed_elapsed_us = 0;
  /// Modeled virtual-time cost of backward recovery: per compensation the
  /// RMI legs, the undo function's own work, and txn_compensation_us of
  /// coordinator overhead.
  VDuration abort_cost_us = 0;
  std::string error;  ///< the status message that triggered the abort
};

class SagaRuntime;

/// Per-invocation saga execution state, created by SagaRuntime::Begin and
/// threaded to the couplings via sim::FlowState::saga. Thread-safe: under
/// the WfMS architecture, a handed-off fork branch runs on the engine's pool.
class SagaExec {
 public:
  /// The write step registered for (system, function); nullptr when the call
  /// is not a saga write (then it executes with plain read semantics).
  const SagaStep* WriteStepFor(const std::string& system,
                               const std::string& function) const;

  /// The capture-source node id for (system, function); empty when the
  /// call's output feeds no compensation argument.
  std::string CaptureNodeFor(const std::string& system,
                             const std::string& function) const;

  /// The idempotency key marshalled with `step`'s RMI request: stable across
  /// retries of the same invocation, unique across invocations.
  std::string IdempotencyKey(const SagaStep& step) const;

  /// The recorded acknowledgement of an already-applied write, or nullopt on
  /// the first attempt. A hit means the previous attempt applied the effect
  /// but its response was lost — the caller must NOT re-apply.
  std::optional<Table> DedupLookup(const SagaStep& step);

  /// Records a freshly applied write: the acknowledgement enters the dedup
  /// ledger under the idempotency key, an APPLY record enters the saga log,
  /// and the undo arguments are resolved and snapshotted for a later abort.
  /// Internal error when an undo argument cannot be resolved (a capture
  /// source did not run or returned no row) — registration-time FF455
  /// ordering checks make that unreachable for gated specs.
  Status RecordApplied(const SagaStep& step, const Table& output);

  /// Records a capture source's output for later undo-arg resolution.
  void RecordOutput(const std::string& node, const Table& output);

  int64_t saga_id() const { return saga_id_; }
  const SagaSpecInfo& info() const { return *info_; }
  int64_t steps_applied() const;
  int64_t dedup_hits() const;

 private:
  friend class SagaRuntime;

  struct AppliedStep {
    std::string node;
    std::string system;
    std::string compensation;
    std::vector<Value> undo_args;  ///< resolved at apply time
  };

  SagaExec(const SagaSpecInfo* info, SagaRuntime* runtime, int64_t saga_id,
           const std::vector<Value>& args);

  Result<Value> ResolveUndoArg(const federation::SpecArg& arg,
                               const SagaStep& step, const Table& output) const;

  const SagaSpecInfo* info_;
  SagaRuntime* runtime_;
  int64_t saga_id_;
  std::map<std::string, Value> params_;  ///< upper param name -> bound value

  mutable std::mutex mu_;
  std::map<std::string, Table> node_outputs_;  ///< upper node id -> output
  std::vector<AppliedStep> applied_;           ///< in apply order
  int64_t dedup_hits_ = 0;
  bool finished_ = false;
};

/// The saga coordinator of one integration server: registered saga specs,
/// the per-store dedup ledger, the durable (virtual-time) saga log, and the
/// backward-recovery path. Thread-safe.
class SagaRuntime {
 public:
  /// Wires the deployment. `systems` must outlive the runtime; `metrics`
  /// (optional) counts saga.begin/commit/abort/dedup/compensation.
  void Configure(const appsys::AppSystemRegistry* systems,
                 sim::LatencyModel model, obs::MetricsRegistry* metrics);

  /// Registers the saga view of `spec`. `order` lists the spec's call
  /// indices in execution (dependency) order, so writes are chained the way
  /// the lowering runs them. No-op (OK) when the spec has no mutating calls.
  Status Register(const federation::FederatedFunctionSpec& spec,
                  const std::vector<size_t>& order);

  /// The saga view of federated function `name`; nullptr for read-only
  /// functions (the common case).
  const SagaSpecInfo* Find(const std::string& name) const;

  /// Starts a saga: assigns the saga id, binds the federated parameters for
  /// undo resolution, writes the BEGIN log record.
  std::unique_ptr<SagaExec> Begin(const SagaSpecInfo& info,
                                  const std::vector<Value>& args);

  /// Commits: drops the saga's ledger entries, writes COMMIT, records the
  /// outcome.
  void Commit(SagaExec& exec);

  /// Backward recovery: runs the applied steps' compensations in reverse
  /// apply order (each a mutating local call, so data versions bump), drops
  /// the saga's ledger entries, writes ABORT, and returns the outcome.
  SagaOutcome Abort(SagaExec& exec, VDuration failed_elapsed_us,
                    const Status& error);

  /// Last finished outcome of federated function `name` (case-insensitive).
  std::optional<SagaOutcome> LastOutcome(const std::string& name) const;

  /// Snapshot of the saga log, in durability order.
  std::vector<SagaLogRecord> LogSnapshot() const;

  /// Entries currently resident in the dedup ledger (all stores).
  int64_t ledger_size() const;

  const sim::LatencyModel& model() const { return model_; }

 private:
  friend class SagaExec;

  void Append(int64_t saga_id, SagaLogRecord::Kind kind,
              const std::string& node);
  std::optional<Table> LedgerLookup(const std::string& store,
                                    const std::string& key);
  void LedgerRecord(const std::string& store, const std::string& key,
                    const Table& ack);
  void LedgerDropSaga(int64_t saga_id);

  const appsys::AppSystemRegistry* systems_ = nullptr;
  sim::LatencyModel model_;
  obs::MetricsRegistry* metrics_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, SagaSpecInfo> specs_;  ///< upper fed name -> info
  std::map<std::string, std::map<std::string, Table>> ledger_;  ///< per store
  std::vector<SagaLogRecord> log_;
  std::map<std::string, SagaOutcome> outcomes_;  ///< upper fed name -> last
  int64_t next_saga_id_ = 1;
  int64_t next_log_seq_ = 1;
};

}  // namespace fedflow::txn

#endif  // FEDFLOW_TXN_SAGA_H_
