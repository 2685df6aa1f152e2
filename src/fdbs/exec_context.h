// Per-statement execution context threaded through the FDBS and into UDTFs.
// It is the only holder of the statement's clock and trace session; what a
// coupling needs beyond them (tenant, leased controller and ledger, slot,
// saga) comes from the flow it points at.
#ifndef FEDFLOW_FDBS_EXEC_CONTEXT_H_
#define FEDFLOW_FDBS_EXEC_CONTEXT_H_

#include "common/row_source.h"
#include "common/vclock.h"

namespace fedflow::obs {
class TraceSession;
class MetricsRegistry;
}  // namespace fedflow::obs

namespace fedflow::sim {
struct FlowState;
}  // namespace fedflow::sim

namespace fedflow::cache {
class ResultCache;
}  // namespace fedflow::cache

namespace fedflow::fdbs {

class Database;

/// Carried through planning and execution. The clock is optional: functional
/// tests run without one; the performance experiments install a SimClock so
/// every boundary crossing charges its modeled cost.
struct ExecContext {
  /// Virtual clock for cost accounting; may be null.
  SimClock* clock = nullptr;

  /// The database executing the statement (lets SQL-bodied functions run
  /// their body and procedural UDTFs issue sub-queries).
  Database* db = nullptr;

  /// UDTF nesting depth; guards against runaway recursion through
  /// function bodies referencing themselves.
  int depth = 0;

  /// Apply WHERE conjuncts as early as their referenced FROM items have
  /// produced their columns (prunes intermediate results and lateral
  /// function invocations). Safe for deterministic functions; disable to
  /// compare plans.
  bool predicate_pushdown = true;

  /// Rows per batch pulled through the execution pipeline (the FROM chain,
  /// streaming UDTF invocations, chunked RMI returns). 0 disables batching:
  /// every operator processes its whole input in one batch, reproducing the
  /// fully materializing execution of the pre-streaming engine (used by the
  /// residency bench as the comparison baseline).
  size_t batch_size = kDefaultRowBatchSize;

  /// Optional residency instrumentation for the execution pipeline; may be
  /// null (the default — tracking costs a few counter updates per batch).
  PipelineStats* pipeline_stats = nullptr;

  /// Optional tracing session (src/obs). When set and its tracer is enabled,
  /// the executor and the couplings open spans and the clock's charges are
  /// mirrored into the current span. Null (or a disabled tracer) keeps every
  /// instrumentation site a no-op.
  obs::TraceSession* trace = nullptr;

  /// Optional metrics sink for call counts, retries, and warmth transitions;
  /// may be null.
  obs::MetricsRegistry* metrics = nullptr;

  /// The flow the statement runs in (sim/flow_state.h): the tenant, the
  /// leased controller plus its warmth ledger, the slot and the saga. Every
  /// coupling requires one and fails the call with a Status when it is null;
  /// statements that reach no coupling (plain SQL, fdbs-level functions) run
  /// without.
  sim::FlowState* flow = nullptr;

  /// Result cache of the owning server (may be null). Only consulted when
  /// use_result_cache is also set — caching is opt-in per statement, like
  /// predicate_pushdown, so the default path stays bit-identical.
  cache::ResultCache* result_cache = nullptr;

  /// Per-statement opt-in for result-cache lookups/inserts.
  bool use_result_cache = false;

  /// Run the execution pipeline over column batches where the operators
  /// support it (vectorized WHERE conjuncts, the columnar lateral splice,
  /// columnar drain). Purely a wall-clock optimization: results, row order,
  /// batch boundaries, pipeline statistics, and virtual-time charges are
  /// identical to the row-at-a-time path. Off = always row-at-a-time (the
  /// differential harnesses compare the two).
  bool columnar = true;

  /// The effective batch size (batch_size == 0 means "unbounded").
  size_t EffectiveBatchSize() const {
    return batch_size == 0 ? static_cast<size_t>(-1) : batch_size;
  }

  /// Maximum allowed UDTF nesting depth.
  static constexpr int kMaxDepth = 32;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_EXEC_CONTEXT_H_
