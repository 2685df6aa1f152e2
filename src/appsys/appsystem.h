// Application systems: packaged software whose embedded database is reachable
// ONLY through predefined functions (the paper's SAP-R/3-like premise). The
// base class enforces the encapsulation: the one public data operation is
// Call(function, args).
#ifndef FEDFLOW_APPSYS_APPSYSTEM_H_
#define FEDFLOW_APPSYS_APPSYSTEM_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/table.h"
#include "common/vclock.h"

namespace fedflow::appsys {

/// Sentinel for LocalFunction::max_rows: the function can return any number
/// of rows (set-returning lookups whose fan-out depends on the store).
inline constexpr int64_t kUnboundedRows = -1;

/// A predefined function exposed by an application system.
struct LocalFunction {
  std::string name;
  std::vector<Column> params;
  Schema result_schema;
  /// Server-side implementation over the system's private store.
  std::function<Result<Table>(const std::vector<Value>&)> body;
  /// Modeled server-side work per call (virtual microseconds).
  VDuration base_cost_us = 300;
  /// Additional work per returned row.
  VDuration per_row_cost_us = 5;
  /// Declared row contract: every successful call returns between min_rows
  /// and max_rows rows (max_rows == kUnboundedRows when unbounded). The
  /// static cardinality analysis folds these through federated plans.
  int64_t min_rows = 1;
  int64_t max_rows = 1;
  /// Whether the function writes the system's private store. A successful
  /// call of a mutating function bumps the system's data version, making
  /// every result-cache key derived from the old version unreachable.
  bool mutates = false;
};

/// Base class for application systems. Thread-safe for concurrent Call()s
/// (stores are immutable after construction unless a subclass registers a
/// mutating function, in which case it must guard its own store; statistics
/// and the data version are atomic or mutex-guarded).
class AppSystem {
 public:
  explicit AppSystem(std::string name) : name_(std::move(name)) {}
  virtual ~AppSystem() = default;

  AppSystem(const AppSystem&) = delete;
  AppSystem& operator=(const AppSystem&) = delete;

  const std::string& name() const { return name_; }

  /// Declared functions, sorted by name.
  std::vector<std::string> FunctionNames() const;

  /// Signature lookup; NotFound when the function does not exist.
  Result<const LocalFunction*> GetFunction(const std::string& name) const;

  /// Result of a timed call.
  struct CallResult {
    Table table;
    VDuration cost_us = 0;
  };

  /// Invokes a predefined function: validates arity, coerces argument types,
  /// runs the body, computes the modeled cost. The ONLY data access path.
  Result<CallResult> Call(const std::string& function,
                          const std::vector<Value>& args) const;

  /// Total number of Call() invocations (fault-injected ones included).
  int64_t call_count() const { return call_count_.load(); }

  /// Monotonic version of the system's private store. Starts at 0 and bumps
  /// on every successful call of a mutating local function. Result-cache
  /// keys embed this stamp, so a write invalidates every memoized result
  /// derived from the old store state.
  int64_t data_version() const { return data_version_.load(); }

  /// Per-function Call() counts, keyed by upper-cased function name
  /// (fault-injected and unknown-function calls included). Snapshot; the
  /// equivalence tests diff these across architectures to prove that two
  /// lowerings of the same plan issue the same multiset of local calls.
  std::map<std::string, int64_t> FunctionCallCounts() const;

  /// Forces subsequent calls of `function` to fail with `status` (error
  /// handling tests). An OK status clears the fault.
  void InjectFault(const std::string& function, Status status);

  /// Deterministic fingerprint of the system's observable store state.
  /// Read-only systems (whose stores are immutable after construction) keep
  /// the empty default; systems with mutating functions override it so the
  /// saga oracles can compare pre- and post-abort snapshots.
  virtual std::string StateFingerprint() const { return ""; }

 protected:
  /// Registration for subclasses during construction.
  Status Register(LocalFunction fn);

 private:
  std::string name_;
  std::map<std::string, LocalFunction> functions_;
  std::map<std::string, Status> faults_;
  mutable std::atomic<int64_t> call_count_{0};
  /// Mutable because Call() is const even for mutating functions (the store
  /// a subclass mutates is its own; the registry hands out const access).
  mutable std::atomic<int64_t> data_version_{0};
  /// Guards fn_call_counts_; Call() runs concurrently under the WfMS pool.
  mutable std::mutex stats_mutex_;
  mutable std::map<std::string, int64_t> fn_call_counts_;
};

}  // namespace fedflow::appsys

#endif  // FEDFLOW_APPSYS_APPSYSTEM_H_
