// Audit trail: the engine's record of navigation events, in virtual time.
#ifndef FEDFLOW_WFMS_AUDIT_H_
#define FEDFLOW_WFMS_AUDIT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/vclock.h"

namespace fedflow::wfms {

struct ProcessDefinition;

/// Navigation event types.
enum class AuditEvent {
  kProcessStarted,
  kProcessFinished,
  kActivityStarted,
  kActivityFinished,
  kActivityDead,     ///< removed by dead-path elimination
  kActivityFailed,
  kLoopIteration,    ///< a block activity began another iteration
  kActivityCheckpointed,  ///< output persisted for forward recovery
  kProcessResumed,        ///< instance restarted from a checkpoint
};

/// Stable name of an audit event ("activity started", ...).
const char* AuditEventName(AuditEvent event);

/// One audit record.
struct AuditEntry {
  VTime time = 0;          ///< virtual time of the event
  AuditEvent event = AuditEvent::kProcessStarted;
  std::string activity;    ///< empty for process-level events
  std::string detail;      ///< free text (error message, iteration no., ...)
  /// Position of the activity in the process definition; -1 for
  /// process-level events. Ties on `time` order by this index — the same
  /// rule that ranks errors, so parallel forks produce one deterministic
  /// trail regardless of which thread ran which branch.
  int activity_index = -1;
};

/// Audit trail of one process instance. Recording keeps time, event and
/// activity index, plus a detail only where it is not a name; readers get
/// the names from the process definition, and the order, when they read.
class AuditTrail {
 public:
  AuditTrail() = default;
  explicit AuditTrail(std::shared_ptr<const ProcessDefinition> process)
      : process_(std::move(process)) {}

  /// `activity` is -1 for a process-level event, whose detail defaults to
  /// the process name.
  void Record(VTime time, AuditEvent event, int activity = -1,
              std::string detail = {}) {
    records_.push_back(Recorded{time, event, activity, std::move(detail)});
  }
  void Reserve(size_t events) { records_.reserve(events); }

  /// Named entries sorted by (time, activity index), process-started first
  /// and process-finished last on a tie, recording order otherwise.
  std::vector<AuditEntry> entries() const;

  /// Entries for one activity, in order.
  std::vector<AuditEntry> ForActivity(const std::string& activity) const;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

 private:
  struct Recorded {
    VTime time = 0;
    AuditEvent event = AuditEvent::kProcessStarted;
    int activity = -1;
    std::string detail;
  };

  std::shared_ptr<const ProcessDefinition> process_;
  std::vector<Recorded> records_;
};

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_AUDIT_H_
