// Audit trail: the engine's record of navigation events, in virtual time.
#ifndef FEDFLOW_WFMS_AUDIT_H_
#define FEDFLOW_WFMS_AUDIT_H_

#include <string>
#include <vector>

#include "common/vclock.h"

namespace fedflow::wfms {

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
  /// trail regardless of pool scheduling.
  int activity_index = -1;
};

/// Ordered audit trail of one process instance.
class AuditTrail {
 public:
  void Record(VTime time, AuditEvent event, std::string activity,
              std::string detail = "", int activity_index = -1);

  const std::vector<AuditEntry>& entries() const { return entries_; }

  /// Entries for one activity, in order.
  std::vector<AuditEntry> ForActivity(const std::string& activity) const;

  /// Sorts entries by (time, activity index): fork branches on pool threads
  /// can record concurrently-finishing events out of order, and same-time
  /// ties resolve by the activity's definition position (process-started
  /// first, process-finished last), matching the engine's error ranking.
  void Normalize();

  /// Multi-line human-readable rendering.
  std::string ToString() const;

 private:
  std::vector<AuditEntry> entries_;
};

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_AUDIT_H_
