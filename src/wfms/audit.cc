#include "wfms/audit.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/strings.h"
#include "wfms/model.h"

namespace fedflow::wfms {

const char* AuditEventName(AuditEvent event) {
  switch (event) {
    case AuditEvent::kProcessStarted:
      return "process started";
    case AuditEvent::kProcessFinished:
      return "process finished";
    case AuditEvent::kActivityStarted:
      return "activity started";
    case AuditEvent::kActivityFinished:
      return "activity finished";
    case AuditEvent::kActivityDead:
      return "activity dead";
    case AuditEvent::kActivityFailed:
      return "activity failed";
    case AuditEvent::kLoopIteration:
      return "loop iteration";
    case AuditEvent::kActivityCheckpointed:
      return "activity checkpointed";
    case AuditEvent::kProcessResumed:
      return "process resumed";
  }
  return "unknown";
}

std::vector<AuditEntry> AuditTrail::entries() const {
  std::vector<AuditEntry> out;
  out.reserve(records_.size());
  for (const Recorded& r : records_) {
    AuditEntry& e = out.emplace_back(
        AuditEntry{r.time, r.event, "", r.detail, r.activity});
    if (process_ == nullptr) continue;
    if (r.activity >= 0) e.activity = process_->activities[r.activity].name;
    if (r.activity < 0 && e.detail.empty()) e.detail = process_->name;
  }
  auto key = [](const AuditEntry& e) {
    const int rank = e.event == AuditEvent::kProcessStarted    ? 0
                     : e.event == AuditEvent::kProcessFinished ? 2
                                                               : 1;
    return std::tuple(e.time, rank, e.activity_index);
  };
  std::stable_sort(out.begin(), out.end(),
                   [&](const AuditEntry& a, const AuditEntry& b) {
                     return key(a) < key(b);
                   });
  return out;
}

std::vector<AuditEntry> AuditTrail::ForActivity(
    const std::string& activity) const {
  std::vector<AuditEntry> out = entries();
  std::erase_if(out, [&](const AuditEntry& e) {
    return !EqualsIgnoreCase(e.activity, activity);
  });
  return out;
}

std::string AuditTrail::ToString() const {
  std::ostringstream os;
  for (const AuditEntry& e : entries()) {
    os << "[" << e.time << " us] " << AuditEventName(e.event);
    if (!e.activity.empty()) os << " " << e.activity;
    if (!e.detail.empty()) os << " (" << e.detail << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace fedflow::wfms
