// The engine's interface to the outside world: program activities invoke
// local functions of application systems through a ProgramInvoker (the
// paper's program-execution agents). The federation layer supplies an
// implementation that performs the real call and models its costs.
#ifndef FEDFLOW_WFMS_PROGRAM_H_
#define FEDFLOW_WFMS_PROGRAM_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/table.h"
#include "common/vclock.h"
#include "obs/trace.h"

namespace fedflow::wfms {

/// Outcome of one program invocation.
struct InvokeResult {
  Table output;
  /// Virtual work time of the invocation, used for token timestamps.
  VDuration duration = 0;
  /// Step-attributed portions of `duration` (JVM start, marshalling, ...).
  TimeBreakdown steps;
};

/// Invokes local functions of application systems on behalf of the engine.
class ProgramInvoker {
 public:
  virtual ~ProgramInvoker() = default;

  /// Calls `function` of `system` with scalar `args`. `trace` carries the
  /// program activity's span as parent (and the virtual-time base of the
  /// invocation), so an implementation can hang local-function spans under
  /// the right activity; an inactive handle records nothing.
  virtual Result<InvokeResult> Invoke(const std::string& system,
                                      const std::string& function,
                                      const std::vector<Value>& args,
                                      const obs::TraceHandle& trace) = 0;
};

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_PROGRAM_H_
