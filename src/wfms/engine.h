// The workflow engine: registers process templates, instantiates them, and
// navigates instances on the calling thread — fork branches included, with
// a branch handed to a small thread pool only once it has waited past a
// deadline for a busy thread — evaluating transition conditions with
// dead-path elimination and do-until blocks, while computing deterministic
// virtual-time token timestamps (an activity starts at the max of its
// incoming tokens and ends at start + work).
#ifndef FEDFLOW_WFMS_ENGINE_H_
#define FEDFLOW_WFMS_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/vclock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wfms/audit.h"
#include "wfms/model.h"
#include "wfms/program.h"

namespace fedflow::wfms {

/// Step names used in engine-produced time breakdowns (matching the paper's
/// Fig. 6 categories).
namespace steps {
inline constexpr char kProcessActivities[] = "Process activities";
inline constexpr char kWorkflowNavigation[] = "Workflow";
}  // namespace steps

/// Engine configuration. Costs are virtual microseconds; callers derive them
/// from the simulation latency model.
struct EngineOptions {
  /// Navigation overhead the engine charges per navigated activity
  /// (scheduling, connector evaluation) — attributed to "Workflow".
  VDuration navigation_cost_us = 0;
  /// Input/output container handling per activity — attributed to
  /// "Process activities" (the paper: activities have the additional task of
  /// handling the containers).
  VDuration container_cost_us = 0;
  /// Work charged for a helper activity's execution.
  VDuration helper_cost_us = 0;
  /// Optional metrics sink (not owned): activity executions, persisted
  /// checkpoints, resumes and pool hand-offs are counted under "wfms.*".
  obs::MetricsRegistry* metrics = nullptr;
};

/// Result of one process instance.
struct ProcessResult {
  Table output;
  /// Virtual end-to-end time of the instance. Under parallel forks this is
  /// the max over branch completion times, not the sum of work.
  VDuration elapsed_us = 0;
  /// Work attributed per step category (sums can exceed elapsed_us when
  /// branches overlap).
  TimeBreakdown breakdown;
  AuditTrail audit;
};

/// Persistent state of a process instance for forward recovery: the output
/// containers and audit trail as of the last completed activity, exactly what
/// the paper credits the WfMS with keeping on persistent storage. Written by
/// RunRecoverable after every activity completion; consumed by ResumeFrom.
/// Each persisted output is the same immutable table the instance's container
/// holds (one shared handle, no copy), and a resume re-seeds the containers
/// with these handles.
struct InstanceCheckpoint {
  /// True while a failed instance is waiting to be resumed. A successful run
  /// invalidates the checkpoint.
  bool valid = false;
  std::string process;
  std::vector<Value> args;

  /// One persisted activity completion (output container + finish time).
  /// A null `output` is rejected on resume with InvalidArgument.
  struct CompletedActivity {
    std::string activity;
    std::shared_ptr<const Table> output;
    VTime end_us = 0;
  };
  std::vector<CompletedActivity> completed;

  /// Audit trail up to (and including) the failure.
  AuditTrail audit;
  /// Virtual time at which the failed attempt stopped navigating.
  VTime failed_at_us = 0;
  /// Work the failed attempt performed (new work only, not restored work),
  /// so callers can still charge partial progress to the virtual clock.
  TimeBreakdown attempt_work;
};

class InstanceRunner;

/// A production-workflow engine (MQSeries Workflow stand-in).
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validates and stores a process template.
  Status RegisterProcess(ProcessDefinition def);

  /// The registered template (shared with its instances' audit trails);
  /// NotFound when absent.
  Result<std::shared_ptr<const ProcessDefinition>> GetProcess(
      const std::string& name) const;

  /// Registers a helper function under `name`.
  Status RegisterHelper(const std::string& name, HelperFn fn);

  /// Instantiates and runs a registered process. `args` bind positionally to
  /// the template's input parameters. `invoker` performs program activities
  /// (may be null for processes without program activities). `trace`
  /// (optional) hangs a process span — with one child span per executed
  /// activity, each audit event also a span event — under its parent;
  /// token times are offset by the handle's base.
  Result<ProcessResult> Run(const std::string& process,
                            const std::vector<Value>& args,
                            ProgramInvoker* invoker,
                            const obs::TraceHandle& trace = {});

  /// Runs an unregistered definition (validates first). For tests and
  /// one-shot compositions.
  Result<ProcessResult> RunDefinition(const ProcessDefinition& def,
                                      const std::vector<Value>& args,
                                      ProgramInvoker* invoker,
                                      const obs::TraceHandle& trace = {});

  /// Like Run, but with forward recovery through `ckpt` (must not be null):
  /// after every completed activity the instance's container/audit state is
  /// persisted into the checkpoint. On failure `ckpt->valid` becomes true and
  /// a subsequent RunRecoverable with the same checkpoint resumes from the
  /// last completed activity — finished activities are restored, not
  /// re-executed; only the failed activity and its not-yet-run successors
  /// navigate again. On success the checkpoint is invalidated. A resumed
  /// result's breakdown holds the new work only, while elapsed_us spans the
  /// whole instance timeline.
  Result<ProcessResult> RunRecoverable(const std::string& process,
                                       const std::vector<Value>& args,
                                       ProgramInvoker* invoker,
                                       InstanceCheckpoint* ckpt,
                                       const obs::TraceHandle& trace = {});

  /// Resumes the failed instance persisted in `ckpt` (whose audit trail and
  /// containers name the completed activities) with the checkpointed
  /// arguments. InvalidArgument when the checkpoint holds no failed instance.
  Result<ProcessResult> ResumeFrom(InstanceCheckpoint& ckpt,
                                   ProgramInvoker* invoker,
                                   const obs::TraceHandle& trace = {});

  const EngineOptions& options() const { return options_; }

 private:
  friend class InstanceRunner;

  /// An instance with ready work that no thread took, as of `posted`.
  struct Offer {
    std::weak_ptr<InstanceRunner> instance;
    std::chrono::steady_clock::time_point posted;
  };

  /// Queues an offer for the watcher: a timestamp and an append under
  /// offers_mu_, waking the watcher only when it is parked.
  void PostOffer(std::weak_ptr<InstanceRunner> instance);
  /// The watcher thread: once per deadline, hands each offer older than the
  /// deadline to the pool if its instance still has ready work; parks after
  /// a stretch of ticks without offers.
  void WatchOffers();

  EngineOptions options_;
  std::map<std::string, std::shared_ptr<const ProcessDefinition>> processes_;
  std::map<std::string, HelperFn> helpers_;

  std::mutex offers_mu_;
  std::condition_variable offers_cv_;  ///< wakes a parked or stopping watcher
  std::vector<Offer> offers_;          ///< in posting order
  bool watcher_parked_ = false;
  bool stopping_ = false;
  /// Runs fork branches whose offer overstayed the deadline: the only work
  /// that leaves a navigating thread. Its workers post offers, so it is
  /// destroyed (and joined) before the offer list.
  std::unique_ptr<ThreadPool> pool_;
  std::thread watcher_;  ///< stopped and joined before pool_ is destroyed
};

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_ENGINE_H_
