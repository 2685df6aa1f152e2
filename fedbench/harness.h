// The measured part of fedbench: the three integration servers of one
// workload, the closed-loop clients that drive them through public APIs, and
// the checks every answer goes through.
#ifndef FEDBENCH_HARNESS_H_
#define FEDBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/table.h"
#include "federation/integration_server.h"
#include "workload.h"

namespace fedbench {

using fedflow::federation::IntegrationServer;
using Clock = std::chrono::steady_clock;

/// Calls per window of the single-client loop: enough that a window's p99
/// has ten samples beyond it.
inline constexpr size_t kWindowCalls = 1000;

/// Steady-clock nanoseconds since the first call in the process.
int64_t NowNs();

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Wall ns of one run of a fixed kernel that shares no code with the server:
/// string building, std::map updates and a sort, the kind of work a call
/// does. Run between calls on the caller's CPU, it measures how fast the
/// host runs at that moment.
int64_t CalibrationNs();

/// The CalibrationNs() of the reference host. Every wall-clock figure is
/// scaled to it window by window (see Window::calibration_ns).
inline constexpr double kReferenceCalibrationNs = 100000;

/// The three integration servers of one workload, one per coupling, each
/// over its own copy of one generated scenario (index = position in kArchs).
struct Deployment {
  fedflow::appsys::Scenario scenario;
  std::array<std::unique_ptr<IntegrationServer>, kNumArchs> servers;
};

/// Wall times of one BuildDeployment.
struct SetupTiming {
  int64_t total_ns = 0;
  /// One entry per RegisterFederatedFunction call.
  std::vector<int64_t> register_ns;
};

/// Everything setup_s covers: generates the scenario, builds the three
/// servers (pool size = clients, caching per workload) and registers the
/// eight Fig. 5 specs, plus ProcureComponent when the workload writes. Each
/// registration runs the spec lint, plan compile, plan lint, dataflow gate
/// and saga registration.
fedflow::Result<Deployment> BuildDeployment(const WorkloadConfig& config,
                                            SetupTiming* timing = nullptr);

/// "SELECT * FROM TABLE (f(args)) AS R": the statement CallFederated issues.
std::string CallSql(const Call& call);

/// One span of the benchmark's own trace: an end-to-end call, or a layer
/// probe that replays one (then `parent` is the call's id).
struct BenchSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;  ///< federated function, or "probe:<entry point>"
  std::string arch;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t rows = 0;
  std::string status;  ///< "OK", a status code name, or "WRONG"
  size_t call = 0;     ///< index into Bench::recorded_calls()
};

/// What one client saw on one architecture during a phase.
struct ClientStats {
  int64_t calls = 0;
  int64_t failed = 0;  ///< non-OK status, kUnavailable included
  int64_t wrong = 0;   ///< OK status with a wrong answer or virtual cost
};

/// One stretch of a phase on one architecture: kWindowCalls consecutive
/// calls of the single client, or one slice of all clients.
struct Window {
  std::vector<int64_t> latency_ns;
  /// Completed calls per wall second of call time, summed over clients.
  double calls_per_s = 0;
  /// Median CalibrationNs() taken during the window.
  double calibration_ns = kReferenceCalibrationNs;

  /// Scales a wall time measured in this window to the reference host.
  double ToReference() const { return kReferenceCalibrationNs / calibration_ns; }
};

/// Outcome of one timed phase.
struct PhaseResult {
  /// stats[arch][client]
  std::array<std::vector<ClientStats>, kNumArchs> stats;
  /// windows[arch], in run order.
  std::array<std::vector<Window>, kNumArchs> windows;

  /// The median over windows of calls_per_s. A host that stalls for part of
  /// the run moves a few windows, not the median.
  double CallsPerSecond(size_t arch) const;
  /// The median over windows of the windows' nearest-rank `q` percentile,
  /// in microseconds. With fewer than three windows, the percentile of all
  /// latencies. Sets `*samples` to the latencies per window it used.
  double PercentileUs(size_t arch, double q, size_t* samples) const;
  int64_t Calls(size_t arch) const;
  /// Calls that failed or answered wrongly, over all architectures.
  int64_t Bad() const;
  int64_t Attempted() const;
};

/// Drives one deployment: warm-up, timed phases, post-run checks.
class Bench {
 public:
  Bench(const WorkloadConfig& config, Deployment deployment, uint64_t seed);

  /// tenant_mix: computes the uncached answer of every read the workload can
  /// send on a separate caching-off server, the reference every read is
  /// checked against. The other workloads check the three architectures
  /// against each other instead.
  fedflow::Status BuildReferences();

  /// Untimed: calls every read function once per architecture, then runs
  /// the regular loop for `seconds`, so the timed phase sees only hot
  /// functions, created pool slots and warm allocators. Fails on the first
  /// failed or wrong call.
  fedflow::Status WarmUp(double seconds);

  /// One closed-loop phase of `seconds`. It stops early once every client
  /// has made `max_calls_per_client` calls on each architecture (0 = no
  /// cap). With `traced` every server's tracer is on for the phase and every
  /// call is kept as a BenchSpan.
  PhaseResult RunPhase(double seconds, int64_t max_calls_per_client,
                       bool traced);

  /// Check (c): after the run each store holds exactly the sum of the
  /// committed ProcureComponent writes. One line per mismatch.
  std::vector<std::string> CheckWrites();

  const WorkloadConfig& config() const { return config_; }
  IntegrationServer& server(size_t arch) { return *deployment_.servers[arch]; }
  const std::string& tenant(size_t client) const { return tenants_[client]; }

  /// Committed writes over all architectures, warm-up included.
  int64_t committed_writes() const;

  const std::vector<BenchSpan>& spans() const { return spans_; }
  const std::vector<Call>& recorded_calls() const { return recorded_calls_; }
  /// Appends a span (a fresh id is assigned) and returns its id.
  uint64_t AddSpan(BenchSpan span);

 private:
  struct Outcome {
    bool ok = false;
    std::string status = "OK";
    IntegrationServer::TimedResult result;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  Outcome Invoke(size_t arch, size_t client, const Call& call);
  /// Single client: each generated call goes to all three architectures in
  /// turn (rotating which goes first), and the answers are judged together.
  void RunInterleaved(Clock::time_point deadline, int64_t max_calls,
                      bool record, PhaseResult* phase);
  /// Several clients: the architectures take turns in short slices; within
  /// a slice every client runs its own closed loop on one architecture.
  void RunSlices(Clock::time_point deadline, int64_t max_calls, bool record,
                 PhaseResult* phase);
  void RunClient(size_t arch, size_t client, Clock::time_point end,
                 int64_t max_calls, bool record, ClientStats* stats,
                 Window* window);
  /// Checks (a) and (b) for one interleaved round.
  void JudgeRound(const Call& call, std::array<Outcome, kNumArchs>& out,
                  bool record,
                  std::array<std::vector<int64_t>, kNumArchs>* window,
                  PhaseResult* phase);
  void Account(const Outcome& out, bool wrong, ClientStats* stats,
               std::vector<int64_t>* latency_ns) const;

  WorkloadConfig config_;
  Deployment deployment_;
  std::vector<std::string> tenants_;
  /// generators_[arch][client]; the interleaved loop uses [0][0] only.
  std::array<std::vector<CallGenerator>, kNumArchs> generators_;
  /// tenant_mix: Key() -> uncached answer.
  std::unordered_map<std::string, fedflow::Table> reference_;
  /// Check (b): Key() -> virtual elapsed_us of the hot call, per arch.
  std::array<std::unordered_map<std::string, int64_t>, kNumArchs> elapsed_;

  mutable std::mutex mu_;  // guards everything below
  std::array<std::vector<Call>, kNumArchs> committed_;
  std::vector<BenchSpan> spans_;
  std::vector<Call> recorded_calls_;
};

}  // namespace fedbench

#endif  // FEDBENCH_HARNESS_H_
