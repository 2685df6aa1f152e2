// fedbench: measures the fedflow integration server in wall time on one
// workload, under all three couplings, through public APIs only.
//
//   fedbench --workload hot_calls --seed 1 --seconds 10 --trace 0
//            [--trace-out FILE]
//
// --trace 0 runs untraced and reports the end-to-end metrics. --trace 1 runs
// half the time untraced and half traced and reports the per-layer metrics;
// with --trace-out it also writes the benchmark's own spans (one per traced
// call, one per layer probe) as JSON lines. A human-readable summary comes
// first; the last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when every
// correctness check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "plan/optimizer.h"
#include "probes.h"

namespace fedbench {
namespace {

// setup_s is the median over this many full deployments.
constexpr int kSetupRepeats = 25;
constexpr double kWarmUpSeconds = 0.5;
// Calls per architecture the traced phase makes at most, split evenly over
// the clients, so the span memory of the server tracers stays bounded.
constexpr int64_t kTracedCallCap = 4000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Restricts the process to the highest-numbered CPU it may run on (CPU 0
// tends to take the interrupts).
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> EndToEnd(const WorkloadConfig& config,
                             const PhaseResult& phase, double setup_s,
                             size_t setup_runs) {
  std::vector<Metric> out;
  for (size_t a = 0; a < kNumArchs; ++a) {
    out.push_back({std::string("calls_per_s.") + ArchKey(kArchs[a]),
                   phase.CallsPerSecond(a), "1/s",
                   "median over " + std::to_string(phase.windows[a].size()) +
                       " windows; " + std::to_string(phase.Calls(a)) +
                       " calls, " + std::to_string(config.clients) +
                       " client(s), summed over clients"});
  }
  using Percentile = std::pair<const char*, double>;
  for (const auto& [prefix, q] :
       {Percentile{"call_p50_us.", 0.50}, Percentile{"call_p99_us.", 0.99}}) {
    for (size_t a = 0; a < kNumArchs; ++a) {
      size_t samples = 0;
      const double us = phase.PercentileUs(a, q, &samples);
      const size_t windows = phase.windows[a].size();
      out.push_back({std::string(prefix) + ArchKey(kArchs[a]), us, "us",
                     windows < 3 ? "n=" + std::to_string(samples) + " calls"
                                 : "median over " + std::to_string(windows) +
                                       " windows of n~" +
                                       std::to_string(samples) + " calls"});
    }
  }
  const int64_t attempted = phase.Attempted();
  out.push_back({"correct_frac",
                 attempted > 0 ? static_cast<double>(attempted - phase.Bad()) /
                                     static_cast<double>(attempted)
                               : 0,
                 "frac",
                 "(attempted - failed - wrong) / attempted = 1 - failed_frac, "
                 "attempted=" + std::to_string(attempted)});
  out.push_back({"setup_s", setup_s, "s",
                 "median of " + std::to_string(setup_runs) + " deployments"});
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss"});
  std::vector<double> cal;
  for (const Window& w : phase.windows[0]) cal.push_back(w.calibration_ns);
  std::printf("  host calibration: median %.0f ns per kernel run (reference "
              "%.0f ns); wall times above are scaled to the reference\n",
              Median(cal), kReferenceCalibrationNs);
  return out;
}

void PrintSummary(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                JsonString(metrics[i].name).c_str(), v,
                JsonString(metrics[i].unit).c_str());
  }
  std::printf("}}\n");
}

bool WriteTrace(const std::string& path, const std::string& env,
                const Bench& bench) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"env\": %s}\n", env.c_str());
  for (const BenchSpan& s : bench.spans()) {
    std::fprintf(f,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"name\": %s, \"arch\": %s, \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"rows\": %" PRId64
                 ", \"status\": %s, \"call\": %s}\n",
                 s.id, s.parent, JsonString(s.name).c_str(),
                 JsonString(s.arch).c_str(), s.start_ns, s.end_ns, s.rows,
                 JsonString(s.status).c_str(),
                 JsonString(bench.recorded_calls()[s.call].Key()).c_str());
  }
  return std::fclose(f) == 0;
}

int Run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::optional<WorkloadConfig> config = FindWorkload(args.workload, nproc);
  if (!config) {
    std::fprintf(stderr, "fedbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string build_type = FEDBENCH_BUILD_TYPE;
  const std::string env =
      "{\"workload\": " + JsonString(config->name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"clients\": " + std::to_string(config->clients) +
      ", \"build_type\": " + JsonString(build_type) + "}";
  std::printf("fedbench env %s\n", env.c_str());
  if (build_type != "Release") {
    std::printf("WARNING: %s build; wall-clock numbers are only comparable "
                "between Release builds\n", build_type.c_str());
  }

  // A single client runs on one CPU, together with every thread the servers
  // start (they inherit the mask). Unpinned, each hand-off to a WfMS worker
  // migrates the client thread between cores; on a shared VM that made the
  // medians of all three couplings depend on the host's scheduler (up to 2x,
  // and 3x on WfMS means) rather than on the code.
  if (config->clients == 1) PinToOneCpu();

  // setup_s: median over several full deployments, only one alive at a time.
  std::vector<double> setup_s;
  std::vector<int64_t> register_ns;
  std::optional<Deployment> deployment;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.reset();
    // Scaled to the reference host like every other wall time.
    const double calibration = static_cast<double>(CalibrationNs());
    SetupTiming timing;
    fedflow::Result<Deployment> built = BuildDeployment(*config, &timing);
    if (!built.ok()) {
      std::fprintf(stderr, "fedbench: setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(timing.total_ns) / 1e9 *
                      kReferenceCalibrationNs / calibration);
    register_ns.insert(register_ns.end(), timing.register_ns.begin(),
                       timing.register_ns.end());
    deployment.emplace(std::move(built).ValueUnsafe());
  }
  Bench bench(*config, std::move(*deployment), args.seed);
  deployment.reset();

  fedflow::Status ready = bench.BuildReferences();
  if (ready.ok()) ready = bench.WarmUp(kWarmUpSeconds);
  if (!ready.ok()) {
    std::printf("FAILED: %s\n", ready.ToString().c_str());
    PrintResult(false, 1, 1, {});
    return 1;
  }

  const int64_t compiles_before = fedflow::plan::BuildPlanInvocations();
  TracedRun run;
  PhaseResult timed;
  if (args.trace) {
    run.untraced = bench.RunPhase(args.seconds / 2, 0, false);
    for (size_t a = 0; a < kNumArchs; ++a) {
      run.before[a] = ReadCounters(bench.server(a));
    }
    run.traced = bench.RunPhase(
        args.seconds / 2,
        kTracedCallCap / static_cast<int64_t>(config->clients), true);
    for (size_t a = 0; a < kNumArchs; ++a) {
      run.after[a] = ReadCounters(bench.server(a));
    }
    TallySpans(bench, &run);
  } else {
    timed = bench.RunPhase(args.seconds, 0, false);
  }
  run.compiles_in_run =
      fedflow::plan::BuildPlanInvocations() - compiles_before;
  run.register_ns = std::move(register_ns);

  std::vector<std::string> problems = bench.CheckWrites();
  if (run.compiles_in_run != 0) {
    problems.push_back(std::to_string(run.compiles_in_run) +
                       " plan compiles during the timed phases");
  }
  const int64_t attempted =
      args.trace ? run.untraced.Attempted() + run.traced.Attempted()
                 : timed.Attempted();
  const int64_t bad = args.trace ? run.untraced.Bad() + run.traced.Bad()
                                 : timed.Bad();
  const std::vector<Metric> metrics =
      args.trace ? LayerMetrics(bench, run)
                 : EndToEnd(*config, timed, Median(setup_s), setup_s.size());

  PrintSummary(metrics);
  std::printf("  failed_frac = %" PRId64 " / %" PRId64 " calls\n", bad,
              attempted);
  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());
  if (args.trace && !args.trace_out.empty()) {
    if (WriteTrace(args.trace_out, env, bench)) {
      std::printf("  trace: %zu spans written to %s\n", bench.spans().size(),
                  args.trace_out.c_str());
    } else {
      problems.push_back("cannot write " + args.trace_out);
    }
  }
  const bool correct = bad == 0 && problems.empty() && attempted > 0;
  PrintResult(correct, std::max<int64_t>(attempted, 1),
              bad + static_cast<int64_t>(problems.size()), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) {
  fedbench::Args args;
  if (!fedbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fedbench --workload hot_calls|bulk_rows|tenant_mix "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return fedbench::Run(args);
}
