// The traced run's per-layer numbers. They come from three sources: the
// server's own counters and tracer spans over the traced phase, layer probes
// that replay sampled calls of that phase through each module's public entry
// point (timed from outside), and contention probes that time the pool and
// the metrics registry from 1 and from N threads.
#ifndef FEDBENCH_PROBES_H_
#define FEDBENCH_PROBES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace fedbench {

/// One reported metric. `base` states what a median or ratio is taken over.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

/// The six obs::Layer values, in enum order.
inline constexpr size_t kNumLayers = 6;

/// Server counters the per-call ratios are deltas of.
struct Counters {
  int64_t wfms_activities = 0;
  int64_t rows_emitted = 0;
  int64_t batches = 0;
  int64_t columnar_batches = 0;
  /// Local-function calls over all application systems (the sum of their
  /// FunctionCallCounts()).
  int64_t local_calls = 0;
};

Counters ReadCounters(IntegrationServer& server);

/// What the traced run measured before the probes run.
struct TracedRun {
  PhaseResult untraced;
  PhaseResult traced;
  /// Server counters around the traced phase.
  std::array<Counters, kNumArchs> before;
  std::array<Counters, kNumArchs> after;
  /// spans[arch][layer]: the server tracers' spans over the traced phase.
  std::array<std::array<int64_t, kNumLayers>, kNumArchs> spans{};
  int64_t compiles_in_run = 0;
  std::vector<int64_t> register_ns;
};

/// Counts every server's tracer spans by layer into `run->spans`, then
/// drops them.
void TallySpans(Bench& bench, TracedRun* run);

/// Every per-layer metric. Runs the layer probes (each recorded as a
/// BenchSpan under the call it replays) and the contention probes.
std::vector<Metric> LayerMetrics(Bench& bench, const TracedRun& run);

}  // namespace fedbench

#endif  // FEDBENCH_PROBES_H_
