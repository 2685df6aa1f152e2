// MetricsRegistry: named counters, gauges and virtual-time histograms for
// the integration stack — per-function call counts, retry attempts, warmth
// transitions, workflow checkpoint/resume counts, pool occupancy and queue
// depth. All values are derived from deterministic virtual time or
// deterministic event counts, so a given workload always produces the same
// registry contents.
#ifndef FEDFLOW_OBS_METRICS_H_
#define FEDFLOW_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/row_source.h"
#include "common/vclock.h"

namespace fedflow::obs {

/// A virtual-time histogram: count/sum/min/max plus exponential buckets
/// (powers of two, in microseconds). Deterministic for deterministic input.
class Histogram {
 public:
  void Observe(VDuration value_us);

  uint64_t count() const { return count_; }
  VDuration sum() const { return sum_; }
  /// Minimum observed value (0 when empty).
  VDuration min() const { return count_ == 0 ? 0 : min_; }
  /// Maximum observed value (0 when empty).
  VDuration max() const { return count_ == 0 ? 0 : max_; }

  /// (upper_bound_us, count) pairs for non-empty power-of-two buckets, in
  /// increasing bound order. The final catch-all bucket has bound -1.
  std::vector<std::pair<VDuration, uint64_t>> Buckets() const;

 private:
  uint64_t count_ = 0;
  VDuration sum_ = 0;
  VDuration min_ = 0;
  VDuration max_ = 0;
  // counts_[i] counts observations with value <= 2^i µs; index kOverflow
  // catches the rest.
  static constexpr int kNumBuckets = 40;
  uint64_t counts_[kNumBuckets + 1] = {};
};

/// An exact latency summary: keeps every observation and answers nearest-rank
/// percentile queries (p50/p99/p999). Exact rather than sketched so the load
/// bench golden is reproducible to the microsecond; the load harness observes
/// at most a few thousand flows, so storing all samples is cheap.
class LatencySummary {
 public:
  void Observe(VDuration value_us);

  uint64_t count() const { return samples_.size(); }
  VDuration sum() const { return sum_; }
  VDuration min() const;
  VDuration max() const;

  /// Nearest-rank percentile: the smallest observation such that at least
  /// `permille`/1000 of all observations are <= it. `Percentile(500)` is the
  /// median, `Percentile(999)` the p999. Returns 0 when empty.
  VDuration Percentile(int permille) const;

 private:
  void SortIfNeeded() const;

  mutable std::vector<VDuration> samples_;
  mutable bool sorted_ = true;
  VDuration sum_ = 0;
};

/// Thread-safe registry of counters, gauges and histograms, keyed by name.
/// Metric names use dotted paths ("call.count.GetNoSuppComp",
/// "warmth.to_hot", "pool.controller.in_use").
class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (creating it at zero on first use).
  void Inc(const std::string& name, uint64_t delta = 1);

  /// Current value of a counter (0 when it was never incremented).
  uint64_t counter(const std::string& name) const;

  /// Sets gauge `name` to `value`. Unlike counters, gauges move both ways
  /// (queue depth, pool occupancy).
  void SetGauge(const std::string& name, int64_t value);

  /// Like SetGauge, but only raises the gauge — for high-water marks such as
  /// "load.queue.max_depth".
  void SetGaugeMax(const std::string& name, int64_t value);

  /// Current value of a gauge (0 when it was never set).
  int64_t gauge(const std::string& name) const;

  /// Records one observation into histogram `name`.
  void Observe(const std::string& name, VDuration value_us);

  /// Copy of histogram `name` (empty histogram when never observed).
  Histogram histogram(const std::string& name) const;

  /// All counters in name order.
  std::map<std::string, uint64_t> Counters() const;

  /// All gauges in name order.
  std::map<std::string, int64_t> Gauges() const;

  /// Human-readable dump: counters, gauges, then histogram summaries, each
  /// in name order.
  std::string ToString() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Escapes one dot-delimited metric-name segment so that embedded free-form
/// identifiers (tenant names, function names) cannot collide with the
/// delimiter: "%" -> "%25", "." -> "%2E". A segment without either character
/// — every identifier the repo's own scenarios use — round-trips unchanged,
/// so established metric names are unaffected.
std::string EscapeMetricSegment(const std::string& segment);

/// The registry name a tenant-scoped metric lands under:
/// "tenant.<tenant>.<name>" with the tenant segment escaped (see
/// EscapeMetricSegment; tenants "a.b" and "a" with a metric "b..." no longer
/// collide). Shared with fedtrace/fedload output so tenant breakdowns read
/// uniformly.
std::string TenantMetricName(const std::string& tenant,
                             const std::string& name);

/// A tenant-scoped view over a MetricsRegistry: Inc/Observe prefix every
/// name with "tenant.<tenant>.". A view over a null registry drops writes,
/// so call sites need no null checks.
class TenantMetrics {
 public:
  TenantMetrics(MetricsRegistry* registry, std::string tenant)
      : registry_(registry), tenant_(std::move(tenant)) {}

  void Inc(const std::string& name, uint64_t delta = 1) {
    if (registry_ != nullptr) {
      registry_->Inc(TenantMetricName(tenant_, name), delta);
    }
  }
  void Observe(const std::string& name, VDuration value_us) {
    if (registry_ != nullptr) {
      registry_->Observe(TenantMetricName(tenant_, name), value_us);
    }
  }

  const std::string& tenant() const { return tenant_; }

 private:
  MetricsRegistry* registry_;
  std::string tenant_;
};

/// Publishes one pipeline's execution statistics into `registry` (no-op on
/// null): the cumulative counters "pipeline.rows_emitted",
/// "pipeline.batches_emitted" and "pipeline.columnar_batches" accumulate
/// across calls; the gauge "pipeline.peak_resident_rows" is a high-water
/// mark across calls. The set of names is fixed, whatever the SQL.
void ExportPipelineStats(const PipelineStats& stats,
                         MetricsRegistry* registry);

}  // namespace fedflow::obs

#endif  // FEDFLOW_OBS_METRICS_H_
