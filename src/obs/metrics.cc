#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

namespace fedflow::obs {

void Histogram::Observe(VDuration value_us) {
  if (count_ == 0 || value_us < min_) min_ = value_us;
  if (count_ == 0 || value_us > max_) max_ = value_us;
  ++count_;
  sum_ += value_us;
  int bucket = 0;
  while (bucket < kNumBuckets && value_us > (VDuration{1} << bucket)) {
    ++bucket;
  }
  ++counts_[bucket];
}

std::vector<std::pair<VDuration, uint64_t>> Histogram::Buckets() const {
  std::vector<std::pair<VDuration, uint64_t>> out;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] != 0) out.emplace_back(VDuration{1} << i, counts_[i]);
  }
  if (counts_[kNumBuckets] != 0) out.emplace_back(-1, counts_[kNumBuckets]);
  return out;
}

void LatencySummary::Observe(VDuration value_us) {
  samples_.push_back(value_us);
  sorted_ = samples_.size() <= 1;
  sum_ += value_us;
}

VDuration LatencySummary::min() const {
  if (samples_.empty()) return 0;
  SortIfNeeded();
  return samples_.front();
}

VDuration LatencySummary::max() const {
  if (samples_.empty()) return 0;
  SortIfNeeded();
  return samples_.back();
}

VDuration LatencySummary::Percentile(int permille) const {
  if (samples_.empty()) return 0;
  SortIfNeeded();
  if (permille <= 0) return samples_.front();
  if (permille >= 1000) return samples_.back();
  // Nearest-rank: rank = ceil(permille/1000 * N), 1-based.
  const uint64_t n = samples_.size();
  uint64_t rank = (static_cast<uint64_t>(permille) * n + 999) / 1000;
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

void LatencySummary::SortIfNeeded() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

void MetricsRegistry::Inc(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::SetGauge(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::SetGaugeMax(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

int64_t MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

void MetricsRegistry::Observe(const std::string& name, VDuration value_us) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].Observe(value_us);
}

Histogram MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

std::map<std::string, uint64_t> MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, int64_t> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    os << name << " = " << value << " (gauge)\n";
  }
  for (const auto& [name, hist] : histograms_) {
    os << name << ": count=" << hist.count() << " sum=" << hist.sum()
       << "us min=" << hist.min() << "us max=" << hist.max() << "us\n";
  }
  return os.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string EscapeMetricSegment(const std::string& segment) {
  std::string out;
  out.reserve(segment.size());
  for (char c : segment) {
    if (c == '%') {
      out.append("%25");
    } else if (c == '.') {
      out.append("%2E");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string TenantMetricName(const std::string& tenant,
                             const std::string& name) {
  std::string out;
  out.reserve(7 + tenant.size() + 1 + name.size());
  out.append("tenant.").append(EscapeMetricSegment(tenant)).append(".").append(
      name);
  return out;
}

void ExportPipelineStats(const PipelineStats& stats,
                         MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->Inc("pipeline.rows_emitted", stats.rows_emitted);
  registry->Inc("pipeline.batches_emitted", stats.batches_emitted);
  registry->Inc("pipeline.columnar_batches", stats.columnar_batches);
  registry->SetGaugeMax("pipeline.peak_resident_rows",
                        static_cast<int64_t>(stats.peak_resident_rows));
}

}  // namespace fedflow::obs
