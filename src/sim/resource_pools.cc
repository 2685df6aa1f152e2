#include "sim/resource_pools.h"

#include <utility>

namespace fedflow::sim {

namespace {

// Effective warm target: option 0 means "keep everything".
size_t EffectiveWarmTarget(const WarmPoolOptions& options) {
  if (options.warm_target == 0) return options.max_size;
  return options.warm_target < options.max_size ? options.warm_target
                                                : options.max_size;
}

}  // namespace

WarmPool::WarmPool(std::string name, WarmPoolOptions options)
    : name_(std::move(name)), options_(options) {
  std::lock_guard<std::mutex> lock(mu_);
  // Eager creation of the pinned slot is plumbing, not a checkout, so it is
  // not counted in stats_.created.
  pinned_slot_ = CreateSlotLocked();
  slots_[pinned_slot_].pinned = true;
}

Result<WarmPool::Checkout> WarmPool::Acquire(const std::string& tenant,
                                             const std::string& affinity) {
  std::lock_guard<std::mutex> lock(mu_);

  if (options_.per_tenant_quota > 0) {
    auto it = tenant_in_use_.find(tenant);
    if (it != tenant_in_use_.end() && it->second >= options_.per_tenant_quota) {
      ++stats_.quota_rejections;
      if (metrics_ != nullptr) {
        metrics_->Inc("pool." + name_ + ".quota_rejected");
      }
      return Status::Unavailable("pool '" + name_ + "': tenant '" + tenant +
                                 "' exhausted its quota of " +
                                 std::to_string(options_.per_tenant_quota));
    }
  }

  // Prefer an idle slot already hot for the affinity function (MRU first so
  // repeated single-flow use keeps hitting the same slot), else the MRU idle
  // slot outright — most recent use is the best warmth proxy we have.
  uint64_t best_hot = 0, best_idle = 0;
  uint64_t best_hot_seq = 0, best_idle_seq = 0;
  for (const auto& [id, slot] : slots_) {
    if (slot.busy) continue;
    if (best_idle == 0 || slot.last_use_seq >= best_idle_seq) {
      best_idle = id;
      best_idle_seq = slot.last_use_seq;
    }
    if (!affinity.empty() &&
        slot.ledger.QueryWarmth(affinity) == SystemState::Warmth::kHot &&
        (best_hot == 0 || slot.last_use_seq >= best_hot_seq)) {
      best_hot = id;
      best_hot_seq = slot.last_use_seq;
    }
  }

  Checkout out;
  uint64_t chosen = best_hot != 0 ? best_hot : best_idle;
  if (chosen == 0) {
    if (slots_.size() >= options_.max_size) {
      ++stats_.exhausted_rejections;
      if (metrics_ != nullptr) {
        metrics_->Inc("pool." + name_ + ".exhausted");
      }
      return Status::Unavailable(
          "pool '" + name_ + "' exhausted (" +
          std::to_string(slots_.size()) + "/" +
          std::to_string(options_.max_size) + " slots busy)");
    }
    chosen = CreateSlotLocked();
    out.created = true;
    ++stats_.created;
    if (metrics_ != nullptr) metrics_->Inc("pool." + name_ + ".created");
  }

  Slot& slot = slots_[chosen];
  out.slot = chosen;
  out.ledger = &slot.ledger;
  out.warmth = out.created ? SystemState::Warmth::kCold
                           : slot.ledger.QueryWarmth(affinity);
  slot.busy = true;
  slot.tenant = tenant;
  slot.last_use_seq = ++use_seq_;
  ++tenant_in_use_[tenant];

  switch (out.warmth) {
    case SystemState::Warmth::kCold:
      ++stats_.cold_checkouts;
      break;
    case SystemState::Warmth::kWarm:
      ++stats_.warm_checkouts;
      break;
    case SystemState::Warmth::kHot:
      ++stats_.hot_checkouts;
      break;
  }
  if (metrics_ != nullptr) {
    metrics_->Inc("pool." + name_ + ".checkout." + WarmthName(out.warmth));
    UpdateGaugesLocked();
  }
  return out;
}

std::vector<uint64_t> WarmPool::Release(uint64_t slot_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> evicted;
  auto it = slots_.find(slot_id);
  if (it == slots_.end() || !it->second.busy) return evicted;

  Slot& slot = it->second;
  slot.busy = false;
  slot.last_use_seq = ++use_seq_;
  auto tenant_it = tenant_in_use_.find(slot.tenant);
  if (tenant_it != tenant_in_use_.end() && tenant_it->second > 0) {
    if (--tenant_it->second == 0) tenant_in_use_.erase(tenant_it);
  }
  slot.tenant.clear();
  ++stats_.returns;

  // Trim idle slots beyond the warm target, coldest (LRU) first.
  const size_t warm_target = EffectiveWarmTarget(options_);
  while (IdleCountLocked() > warm_target) {
    uint64_t lru = 0;
    uint64_t lru_seq = 0;
    for (const auto& [id, s] : slots_) {
      if (s.busy || s.pinned) continue;
      if (lru == 0 || s.last_use_seq < lru_seq) {
        lru = id;
        lru_seq = s.last_use_seq;
      }
    }
    if (lru == 0) break;  // only pinned/busy slots remain
    slots_.erase(lru);
    evicted.push_back(lru);
    ++stats_.evicted;
    if (metrics_ != nullptr) metrics_->Inc("pool." + name_ + ".evicted");
  }

  if (metrics_ != nullptr) UpdateGaugesLocked();
  return evicted;
}

SystemState* WarmPool::ledger(uint64_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second.ledger;
}

std::vector<uint64_t> WarmPool::Reboot() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> evicted;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.busy) {
      ++it;
      continue;
    }
    if (it->second.pinned) {
      it->second.ledger.Boot();
      ++it;
      continue;
    }
    evicted.push_back(it->first);
    ++stats_.evicted;
    it = slots_.erase(it);
  }
  if (metrics_ != nullptr) UpdateGaugesLocked();
  return evicted;
}

void WarmPool::AttachMetrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  for (auto& [id, slot] : slots_) slot.ledger.AttachMetrics(metrics);
  if (metrics_ != nullptr) UpdateGaugesLocked();
}

void WarmPool::set_options(const WarmPoolOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
}

WarmPoolOptions WarmPool::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

size_t WarmPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

size_t WarmPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return IdleCountLocked();
}

size_t WarmPool::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size() - IdleCountLocked();
}

WarmPool::Stats WarmPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t WarmPool::pinned_slot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_slot_;
}

uint64_t WarmPool::CreateSlotLocked() {
  uint64_t id = next_slot_id_++;
  Slot& slot = slots_[id];
  slot.ledger.AttachMetrics(metrics_);
  slot.last_use_seq = ++use_seq_;
  return id;
}

void WarmPool::UpdateGaugesLocked() {
  const size_t idle = IdleCountLocked();
  metrics_->SetGauge("pool." + name_ + ".size",
                     static_cast<int64_t>(slots_.size()));
  metrics_->SetGauge("pool." + name_ + ".idle", static_cast<int64_t>(idle));
  metrics_->SetGauge("pool." + name_ + ".in_use",
                     static_cast<int64_t>(slots_.size() - idle));
  metrics_->SetGaugeMax("pool." + name_ + ".max_in_use",
                        static_cast<int64_t>(slots_.size() - idle));
}

size_t WarmPool::IdleCountLocked() const {
  size_t idle = 0;
  for (const auto& [id, slot] : slots_) {
    if (!slot.busy) ++idle;
  }
  return idle;
}

}  // namespace fedflow::sim
