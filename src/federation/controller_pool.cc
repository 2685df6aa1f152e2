#include "federation/controller_pool.h"

#include "cache/result_cache.h"

namespace fedflow::federation {

namespace {

sim::WarmPoolOptions ToWarmPoolOptions(const ControllerPoolOptions& options) {
  sim::WarmPoolOptions out;
  out.max_size = options.max_size == 0 ? 1 : options.max_size;
  out.warm_target = options.warm_target;
  out.per_tenant_quota = options.per_tenant_quota;
  return out;
}

}  // namespace

ControllerPool::ControllerPool(const appsys::AppSystemRegistry* systems,
                               const sim::LatencyModel* model,
                               ControllerPoolOptions options)
    : systems_(systems),
      model_(model),
      pool_("controller", ToWarmPoolOptions(options)) {
  const uint64_t pinned = pool_.pinned_slot();
  auto controller = std::make_unique<Controller>(systems_, model_);
  primary_ = controller.get();
  primary_state_ = pool_.ledger(pinned);
  controllers_.emplace(pinned, std::move(controller));
}

ControllerPool::Lease& ControllerPool::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    slot_ = other.slot_;
    controller_ = other.controller_;
    ledger_ = other.ledger_;
    warmth_ = other.warmth_;
    other.pool_ = nullptr;
    other.slot_ = 0;
    other.controller_ = nullptr;
    other.ledger_ = nullptr;
  }
  return *this;
}

void ControllerPool::Lease::Release() {
  if (pool_ != nullptr) {
    pool_->ReturnSlot(slot_);
    pool_ = nullptr;
    slot_ = 0;
    controller_ = nullptr;
    ledger_ = nullptr;
  }
}

Result<ControllerPool::Lease> ControllerPool::Checkout(
    const std::string& tenant, const std::string& function) {
  FEDFLOW_ASSIGN_OR_RETURN(sim::WarmPool::Checkout checkout,
                           pool_.Acquire(tenant, function));
  Lease lease;
  lease.pool_ = this;
  lease.slot_ = checkout.slot;
  lease.ledger_ = checkout.ledger;
  lease.warmth_ = checkout.warmth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = controllers_.find(checkout.slot);
    if (it == controllers_.end()) {
      it = controllers_
               .emplace(checkout.slot,
                        std::make_unique<Controller>(systems_, model_))
               .first;
      if (started_) it->second->Start();
    }
    lease.controller_ = it->second.get();
  }
  return lease;
}

void ControllerPool::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  started_ = true;
  for (auto& [slot, controller] : controllers_) controller->Start();
}

void ControllerPool::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  for (auto& [slot, controller] : controllers_) controller->Stop();
}

Status ControllerPool::Reboot() {
  if (pool_.in_use() > 0) {
    return Status::ExecutionError(
        "controller pool reboot with " + std::to_string(pool_.in_use()) +
        " leases outstanding");
  }
  // Evicting idle slots and booting the pinned ledger mirrors the legacy
  // Stop/Start + SystemState::Boot sequence exactly when the pool holds only
  // the pinned slot.
  std::vector<uint64_t> evicted = pool_.Reboot();
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t slot : evicted) controllers_.erase(slot);
  // Every warmth ledger just went cold; a memoized result served at hot cost
  // from a rebooted controller would undo the experiment the reboot sets up.
  if (result_cache_ != nullptr) result_cache_->InvalidateAll();
  primary_->Stop();
  if (started_) primary_->Start();
  return Status::OK();
}

void ControllerPool::AttachMetrics(obs::MetricsRegistry* metrics) {
  pool_.AttachMetrics(metrics);
}

void ControllerPool::AttachResultCache(cache::ResultCache* result_cache) {
  std::lock_guard<std::mutex> lock(mu_);
  result_cache_ = result_cache;
}

void ControllerPool::set_options(const ControllerPoolOptions& options) {
  pool_.set_options(ToWarmPoolOptions(options));
}

ControllerPoolOptions ControllerPool::options() const {
  sim::WarmPoolOptions wp = pool_.options();
  ControllerPoolOptions out;
  out.max_size = wp.max_size;
  out.warm_target = wp.warm_target;
  out.per_tenant_quota = wp.per_tenant_quota;
  return out;
}

void ControllerPool::ReturnSlot(uint64_t slot) {
  std::vector<uint64_t> evicted = pool_.Release(slot);
  if (!evicted.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : evicted) controllers_.erase(id);
    // The evicted slots' warmth ledgers are gone; flush the results priced
    // against them.
    if (result_cache_ != nullptr) result_cache_->InvalidateSlots(evicted);
  }
}

}  // namespace fedflow::federation
