// A bounded pool of warm controllers, replacing the singleton controller of
// earlier revisions. The paper's controller ablation measured "controller vs.
// no controller" for a single flow; under concurrent load the question
// becomes "how many warm controllers does an arrival rate need" — each slot
// is one long-running controller process with its own warmth ledger, checked
// out per flow, returned on completion, and LRU-evicted beyond the warm
// target. Slot 1 is pinned and doubles as the legacy single-flow controller:
// with pool size 1 every checkout returns it and behavior is bit-identical
// to the singleton.
#ifndef FEDFLOW_FEDERATION_CONTROLLER_POOL_H_
#define FEDFLOW_FEDERATION_CONTROLLER_POOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "appsys/registry.h"
#include "common/result.h"
#include "federation/controller.h"
#include "obs/metrics.h"
#include "sim/latency.h"
#include "sim/resource_pools.h"
#include "sim/system_state.h"

namespace fedflow::cache {
class ResultCache;
}  // namespace fedflow::cache

namespace fedflow::federation {

/// Pool limits; forwarded into the underlying sim::WarmPool.
struct ControllerPoolOptions {
  /// Controllers that may exist at once (busy + warm-idle). 1 = the paper's
  /// single-controller deployment.
  size_t max_size = 1;
  /// Idle controllers kept warm; 0 keeps all of them (no eviction below
  /// max_size).
  size_t warm_target = 0;
  /// Concurrent checkouts per tenant; 0 = unlimited.
  size_t per_tenant_quota = 0;
};

/// Bounded warm-controller pool with per-flow RAII leases.
class ControllerPool {
 public:
  ControllerPool(const appsys::AppSystemRegistry* systems,
                 const sim::LatencyModel* model,
                 ControllerPoolOptions options = {});

  /// A checked-out controller; returns its slot to the pool on destruction.
  /// Move-only.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    /// Returns the slot early (idempotent).
    void Release();

    bool valid() const { return pool_ != nullptr; }
    Controller* controller() const { return controller_; }
    sim::SystemState* ledger() const { return ledger_; }
    /// Warmth the checkout observed for the affinity function.
    sim::SystemState::Warmth warmth() const { return warmth_; }
    uint64_t slot() const { return slot_; }

   private:
    friend class ControllerPool;
    ControllerPool* pool_ = nullptr;
    uint64_t slot_ = 0;
    Controller* controller_ = nullptr;
    sim::SystemState* ledger_ = nullptr;
    sim::SystemState::Warmth warmth_ = sim::SystemState::Warmth::kHot;
  };

  /// Checks a controller out for one flow. `function` is the warmth affinity
  /// (hot slots for it are preferred). kUnavailable when the pool or the
  /// tenant quota is exhausted — admission control, not an error in the
  /// statement itself.
  Result<Lease> Checkout(const std::string& tenant,
                         const std::string& function);

  /// The pinned slot's controller/ledger: the stable single-flow identity
  /// that the server's untimed Query runs on.
  Controller* primary() { return primary_; }
  sim::SystemState* primary_state() { return primary_state_; }

  /// Starts / stops every live controller. Controllers created later inherit
  /// the running state.
  void Start();
  void Stop();

  /// Environment reboot: evicts all non-pinned controllers, restarts the
  /// pinned one and boots its ledger cold. Fails while leases are
  /// outstanding.
  Status Reboot();

  void AttachMetrics(obs::MetricsRegistry* metrics);

  /// Attaches the server's result cache (nullptr detaches; not owned).
  /// Rebooting the pool flushes the whole cache, and evicting a slot flushes
  /// the entries produced on it — a cached result must never outlive the
  /// warmth ledger it was priced under.
  void AttachResultCache(cache::ResultCache* result_cache);

  /// Replaces the pool limits (existing warm slots are trimmed lazily on the
  /// next release).
  void set_options(const ControllerPoolOptions& options);
  ControllerPoolOptions options() const;

  /// The underlying slot pool (stats, occupancy).
  sim::WarmPool& pool() { return pool_; }
  const sim::WarmPool& pool() const { return pool_; }

  size_t size() const { return pool_.size(); }
  size_t in_use() const { return pool_.in_use(); }

 private:
  void ReturnSlot(uint64_t slot);

  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  sim::WarmPool pool_;
  mutable std::mutex mu_;  // guards controllers_ and started_
  std::map<uint64_t, std::unique_ptr<Controller>> controllers_;
  bool started_ = false;
  Controller* primary_ = nullptr;
  sim::SystemState* primary_state_ = nullptr;
  cache::ResultCache* result_cache_ = nullptr;  // guarded by mu_
};

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_CONTROLLER_POOL_H_
