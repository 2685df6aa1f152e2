// Shared warm-resource pool: the cold/warm/hot distinction of the paper's
// §4 experiment (one global environment) generalized to a bounded pool of
// resources, each with its own warmth ledger. A WarmPool manages the slots
// of one resource kind (the ControllerPool's controllers); checking a slot
// out classifies the checkout as cold (a fresh slot had to be created),
// warm (an existing slot that never ran this function) or hot (the slot ran
// this function before). Slot 1 is created eagerly and pinned; idle slots
// beyond the warm target are evicted in LRU order — the warm-process-pool
// policy of FaaS runtimes (pre-boot N, evict LRU), applied to the paper's
// controller ablation.
//
// Determinism: every selection and eviction decision is ranked by a
// monotonic use-sequence counter, never by wall time, so a fixed sequence of
// Acquire/Release calls always produces the same slots, warmths and
// evictions. All operations are mutex-guarded for fedload's threaded mode.
#ifndef FEDFLOW_SIM_RESOURCE_POOLS_H_
#define FEDFLOW_SIM_RESOURCE_POOLS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "sim/system_state.h"

namespace fedflow::sim {

/// Configuration of one warm pool.
struct WarmPoolOptions {
  /// Bound on concurrently existing slots (busy + idle). Checkouts beyond
  /// the bound fail with kUnavailable until a slot is returned.
  size_t max_size = 1;

  /// Idle slots kept warm after a return; the LRU surplus is evicted.
  /// 0 means "keep every slot warm" (warm target == max_size).
  size_t warm_target = 0;

  /// Concurrent checkouts allowed per tenant; 0 = unlimited. Exhausted
  /// quotas fail the checkout with kUnavailable without touching the pool.
  size_t per_tenant_quota = 0;
};

/// A bounded pool of warm slots for one resource kind. Slot 1 is created
/// with the pool and never evicted: the pinned slot gives single-flow
/// callers a stable "primary" resource whose ledger behaves exactly like
/// the legacy global SystemState.
class WarmPool {
 public:
  /// Result of one checkout.
  struct Checkout {
    uint64_t slot = 0;
    /// Warmth the affinity function experiences on this slot: kCold when the
    /// slot was just created, else the slot ledger's QueryWarmth verdict.
    SystemState::Warmth warmth = SystemState::Warmth::kHot;
    /// True when the checkout had to create a fresh slot.
    bool created = false;
    /// The slot's warmth ledger, exclusively leased until Release. Stable
    /// address for the lifetime of the slot.
    SystemState* ledger = nullptr;
  };

  /// Lifetime counters (monotonic; survive Reboot).
  struct Stats {
    int64_t cold_checkouts = 0;
    int64_t warm_checkouts = 0;
    int64_t hot_checkouts = 0;
    int64_t created = 0;
    int64_t evicted = 0;
    int64_t quota_rejections = 0;
    int64_t exhausted_rejections = 0;
    int64_t returns = 0;
  };

  explicit WarmPool(std::string name, WarmPoolOptions options = {});

  /// Checks a slot out for `tenant`. Preference order: an idle slot already
  /// hot for `affinity` (most recently used first), else the most recently
  /// used idle slot (best warmth), else a fresh slot while under max_size.
  /// Fails with kUnavailable when the tenant quota or the pool is exhausted.
  Result<Checkout> Acquire(const std::string& tenant,
                           const std::string& affinity);

  /// Returns `slot` to the idle set (most-recently-used position) and trims
  /// idle slots beyond the warm target, least recently used first. Returns
  /// the ids of evicted slots so owners of per-slot payloads (e.g. the
  /// ControllerPool's Controller instances) can destroy them.
  std::vector<uint64_t> Release(uint64_t slot);

  /// Ledger of a live slot; null for unknown/evicted slots.
  SystemState* ledger(uint64_t slot);

  /// Drops every non-pinned idle slot and boots the pinned slot's ledger
  /// (everything cold), mirroring a full environment reboot. Requires no
  /// outstanding checkouts. Returns evicted slot ids.
  std::vector<uint64_t> Reboot();

  /// Attaches `metrics` (nullptr detaches): slot ledgers count warmth
  /// transitions, the pool counts checkouts/evictions/rejections under
  /// "pool.<name>.*" and keeps "pool.<name>.{size,idle,in_use}" gauges.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  /// Replaces the pool limits. Takes effect on subsequent Acquire/Release
  /// calls; existing slots are not evicted until the next Release.
  void set_options(const WarmPoolOptions& options);
  WarmPoolOptions options() const;

  const std::string& name() const { return name_; }
  size_t size() const;
  size_t idle() const;
  size_t in_use() const;
  Stats stats() const;

  /// Id of the pinned slot.
  uint64_t pinned_slot() const;

 private:
  struct Slot {
    SystemState ledger;
    bool busy = false;
    bool pinned = false;
    std::string tenant;
    uint64_t last_use_seq = 0;
  };

  uint64_t CreateSlotLocked();
  void UpdateGaugesLocked();
  size_t IdleCountLocked() const;

  std::string name_;
  WarmPoolOptions options_;
  mutable std::mutex mu_;
  std::map<uint64_t, Slot> slots_;  // node-stable: ledger addresses survive
  std::map<std::string, size_t> tenant_in_use_;
  uint64_t next_slot_id_ = 1;
  uint64_t use_seq_ = 0;
  uint64_t pinned_slot_ = 0;
  Stats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace fedflow::sim

#endif  // FEDFLOW_SIM_RESOURCE_POOLS_H_
