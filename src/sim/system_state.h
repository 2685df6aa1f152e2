// Boot / warm-up state of the integration server, driving the paper's
// cold / warm / hot measurements (§4: "right after the entire system has been
// booted, after some other function has been invoked, and after the same
// function has been processed").
#ifndef FEDFLOW_SIM_SYSTEM_STATE_H_
#define FEDFLOW_SIM_SYSTEM_STATE_H_

#include <set>
#include <string>

#include "common/strings.h"
#include "common/vclock.h"
#include "obs/metrics.h"
#include "sim/latency.h"

namespace fedflow::sim {

/// Tracks which parts of the stack are warm.
class SystemState {
 public:
  /// Call temperature for a federated function.
  enum class Warmth {
    kCold,  ///< first call since boot: all processes/connections cold
    kWarm,  ///< infrastructure warm, but this function runs for the first time
    kHot,   ///< this function has run before: everything cached
  };

  /// Attaches a metrics sink (or detaches with nullptr; not owned). Boots
  /// and warmth transitions are counted under "warmth.*".
  void AttachMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// (Re)boots the system: everything becomes cold.
  void Boot() {
    infrastructure_warm_ = false;
    warm_functions_.clear();
    if (metrics_ != nullptr) metrics_->Inc("warmth.boot");
  }

  /// Warmth the next call of `function` will experience.
  Warmth QueryWarmth(const std::string& function) const {
    if (!infrastructure_warm_) return Warmth::kCold;
    if (warm_functions_.count(ToUpper(function)) > 0) return Warmth::kHot;
    return Warmth::kWarm;
  }

  /// Records a completed call of `function`, counting the warmth transition
  /// it causes: cold → infrastructure warms ("warmth.to_warm"), first run of
  /// a function → it becomes hot ("warmth.to_hot"), hot → stays hot (no
  /// transition counted).
  void MarkRun(const std::string& function) {
    if (metrics_ != nullptr) {
      if (!infrastructure_warm_) metrics_->Inc("warmth.to_warm");
      if (warm_functions_.count(ToUpper(function)) == 0) {
        metrics_->Inc("warmth.to_hot");
      }
    }
    infrastructure_warm_ = true;
    warm_functions_.insert(ToUpper(function));
  }

  bool infrastructure_warm() const { return infrastructure_warm_; }

 private:
  bool infrastructure_warm_ = false;
  std::set<std::string> warm_functions_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Stable name of a warmth level ("cold"/"warm"/"hot").
inline const char* WarmthName(SystemState::Warmth w) {
  switch (w) {
    case SystemState::Warmth::kCold:
      return "cold";
    case SystemState::Warmth::kWarm:
      return "warm";
    case SystemState::Warmth::kHot:
      return "hot";
  }
  return "?";
}

/// The warm-up surcharge of a call at warmth `w`: a cold call establishes
/// the infrastructure and runs its function for the first time, a warm call
/// only pays the first run, a hot call nothing.
inline VDuration WarmupSurchargeUs(const LatencyModel& model,
                                   SystemState::Warmth w) {
  switch (w) {
    case SystemState::Warmth::kCold:
      return model.cold_infrastructure_us + model.first_run_function_us;
    case SystemState::Warmth::kWarm:
      return model.first_run_function_us;
    case SystemState::Warmth::kHot:
      return 0;
  }
  return 0;
}

/// Charges the warm-up surcharge the next call of `function` pays on
/// `ledger` to `clock` (null = untimed). A hot call records no step at all,
/// so hot breakdowns carry no empty warm-up row.
inline void ChargeWarmup(const LatencyModel& model, const SystemState& ledger,
                         const std::string& function, SimClock* clock) {
  const SystemState::Warmth w = ledger.QueryWarmth(function);
  if (clock != nullptr && w != SystemState::Warmth::kHot) {
    clock->Charge(steps::kWarmup, WarmupSurchargeUs(model, w));
  }
}

}  // namespace fedflow::sim

#endif  // FEDFLOW_SIM_SYSTEM_STATE_H_
