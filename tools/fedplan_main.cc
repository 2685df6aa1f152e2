// fedplan: EXPLAIN-style printout of federated plans over the sample
// scenario, with per-node modeled costs for both architectures (WfMS
// process navigation vs sequential lateral SQL chain).
//
//   fedplan                       every sample spec, passthrough + optimized
//   fedplan --function NAME       one sample spec
//   fedplan --mode passthrough|optimized|baseline|all
//                                 which plan variants to print (default:
//                                 passthrough + optimized; baseline is the
//                                 naive sequential-chain compile the
//                                 optimizer's parallelize pass recovers from)
//
// Exit 0 when every requested plan compiled; non-zero otherwise. The
// default output is pinned by tools/golden/fedplan_sample.txt (CI release
// job).
#include <cstdio>
#include <string>
#include <vector>

#include "appsys/dataset.h"
#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/registry.h"
#include "appsys/stockkeeping.h"
#include "cache/plan_cache.h"
#include "common/strings.h"
#include "federation/sample_scenario.h"
#include "plan/explain.h"
#include "plan/optimizer.h"
#include "sim/latency.h"

namespace {

using namespace fedflow;  // NOLINT(google-build-using-namespace)

Result<appsys::AppSystemRegistry> SampleRegistry() {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  appsys::AppSystemRegistry systems;
  FEDFLOW_RETURN_NOT_OK(
      systems.Add(std::make_shared<appsys::StockKeepingSystem>(scenario)));
  FEDFLOW_RETURN_NOT_OK(
      systems.Add(std::make_shared<appsys::PurchasingSystem>(scenario)));
  FEDFLOW_RETURN_NOT_OK(
      systems.Add(std::make_shared<appsys::PdmSystem>(scenario)));
  return systems;
}

struct Variant {
  const char* label;
  plan::PlanOptions options;
};

/// Prints one plan variant of `spec`. Returns false when compilation failed.
/// Plans come through the same PlanCache the integration server uses, so
/// EXPLAIN shows exactly the cached instance a registration would produce
/// (a variant switch recompiles — options drift invalidates the entry).
bool ExplainOne(const federation::FederatedFunctionSpec& spec,
                const appsys::AppSystemRegistry& systems,
                const sim::LatencyModel& model, const Variant& variant,
                cache::PlanCache& plans) {
  Result<std::shared_ptr<const plan::FedPlan>> fed_plan =
      plans.GetOrBuild(spec, systems, model, variant.options);
  if (!fed_plan.ok()) {
    std::fprintf(stderr, "fedplan: %s (%s): %s\n", spec.name.c_str(),
                 variant.label, fed_plan.status().ToString().c_str());
    return false;
  }
  std::printf("-- %s: %s --\n%s\n", spec.name.c_str(), variant.label,
              plan::ExplainPlan(**fed_plan, model).c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string function;
  std::string mode = "default";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--function") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "fedplan: --function needs a value\n");
        return 2;
      }
      function = v;
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "fedplan: --mode needs a value\n");
        return 2;
      }
      mode = v;
    } else {
      std::fprintf(stderr, "fedplan: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  plan::PlanOptions passthrough;
  plan::PlanOptions baseline;
  baseline.sequential_baseline = true;
  plan::PlanOptions optimized;
  optimized.sequential_baseline = true;
  optimized.parallelize = true;
  optimized.reorder = true;
  optimized.sink_predicates = true;

  std::vector<Variant> variants;
  if (mode == "passthrough") {
    variants = {{"passthrough", passthrough}};
  } else if (mode == "baseline") {
    variants = {{"sequential baseline", baseline}};
  } else if (mode == "optimized") {
    variants = {{"optimized (from sequential baseline)", optimized}};
  } else if (mode == "all") {
    variants = {{"passthrough", passthrough},
                {"sequential baseline", baseline},
                {"optimized (from sequential baseline)", optimized}};
  } else if (mode == "default") {
    variants = {{"passthrough", passthrough},
                {"optimized (from sequential baseline)", optimized}};
  } else {
    std::fprintf(stderr,
                 "fedplan: --mode must be passthrough|baseline|optimized|all\n");
    return 2;
  }

  Result<appsys::AppSystemRegistry> systems = SampleRegistry();
  if (!systems.ok()) {
    std::fprintf(stderr, "fedplan: %s\n", systems.status().ToString().c_str());
    return 1;
  }
  sim::LatencyModel model;

  cache::PlanCache plans;
  bool matched = false;
  bool ok = true;
  for (const federation::FederatedFunctionSpec& spec :
       federation::AllSampleSpecs()) {
    if (!function.empty() && !EqualsIgnoreCase(spec.name, function)) continue;
    matched = true;
    for (const Variant& variant : variants) {
      ok = ExplainOne(spec, *systems, model, variant, plans) && ok;
    }
  }
  if (!matched) {
    std::fprintf(stderr, "fedplan: unknown sample function %s; one of:\n",
                 function.c_str());
    for (const federation::FederatedFunctionSpec& spec :
         federation::AllSampleSpecs()) {
      std::fprintf(stderr, "  %s\n", spec.name.c_str());
    }
    return 2;
  }
  return ok ? 0 : 1;
}
