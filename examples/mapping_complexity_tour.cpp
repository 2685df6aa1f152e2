// A tour through the paper's §3 heterogeneity cases: for each case, show the
// artifact each coupling compiles the SAME federated-function spec into —
// the generated I-UDTF SQL on the UDTF side, the process definition (FDL) on
// the WfMS side — and where the UDTF side hits its expressiveness limit.
#include <cstdio>

#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "federation/classify.h"
#include "federation/sample_scenario.h"
#include "federation/udtf_coupling.h"
#include "federation/wfms_coupling.h"
#include "wfms/fdl.h"

using namespace fedflow;
using federation::ClassifySpec;
using federation::FederatedFunctionSpec;
using federation::MappingCaseName;

int main() {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  appsys::AppSystemRegistry systems;
  (void)systems.Add(std::make_shared<appsys::StockKeepingSystem>(scenario));
  (void)systems.Add(std::make_shared<appsys::PurchasingSystem>(scenario));
  (void)systems.Add(std::make_shared<appsys::PdmSystem>(scenario));
  sim::LatencyModel model;
  fdbs::Database db;
  wfms::Engine engine;
  federation::UdtfCoupling udtf(&db, &systems, &model);
  federation::WfmsCoupling wfms(&db, &engine, &systems, &model);

  const std::vector<FederatedFunctionSpec> specs = {
      federation::GibKompNrSpec(),          federation::GetNumberSupp1234Spec(),
      federation::GetSuppQualReliaSpec(),   federation::GetSuppQualSpec(),
      federation::GetSubCompDiscountsSpec(),federation::GetNoSuppCompSpec(),
      federation::GetSuppInfoSpec(),        federation::BuySuppCompSpec(),
      federation::AllCompNamesSpec(),
  };

  for (const FederatedFunctionSpec& spec : specs) {
    auto mapping_case = ClassifySpec(spec);
    std::printf("================================================================\n");
    std::printf("Federated function %s — %s case\n", spec.name.c_str(),
                mapping_case.ok() ? MappingCaseName(*mapping_case) : "?");
    std::printf("================================================================\n");

    std::printf("\n--- enhanced SQL UDTF architecture ---\n");
    auto sql = udtf.CompileIUdtfSql(spec);
    if (sql.ok()) {
      std::printf("%s\n", sql->c_str());
    } else {
      std::printf("(%s)\n", sql.status().ToString().c_str());
    }

    std::printf("\n--- WfMS architecture ---\n");
    auto compiled = wfms.CompileProcess(spec);
    if (compiled.ok()) {
      std::printf("%s", wfms::ToFdl(compiled->process).c_str());
      if (!compiled->helpers.empty()) {
        std::printf("-- helpers: ");
        for (size_t i = 0; i < compiled->helpers.size(); ++i) {
          std::printf("%s%s", i > 0 ? ", " : "",
                      compiled->helpers[i].first.c_str());
        }
        std::printf("\n");
      }
    } else {
      std::printf("(%s)\n", compiled.status().ToString().c_str());
    }
    std::printf("\n");
  }

  // The general case: two federated functions over shared local functions.
  std::vector<FederatedFunctionSpec> general = {
      federation::BuySuppCompSpec(), federation::GetSuppQualReliaSpec()};
  auto set_case = federation::ClassifySet(general);
  std::printf("================================================================\n");
  std::printf("Spec set {BuySuppComp, GetSuppQualRelia} classifies as: %s\n",
              set_case.ok() ? MappingCaseName(*set_case) : "?");
  std::printf("(shared local functions: stock.GetQuality, "
              "purchasing.GetReliability)\n");
  return 0;
}
