// §3 table reproduction: the supported-mapping-complexity matrix. Unlike the
// paper's hand-written table, each row here is COMPUTED: we attempt to
// compile a representative spec of every heterogeneity case with both
// couplings and report whether compilation succeeds.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "bench/bench_util.h"
#include "federation/classify.h"
#include "federation/java_coupling.h"
#include "federation/udtf_coupling.h"
#include "federation/wfms_coupling.h"

namespace fedflow::bench {
namespace {

using federation::ClassifySet;
using federation::ClassifySpec;
using federation::FederatedFunctionSpec;
using federation::MappingCase;
using federation::MappingCaseName;

struct MatrixRow {
  MappingCase mapping_case;
  std::vector<FederatedFunctionSpec> specs;  // >1 = general case
};

std::vector<MatrixRow> Cases() {
  return {
      {MappingCase::kTrivial, {federation::GibKompNrSpec()}},
      {MappingCase::kSimple, {federation::GetNumberSupp1234Spec()}},
      {MappingCase::kIndependent, {federation::GetSuppQualReliaSpec()}},
      {MappingCase::kDependentLinear, {federation::GetSuppQualSpec()}},
      {MappingCase::kDependent1N, {federation::GetNoSuppCompSpec()}},
      {MappingCase::kDependentN1, {federation::GetSuppInfoSpec()}},
      {MappingCase::kDependentCyclic, {federation::AllCompNamesSpec()}},
      // General: two federated functions sharing local functions.
      {MappingCase::kGeneral,
       {federation::BuySuppCompSpec(), federation::GetSuppQualReliaSpec()}},
  };
}

struct Harness {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  appsys::AppSystemRegistry systems;
  sim::LatencyModel model;
  fdbs::Database db;
  wfms::Engine engine;
  federation::UdtfCoupling udtf{&db, &systems, &model};
  federation::WfmsCoupling wfms{&db, &engine, &systems, &model};

  Harness() {
    (void)systems.Add(std::make_shared<appsys::StockKeepingSystem>(scenario));
    (void)systems.Add(std::make_shared<appsys::PurchasingSystem>(scenario));
    (void)systems.Add(std::make_shared<appsys::PdmSystem>(scenario));
  }
};

void BM_ClassifyAllCases(benchmark::State& state) {
  auto rows = Cases();
  for (auto _ : state) {
    for (const MatrixRow& row : rows) {
      auto c = row.specs.size() == 1 ? ClassifySpec(row.specs[0])
                                     : ClassifySet(row.specs);
      benchmark::DoNotOptimize(c);
    }
  }
}
BENCHMARK(BM_ClassifyAllCases);

void BM_CompileBothCouplings(benchmark::State& state) {
  Harness harness;
  auto spec = federation::BuySuppCompSpec();
  for (auto _ : state) {
    auto sql = harness.udtf.CompileIUdtfSql(spec);
    auto process = harness.wfms.CompileProcess(spec);
    benchmark::DoNotOptimize(sql);
    benchmark::DoNotOptimize(process);
  }
}
BENCHMARK(BM_CompileBothCouplings);

void PrintMatrix() {
  Harness harness;
  std::printf("\n=== Mapping-complexity support matrix (computed by "
              "compilation attempts) ===\n");
  std::printf("%-20s %-12s %-12s %-12s %-10s %-10s\n", "case", "UDTF",
              "WfMS", "Java (ext)", "paper-UDTF", "paper-WfMS");
  PrintRule(82);
  const auto paper = federation::SupportMatrix();
  BenchJson json("mapping_matrix");
  bool all_match = true;
  for (const MatrixRow& row : Cases()) {
    // Attempt compilation with both couplings over every spec of the row.
    bool udtf_ok = true;
    bool wfms_ok = true;
    for (const FederatedFunctionSpec& spec : row.specs) {
      if (!harness.udtf.CompileIUdtfSql(spec).ok()) udtf_ok = false;
      if (!harness.wfms.CompileProcess(spec).ok()) wfms_ok = false;
    }
    // The general case additionally requires ONE mapping artifact covering
    // the whole set, which a single SQL statement cannot provide.
    if (row.mapping_case == MappingCase::kGeneral) udtf_ok = false;
    const bool java_ok = federation::JavaUdtfSupports(row.mapping_case);

    bool paper_udtf = false;
    bool paper_wfms = false;
    for (const auto& entry : paper) {
      if (entry.mapping_case == row.mapping_case) {
        paper_udtf = entry.udtf_supported;
        paper_wfms = entry.wfms_supported;
      }
    }
    if (udtf_ok != paper_udtf || wfms_ok != paper_wfms) all_match = false;
    json.Add(MappingCaseName(row.mapping_case), "udtf_supported",
             udtf_ok ? 1 : 0);
    json.Add(MappingCaseName(row.mapping_case), "wfms_supported",
             wfms_ok ? 1 : 0);
    json.Add(MappingCaseName(row.mapping_case), "java_supported",
             java_ok ? 1 : 0);
    std::printf("%-20s %-12s %-12s %-12s %-10s %-10s\n",
                MappingCaseName(row.mapping_case),
                udtf_ok ? "supported" : "NOT supp.",
                wfms_ok ? "supported" : "NOT supp.",
                java_ok ? "supported" : "NOT supp.",
                paper_udtf ? "supported" : "NOT supp.",
                paper_wfms ? "supported" : "NOT supp.");
  }
  PrintRule(70);
  std::printf("measured matrix matches the paper's table: %s\n",
              all_match ? "yes" : "NO");
  json.Write();
}

}  // namespace
}  // namespace fedflow::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fedflow::bench::PrintMatrix();
  return 0;
}
