// Golden tests for the fedlint passes: each malformed-spec corpus entry must
// produce exactly its pinned FF### code at its pinned location path, the
// sample scenario must lint clean end to end, and the IntegrationServer must
// gate registration on error-severity findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/corpus.h"
#include "analysis/diagnostic.h"
#include "analysis/plan_lint.h"
#include "analysis/spec_lint.h"
#include "appsys/dataset.h"
#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/registry.h"
#include "appsys/stockkeeping.h"
#include "federation/integration_server.h"
#include "federation/sample_scenario.h"

namespace fedflow::analysis {
namespace {

using federation::FederatedFunctionSpec;

appsys::AppSystemRegistry MakeRegistry() {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  appsys::AppSystemRegistry systems;
  EXPECT_TRUE(
      systems.Add(std::make_shared<appsys::StockKeepingSystem>(scenario)).ok());
  EXPECT_TRUE(
      systems.Add(std::make_shared<appsys::PurchasingSystem>(scenario)).ok());
  EXPECT_TRUE(systems.Add(std::make_shared<appsys::PdmSystem>(scenario)).ok());
  return systems;
}

bool HasFinding(const std::vector<Diagnostic>& diags, const std::string& code,
                const std::string& location) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.code == code && d.location == location;
  });
}

std::string Dump(const std::vector<Diagnostic>& diags) {
  return FormatDiagnostics(diags);
}

// ---------------------------------------------------------------------------
// Spec pass: the malformed corpus, pinned code + location per entry.

TEST(SpecLintGoldenTest, EveryCorpusEntryProducesItsPinnedDiagnostic) {
  appsys::AppSystemRegistry systems = MakeRegistry();
  std::vector<CorpusEntry> corpus = MalformedSpecCorpus();
  ASSERT_GE(corpus.size(), 5u);
  for (const CorpusEntry& entry : corpus) {
    std::vector<Diagnostic> diags = LintSpec(entry.spec, systems);
    // Exactly one finding, and it is the pinned one: the corpus isolates one
    // defect per entry, so a second finding means a pass misfires.
    ASSERT_EQ(diags.size(), 1u)
        << "corpus entry '" << entry.name << "':\n" << Dump(diags);
    EXPECT_EQ(diags[0].code, entry.expected_code) << "entry " << entry.name;
    EXPECT_EQ(diags[0].location, entry.expected_location)
        << "entry " << entry.name;
  }
}

TEST(SpecLintGoldenTest, CorpusCoversTheRequiredDefectFamilies) {
  std::vector<std::string> codes;
  for (const CorpusEntry& e : MalformedSpecCorpus()) {
    codes.push_back(e.expected_code);
  }
  // ISSUE acceptance: dangling node ref, bad arity, type mismatch, dead
  // node, cycle without exit condition.
  for (const char* required : {kSpecDanglingNode, kSpecArityMismatch,
                               kSpecArgTypeMismatch, kSpecDeadNode,
                               kSpecCycleWithoutExit}) {
    EXPECT_NE(std::find(codes.begin(), codes.end(), required), codes.end())
        << "corpus lacks an entry for " << required;
  }
}

TEST(SpecLintGoldenTest, SampleSpecsAreClean) {
  appsys::AppSystemRegistry systems = MakeRegistry();
  for (const FederatedFunctionSpec& spec : federation::AllSampleSpecs()) {
    std::vector<Diagnostic> diags = LintSpec(spec, systems);
    EXPECT_TRUE(diags.empty()) << spec.name << ":\n" << Dump(diags);
  }
}

TEST(SpecLintGoldenTest, ErrorSeverityDecidesRegistrability) {
  appsys::AppSystemRegistry systems = MakeRegistry();
  for (const CorpusEntry& entry : MalformedSpecCorpus()) {
    std::vector<Diagnostic> diags = LintSpec(entry.spec, systems);
    // Spec warnings occupy FF050..FF069, so the tens digit distinguishes.
    bool is_warning_code = entry.expected_code[3] >= '5';
    EXPECT_EQ(HasErrors(diags), !is_warning_code) << entry.name;
  }
}

// ---------------------------------------------------------------------------
// Registration gate: errors reject, warnings register and stay queryable.

TEST(LintGateTest, ServerRefusesErrorSeveritySpecs) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = federation::IntegrationServer::Create(
      federation::Architecture::kWfms, scenario);
  ASSERT_TRUE(server.ok());
  for (const CorpusEntry& entry : MalformedSpecCorpus()) {
    if (entry.expected_code[3] >= '5') continue;  // warning-only entries
    Status st = (*server)->RegisterFederatedFunction(entry.spec);
    ASSERT_FALSE(st.ok()) << entry.name;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << entry.name;
    EXPECT_NE(st.message().find("fedlint"), std::string::npos) << entry.name;
    EXPECT_NE(st.message().find(entry.expected_code), std::string::npos)
        << entry.name << ": " << st.message();
  }
}

TEST(LintGateTest, WarningsRegisterAndAreQueryable) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = federation::IntegrationServer::Create(
      federation::Architecture::kWfms, scenario);
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE((*server)->lint_warnings().empty());
  for (const CorpusEntry& entry : MalformedSpecCorpus()) {
    if (entry.name != "unused-param" && entry.name != "dead-node") continue;
    Status st = (*server)->RegisterFederatedFunction(entry.spec);
    EXPECT_TRUE(st.ok()) << entry.name << ": " << st.ToString();
  }
  const std::vector<Diagnostic>& warnings = (*server)->lint_warnings();
  ASSERT_EQ(warnings.size(), 2u) << Dump(warnings);
  EXPECT_TRUE(HasFinding(warnings, kSpecUnusedParam,
                         "spec:UnusedParam/param:Extra"))
      << Dump(warnings);
  EXPECT_TRUE(HasFinding(warnings, kSpecDeadNode, "spec:DeadNode/node:GR"))
      << Dump(warnings);
}

// ---------------------------------------------------------------------------
// FF310: parallelize over a single-controller pool serializes.

TEST(LintPoolConfigTest, WarnsWhenParallelizeMeetsSingleControllerPool) {
  federation::FederatedFunctionSpec spec = federation::GetSuppQualSpec();
  plan::PlanOptions options;
  options.parallelize = true;
  std::vector<Diagnostic> diags = LintPoolConfig(spec, options, 1);
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].code, kPlanPoolSerialized);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].location, "spec:" + spec.name);
}

TEST(LintPoolConfigTest, SilentWithoutParallelizeOrWithRealPool) {
  federation::FederatedFunctionSpec spec = federation::GetSuppQualSpec();
  plan::PlanOptions passthrough;
  EXPECT_TRUE(LintPoolConfig(spec, passthrough, 1).empty());
  plan::PlanOptions options;
  options.parallelize = true;
  EXPECT_TRUE(LintPoolConfig(spec, options, 2).empty());
  EXPECT_TRUE(LintPoolConfig(spec, options, 8).empty());
}

TEST(LintPoolConfigTest, ServerRegistrationCollectsFf310Warning) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  plan::PlanOptions options;
  options.parallelize = true;

  // Pool of one: the warning is collected, the registration still succeeds.
  auto single = federation::IntegrationServer::Create(
      federation::Architecture::kWfms, scenario);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE((*single)
                  ->RegisterFederatedFunction(federation::GetSuppQualSpec(),
                                              options)
                  .ok());
  EXPECT_TRUE(HasFinding((*single)->lint_warnings(), kPlanPoolSerialized,
                         "spec:GetSuppQual"))
      << Dump((*single)->lint_warnings());

  // Pool of four: the parallel stages can really fan out — no warning.
  federation::ControllerPoolOptions pool;
  pool.max_size = 4;
  auto pooled = federation::IntegrationServer::Create(
      federation::Architecture::kWfms, scenario, {}, pool);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE((*pooled)
                  ->RegisterFederatedFunction(federation::GetSuppQualSpec(),
                                              options)
                  .ok());
  EXPECT_FALSE(HasFinding((*pooled)->lint_warnings(), kPlanPoolSerialized,
                          "spec:GetSuppQual"))
      << Dump((*pooled)->lint_warnings());
}

// ---------------------------------------------------------------------------
// Dataflow gate (FF4xx): semantically broken but syntactically clean specs
// must die at registration, with the pinned code and location in the status.

TEST(RegistrationGateTest, SemanticCorpusEntriesAreRejectedAtRegistration) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  std::vector<SemanticCorpusEntry> corpus = SemanticSpecCorpus();
  ASSERT_GE(corpus.size(), 6u);
  for (const SemanticCorpusEntry& entry : corpus) {
    federation::ControllerPoolOptions pool;
    pool.max_size = entry.pool_max_size;
    pool.per_tenant_quota = entry.per_tenant_quota;
    auto server = federation::IntegrationServer::Create(
        federation::Architecture::kWfms, scenario, {}, pool);
    ASSERT_TRUE(server.ok()) << entry.name << ": " << server.status();
    (*server)->retry_policy() = entry.retry;
    (*server)->analysis_deadline_us() = entry.deadline_us;
    plan::PlanOptions options;
    options.parallelize = entry.parallelize;
    Status status = (*server)->RegisterFederatedFunction(entry.spec, options);
    ASSERT_FALSE(status.ok())
        << entry.name << " registered despite " << entry.expected_code;
    std::string text = status.ToString();
    EXPECT_NE(text.find(entry.expected_code), std::string::npos)
        << entry.name << ": " << text;
    EXPECT_NE(text.find(entry.expected_location), std::string::npos)
        << entry.name << ": " << text;
  }
}

TEST(RegistrationGateTest, SampleSpecsStillRegisterUnderTheDataflowGate) {
  appsys::Scenario scenario = appsys::GenerateScenario({});
  auto server = federation::IntegrationServer::Create(
      federation::Architecture::kWfms, scenario);
  ASSERT_TRUE(server.ok());
  for (const FederatedFunctionSpec& spec : federation::AllSampleSpecs()) {
    EXPECT_TRUE((*server)->RegisterFederatedFunction(spec).ok()) << spec.name;
  }
  // The FF410 cardinality warning is collected, not blocking.
  bool has_ff410 = false;
  for (const Diagnostic& d : (*server)->lint_warnings()) {
    has_ff410 = has_ff410 || d.code == "FF410";
  }
  EXPECT_TRUE(has_ff410) << Dump((*server)->lint_warnings());
}

}  // namespace
}  // namespace fedflow::analysis
