// Tests over the diagnostic-code registry: every FF### code is unique,
// numerically ordered, inside a declared band, named for SARIF, and
// documented in DESIGN.md's diagnostic table.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "analysis/code_registry.h"
#include "analysis/dataflow/dataflow_lint.h"
#include "analysis/dataflow/saga_analysis.h"
#include "analysis/plan_lint.h"
#include "analysis/spec_lint.h"

namespace fedflow::analysis {
namespace {

int NumericCode(const std::string& code) {
  EXPECT_EQ(code.size(), 5u) << code;
  EXPECT_EQ(code.substr(0, 2), "FF") << code;
  return std::stoi(code.substr(2));
}

TEST(CodeRegistryTest, CodesAreUniqueAndOrdered) {
  std::set<std::string> codes;
  std::set<std::string> names;
  int previous = 0;
  for (const CodeInfo& info : AllDiagnosticCodes()) {
    EXPECT_TRUE(codes.insert(info.code).second)
        << "duplicate code " << info.code;
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate rule name " << info.name;
    int numeric = NumericCode(info.code);
    EXPECT_GT(numeric, previous) << info.code << " out of order";
    previous = numeric;
  }
  // Pinned: a new code must be registered on purpose, not by accident.
  EXPECT_EQ(codes.size(), 53u);
}

TEST(CodeRegistryTest, EveryCodeFallsInExactlyOneBand) {
  const std::vector<CodeBand>& bands = DiagnosticCodeBands();
  for (const CodeInfo& info : AllDiagnosticCodes()) {
    int numeric = NumericCode(info.code);
    int owners = 0;
    for (const CodeBand& band : bands) {
      if (numeric >= band.lo && numeric <= band.hi) ++owners;
    }
    EXPECT_EQ(owners, 1) << info.code << " is in " << owners << " bands";
  }
}

TEST(CodeRegistryTest, RetiredBandsOwnNoCode) {
  // FF100..FF299 belonged to the deleted workflow and I-UDTF SQL linters;
  // their numbers must never come back with a different meaning.
  int retired = 0;
  for (const CodeBand& band : DiagnosticCodeBands()) {
    if (band.pass != "retired") continue;
    ++retired;
    for (const CodeInfo& info : AllDiagnosticCodes()) {
      int numeric = NumericCode(info.code);
      EXPECT_TRUE(numeric < band.lo || numeric > band.hi)
          << info.code << " reuses a retired number";
    }
  }
  EXPECT_EQ(retired, 1);
  EXPECT_EQ(FindDiagnosticCode("FF111"), nullptr);
}

TEST(CodeRegistryTest, RuleNamesAreKebabCase) {
  for (const CodeInfo& info : AllDiagnosticCodes()) {
    EXPECT_FALSE(info.name.empty()) << info.code;
    for (char c : info.name) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) || c == '-')
          << info.code << " rule name '" << info.name << "'";
    }
    EXPECT_FALSE(info.summary.empty()) << info.code;
  }
}

TEST(CodeRegistryTest, LookupFindsKnownAndRejectsUnknown) {
  const CodeInfo* info = FindDiagnosticCode("FF410");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "df-unbounded-invocations");
  EXPECT_EQ(info->severity, Severity::kWarning);
  EXPECT_EQ(FindDiagnosticCode("FF999"), nullptr);
}

TEST(CodeRegistryTest, RegistryCoversTheEmittableConstants) {
  for (const char* code :
       {kSpecDanglingNode, kSpecArityMismatch, kPlanCompileFailed,
        kDfCastNeverSucceeds, kDfUnboundedInvocations, kDfInvocationExplosion,
        kDfScalarOfMultiRow, kDfUnboundedLoopUnion, kDfDeadlineInfeasible,
        kDfRetryScheduleInfeasible, kDfColdStartOverDeadline,
        kDfSharedLeaseFlow, kDfStageOverTenantQuota, kSagaMissingCompensation,
        kSagaCompensationMismatch, kSagaWriteInLoop, kSagaRetryWithoutLedger,
        kSagaAmbiguousStep, kSagaCaptureUnordered}) {
    EXPECT_NE(FindDiagnosticCode(code), nullptr) << code << " unregistered";
  }
}

TEST(CodeRegistryTest, EveryCodeIsDocumentedInDesignDoc) {
  std::ifstream in(std::string(FEDFLOW_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(in.good()) << "DESIGN.md not found under FEDFLOW_SOURCE_DIR";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string design = buffer.str();
  for (const CodeInfo& info : AllDiagnosticCodes()) {
    EXPECT_NE(design.find(info.code), std::string::npos)
        << info.code << " (" << info.name << ") is not documented in DESIGN.md";
  }
}

}  // namespace
}  // namespace fedflow::analysis
