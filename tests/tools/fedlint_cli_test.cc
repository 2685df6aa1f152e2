// Tests for the fedlint CLI contract: argument parsing, the three output
// formats, and the exit-code mapping (0 clean / warnings, 1 warnings under
// --strict, 2 errors, 64 usage — 64 is produced by main() on parse failure).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "fedlint_cli.h"

namespace fedflow::tools {
namespace {

using analysis::Diagnostic;
using analysis::Severity;

CliOptions MustParse(const std::vector<std::string>& args) {
  CliOptions options;
  std::string error;
  EXPECT_TRUE(ParseCliArgs(args, &options, &error)) << error;
  return options;
}

TEST(ParseCliArgsTest, RecognizesModesFormatsAndStrict) {
  EXPECT_EQ(MustParse({}).mode, LintMode::kSample);
  EXPECT_EQ(MustParse({"--list-corpus"}).mode, LintMode::kListCorpus);
  EXPECT_EQ(MustParse({"--corpus-all"}).mode, LintMode::kCorpusAll);

  CliOptions one = MustParse({"--corpus", "dead-node"});
  EXPECT_EQ(one.mode, LintMode::kCorpusOne);
  EXPECT_EQ(one.corpus_name, "dead-node");

  EXPECT_EQ(MustParse({"--format=json"}).format, OutputFormat::kJson);
  EXPECT_EQ(MustParse({"--format=sarif"}).format, OutputFormat::kSarif);
  EXPECT_EQ(MustParse({"--format=text"}).format, OutputFormat::kText);
  EXPECT_TRUE(MustParse({"--strict"}).strict);
  EXPECT_FALSE(MustParse({}).strict);
}

TEST(ParseCliArgsTest, RejectsUnknownArgumentsWithUsage) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliArgs({"--bogus"}, &options, &error));
  EXPECT_NE(error.find("usage:"), std::string::npos);
  EXPECT_FALSE(ParseCliArgs({"--format=yaml"}, &options, &error));
  EXPECT_FALSE(ParseCliArgs({"--corpus"}, &options, &error));
}

TEST(RunFedlintTest, SampleModeIsWarningsOnlyByDefault) {
  std::string output;
  CliOptions options;
  // The sample scenario carries one FF410 warning (GetSubCompDiscounts), so
  // plain fedlint exits 0 and --strict flips it to 1.
  EXPECT_EQ(RunFedlint(options, &output), 0);
  EXPECT_NE(output.find("FF410"), std::string::npos);

  options.strict = true;
  output.clear();
  EXPECT_EQ(RunFedlint(options, &output), 1);
}

TEST(RunFedlintTest, CorpusModesExitTwoOnErrors) {
  CliOptions options;
  options.mode = LintMode::kCorpusAll;
  std::string output;
  EXPECT_EQ(RunFedlint(options, &output), 2);

  options.mode = LintMode::kCorpusOne;
  options.corpus_name = "cast-never-succeeds";
  output.clear();
  EXPECT_EQ(RunFedlint(options, &output), 2);
  EXPECT_NE(output.find("FF400"), std::string::npos);
  EXPECT_NE(output.find("spec:CastNever/output:Reliable"), std::string::npos);

  options.corpus_name = "no-such-entry";
  output.clear();
  EXPECT_EQ(RunFedlint(options, &output), 2);
  EXPECT_NE(output.find("unknown corpus entry"), std::string::npos);
}

TEST(RunFedlintTest, WarningsOnlyCorpusEntryHonorsStrict) {
  CliOptions options;
  options.mode = LintMode::kCorpusOne;
  options.corpus_name = "unused-param";  // FF050, warning severity
  std::string output;
  EXPECT_EQ(RunFedlint(options, &output), 0);
  options.strict = true;
  output.clear();
  EXPECT_EQ(RunFedlint(options, &output), 1);
}

TEST(RunFedlintTest, ListCorpusNamesBothCorpora) {
  CliOptions options;
  options.mode = LintMode::kListCorpus;
  std::string output;
  EXPECT_EQ(RunFedlint(options, &output), 0);
  EXPECT_NE(output.find("dead-node"), std::string::npos);            // malformed
  EXPECT_NE(output.find("stage-over-tenant-quota"), std::string::npos);
}

TEST(FormatFindingsTest, TextIsOneDiagnosticPerLine) {
  std::vector<Diagnostic> diags = {
      Diagnostic{Severity::kError, "FF400", "spec:X/output:Y", "bad cast", ""},
      Diagnostic{Severity::kWarning, "FF410", "spec:X/node:N", "unbounded",
                 "hint"}};
  std::string text = FormatFindings(diags, OutputFormat::kText);
  EXPECT_NE(text.find("error[FF400] spec:X/output:Y: bad cast"),
            std::string::npos);
  EXPECT_NE(text.find("note: hint"), std::string::npos);
}

TEST(FormatFindingsTest, JsonEscapesAndCounts) {
  std::vector<Diagnostic> diags = {Diagnostic{
      Severity::kError, "FF400", "spec:X", "a \"quoted\"\nmessage", ""}};
  std::string json = FormatFindings(diags, OutputFormat::kJson);
  EXPECT_NE(json.find("\\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 0"), std::string::npos);
}

TEST(FormatFindingsTest, SarifCarriesRuleTableAndLogicalLocations) {
  std::vector<Diagnostic> diags = {Diagnostic{
      Severity::kWarning, "FF410", "spec:X/node:N", "unbounded", ""}};
  std::string sarif = FormatFindings(diags, OutputFormat::kSarif);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  // The registry's rule metadata rides along...
  EXPECT_NE(sarif.find("\"id\": \"FF410\""), std::string::npos);
  EXPECT_NE(sarif.find("df-unbounded-invocations"), std::string::npos);
  // ...and the finding references it with its logical location.
  EXPECT_NE(sarif.find("\"ruleId\": \"FF410\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"spec:X/node:N\""),
            std::string::npos);
  // Retired codes (FF100..FF299) are gone from the rule table.
  EXPECT_EQ(sarif.find("\"id\": \"FF111\""), std::string::npos);
}

TEST(FormatFindingsTest, EmptyInputsStayWellFormed) {
  std::string json = FormatFindings({}, OutputFormat::kJson);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
  std::string sarif = FormatFindings({}, OutputFormat::kSarif);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

}  // namespace
}  // namespace fedflow::tools
