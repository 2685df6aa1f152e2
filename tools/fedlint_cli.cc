#include "fedlint_cli.h"

#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/code_registry.h"
#include "analysis/corpus.h"
#include "analysis/dataflow/dataflow_lint.h"
#include "analysis/plan_lint.h"
#include "analysis/spec_lint.h"
#include "appsys/dataset.h"
#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/registry.h"
#include "appsys/stockkeeping.h"
#include "federation/sample_scenario.h"
#include "sim/latency.h"

namespace fedflow::tools {

namespace {

using namespace fedflow::analysis;  // NOLINT(google-build-using-namespace)

__attribute__((format(printf, 1, 2)))
std::string Sprintf(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

constexpr char kUsage[] =
    "usage: fedlint [--list-corpus | --corpus NAME | --corpus-all]\n"
    "               [--format=text|json|sarif] [--strict]\n"
    "\n"
    "  (no mode)       lint the full sample scenario, all three passes\n"
    "  --list-corpus   print the corpus entry names (malformed + semantic)\n"
    "  --corpus NAME   lint one corpus entry\n"
    "  --corpus-all    lint every corpus entry\n"
    "  --format=F      output format: text (default), json, sarif\n"
    "  --strict        exit 1 when the findings are warnings only\n";

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatJson(const std::vector<Diagnostic>& diags) {
  size_t errors = 0;
  size_t warnings = 0;
  std::string out = "{\n  \"findings\": [";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    (d.severity == Severity::kError ? errors : warnings) += 1;
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"severity\": \"";
    out += SeverityName(d.severity);
    out += "\", \"code\": \"" + JsonEscape(d.code) + "\", \"location\": \"" +
           JsonEscape(d.location) + "\", \"message\": \"" +
           JsonEscape(d.message) + "\", \"note\": \"" + JsonEscape(d.note) +
           "\"}";
  }
  out += diags.empty() ? "],\n" : "\n  ],\n";
  out += "  \"errors\": " + std::to_string(errors) +
         ",\n  \"warnings\": " + std::to_string(warnings) + "\n}\n";
  return out;
}

/// SARIF 2.1.0: the diagnostic-code registry becomes the tool's rule table,
/// each finding a result whose logical location is the diagnostic path.
std::string FormatSarif(const std::vector<Diagnostic>& diags) {
  std::string out =
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"fedlint\",\n"
      "          \"rules\": [";
  const std::vector<CodeInfo>& codes = AllDiagnosticCodes();
  for (size_t i = 0; i < codes.size(); ++i) {
    const CodeInfo& info = codes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "            {\"id\": \"" + JsonEscape(info.code) +
           "\", \"name\": \"" + JsonEscape(info.name) +
           "\", \"shortDescription\": {\"text\": \"" +
           JsonEscape(info.summary) +
           "\"}, \"defaultConfiguration\": {\"level\": \"" +
           std::string(info.severity == Severity::kError ? "error"
                                                         : "warning") +
           "\"}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    std::string text = d.message;
    if (!d.note.empty()) text += "; note: " + d.note;
    out += i == 0 ? "\n" : ",\n";
    out += "        {\"ruleId\": \"" + JsonEscape(d.code) +
           "\", \"level\": \"" +
           std::string(d.severity == Severity::kError ? "error" : "warning") +
           "\", \"message\": {\"text\": \"" + JsonEscape(text) +
           "\"}, \"locations\": [{\"logicalLocations\": "
           "[{\"fullyQualifiedName\": \"" +
           JsonEscape(d.location) + "\"}]}]}";
  }
  out += diags.empty() ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

/// The registry the sample scenario and the corpus lint against.
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

/// A compile failure rendered as a diagnostic, so the machine formats carry
/// it like any other finding (same FF304 family the plan pass uses).
Diagnostic CompileFailure(const std::string& spec_name,
                          const std::string& what, const Status& status) {
  return Diagnostic{Severity::kError, kPlanCompileFailed, "spec:" + spec_name,
                    what + " failed: " + status.ToString(), ""};
}

/// Lints one sample spec through all three passes.
std::vector<Diagnostic> LintSampleSpec(
    const federation::FederatedFunctionSpec& spec,
    const appsys::AppSystemRegistry& systems, const sim::LatencyModel& model) {
  // Pass 1: the spec itself.
  std::vector<Diagnostic> diags = LintSpec(spec, systems);

  // Pass 2: plan consistency — the optimized plan's lowerings must agree
  // with the IR on call set, ordering, classification and sunk predicates
  // (FF3xx). Checked in both passthrough and fully-optimized modes.
  {
    std::vector<Diagnostic> pl = LintPlan(spec, systems, model);
    diags.insert(diags.end(), pl.begin(), pl.end());
    plan::PlanOptions optimized;
    optimized.parallelize = true;
    optimized.reorder = true;
    optimized.sink_predicates = true;
    std::vector<Diagnostic> po = LintPlan(spec, systems, model, optimized);
    diags.insert(diags.end(), po.begin(), po.end());
  }

  // Pass 3: the dataflow analyses, under the paper's default deployment
  // (single controller, no deadline).
  Result<DataflowResult> df = RunDataflow(spec, systems, model);
  if (df.ok()) {
    diags.insert(diags.end(), df->diagnostics.begin(), df->diagnostics.end());
  } else {
    diags.push_back(
        CompileFailure(spec.name, "dataflow analysis", df.status()));
  }
  return diags;
}

/// Lints a semantic corpus entry: spec shape first, then the dataflow pass
/// under the entry's deployment facts.
std::vector<Diagnostic> LintSemanticEntry(
    const SemanticCorpusEntry& entry, const appsys::AppSystemRegistry& systems,
    const sim::LatencyModel& model) {
  std::vector<Diagnostic> diags = LintSpec(entry.spec, systems);
  if (HasErrors(diags)) return diags;  // not "syntactically clean" after all
  DataflowOptions options;
  options.deadline_us = entry.deadline_us;
  options.retry = entry.retry;
  options.pool_max_size = entry.pool_max_size;
  options.per_tenant_quota = entry.per_tenant_quota;
  options.parallelize = entry.parallelize;
  Result<DataflowResult> df = RunDataflow(entry.spec, systems, model, options);
  if (df.ok()) {
    diags.insert(diags.end(), df->diagnostics.begin(), df->diagnostics.end());
  } else {
    diags.push_back(
        CompileFailure(entry.spec.name, "dataflow analysis", df.status()));
  }
  return diags;
}

int ExitCode(const std::vector<Diagnostic>& diags, bool strict) {
  if (HasErrors(diags)) return 2;
  if (!diags.empty()) return strict ? 1 : 0;
  return 0;
}

int RunListCorpus(std::string* output) {
  for (const CorpusEntry& e : MalformedSpecCorpus()) {
    *output += Sprintf("%-26s %s at %s\n", e.name.c_str(),
                                 e.expected_code.c_str(),
                                 e.expected_location.c_str());
  }
  for (const SemanticCorpusEntry& e : SemanticSpecCorpus()) {
    *output += Sprintf("%-26s %s at %s\n", e.name.c_str(),
                                 e.expected_code.c_str(),
                                 e.expected_location.c_str());
  }
  return 0;
}

int RunCorpus(const CliOptions& options, std::string* output) {
  Result<appsys::AppSystemRegistry> systems = SampleRegistry();
  if (!systems.ok()) {
    *output += "error: " + systems.status().ToString() + "\n";
    return 2;
  }
  sim::LatencyModel model;
  const bool all = options.mode == LintMode::kCorpusAll;

  std::vector<Diagnostic> diags;
  bool matched = false;
  for (const CorpusEntry& e : MalformedSpecCorpus()) {
    if (!all && e.name != options.corpus_name) continue;
    matched = true;
    if (options.format == OutputFormat::kText) {
      *output += Sprintf("corpus entry '%s' (expect %s):\n",
                                   e.name.c_str(), e.expected_code.c_str());
    }
    std::vector<Diagnostic> found = LintSpec(e.spec, *systems);
    if (options.format == OutputFormat::kText) {
      *output += FormatFindings(found, options.format);
    }
    diags.insert(diags.end(), found.begin(), found.end());
  }
  for (const SemanticCorpusEntry& e : SemanticSpecCorpus()) {
    if (!all && e.name != options.corpus_name) continue;
    matched = true;
    if (options.format == OutputFormat::kText) {
      *output += Sprintf("corpus entry '%s' (expect %s):\n",
                                   e.name.c_str(), e.expected_code.c_str());
    }
    std::vector<Diagnostic> found = LintSemanticEntry(e, *systems, model);
    if (options.format == OutputFormat::kText) {
      *output += FormatFindings(found, options.format);
    }
    diags.insert(diags.end(), found.begin(), found.end());
  }
  if (!matched) {
    *output += "unknown corpus entry; try --list-corpus\n";
    return 2;
  }
  if (options.format != OutputFormat::kText) {
    *output += FormatFindings(diags, options.format);
  }
  // Corpus entries exist to be defective: findings here are the expected
  // outcome, and the exit code says "defects found" like the sample mode.
  return ExitCode(diags, options.strict);
}

int RunSample(const CliOptions& options, std::string* output) {
  Result<appsys::AppSystemRegistry> systems = SampleRegistry();
  if (!systems.ok()) {
    *output += "error: " + systems.status().ToString() + "\n";
    return 2;
  }

  sim::LatencyModel model;
  std::vector<Diagnostic> diags;
  for (const federation::FederatedFunctionSpec& spec :
       federation::AllSampleSpecs()) {
    std::vector<Diagnostic> found = LintSampleSpec(spec, *systems, model);
    if (options.format == OutputFormat::kText) {
      if (found.empty()) {
        *output += Sprintf("%-22s clean\n", spec.name.c_str());
      } else {
        *output += Sprintf("%-22s %zu finding(s)\n",
                                     spec.name.c_str(), found.size());
        *output += FormatFindings(found, options.format);
      }
    }
    diags.insert(diags.end(), found.begin(), found.end());
  }

  if (options.format != OutputFormat::kText) {
    *output += FormatFindings(diags, options.format);
    return ExitCode(diags, options.strict);
  }
  size_t errors = Filter(diags, Severity::kError).size();
  size_t warnings = diags.size() - errors;
  *output += Sprintf(
      "sample scenario: %zu error(s), %zu warning(s) across all passes\n",
      errors, warnings);
  return ExitCode(diags, options.strict);
}

}  // namespace

bool ParseCliArgs(const std::vector<std::string>& args, CliOptions* options,
                  std::string* error) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--list-corpus") {
      options->mode = LintMode::kListCorpus;
    } else if (arg == "--corpus-all") {
      options->mode = LintMode::kCorpusAll;
    } else if (arg == "--corpus") {
      if (i + 1 >= args.size()) {
        *error = std::string("--corpus needs an entry name\n") + kUsage;
        return false;
      }
      options->mode = LintMode::kCorpusOne;
      options->corpus_name = args[++i];
    } else if (arg == "--strict") {
      options->strict = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      std::string fmt = arg.substr(9);
      if (fmt == "text") {
        options->format = OutputFormat::kText;
      } else if (fmt == "json") {
        options->format = OutputFormat::kJson;
      } else if (fmt == "sarif") {
        options->format = OutputFormat::kSarif;
      } else {
        *error = "unknown format '" + fmt + "'\n" + kUsage;
        return false;
      }
    } else {
      *error = "unknown argument '" + arg + "'\n" + kUsage;
      return false;
    }
  }
  return true;
}

std::string FormatFindings(const std::vector<analysis::Diagnostic>& diags,
                           OutputFormat format) {
  switch (format) {
    case OutputFormat::kJson:
      return FormatJson(diags);
    case OutputFormat::kSarif:
      return FormatSarif(diags);
    case OutputFormat::kText:
      break;
  }
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.ToString() + "\n";
  }
  return out;
}

int RunFedlint(const CliOptions& options, std::string* output) {
  switch (options.mode) {
    case LintMode::kListCorpus:
      return RunListCorpus(output);
    case LintMode::kCorpusOne:
    case LintMode::kCorpusAll:
      return RunCorpus(options, output);
    case LintMode::kSample:
      break;
  }
  return RunSample(options, output);
}

}  // namespace fedflow::tools
