// fedfuzz: differential fuzzing of the coupling stack, driven by the
// generative spec fuzzer (analysis/specgen.h).
//
// For every seed the harness generates a lint-clean federated-function spec
// (cycling the paper's whole mapping-complexity matrix), then checks three
// oracles against the live couplings:
//
//   1. Static:   the generated spec must carry no error-severity findings
//                (spec lint + the FF4xx dataflow analyses) and must classify
//                as the case the generator intended.
//   2. Register: every architecture that supports the spec's class must
//                accept it; every architecture that does not must reject it.
//                Registration runs the full gate, so this is where plan lint
//                (FF3xx) is exercised.
//   3. Execute:  all accepting architectures must return the same result
//                (schema + row multiset), and the observed row counts and
//                per-function local-call counts must fall inside the
//                intervals the cardinality analysis predicted.
//   4. Saga:     every seed also generates a write-path spec (mutating steps
//                with compensations). It must register under every coupling,
//                commit exactly once when healthy, and — when one write's
//                acknowledgement is lost with retries disabled — abort with
//                compensations that restore every store's state fingerprint
//                while data versions only move forward.
//   5. Columnar: every read execution is mirrored on a second server fleet
//                running with columnar execution disabled. Row and columnar
//                transports must agree on the result schema, the row
//                multiset, and the virtual-time total — the transport is a
//                wall-clock optimization and nothing else. (Failing
//                statements are exempt from comparison: the two scan orders
//                may surface a different row's error.)
//
//   fedfuzz [--seeds N] [--start S] [--report]
//
// Exit 0 when every seed passes, 1 on any violation, 64 on usage errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cstring>
#include <memory>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataflow/dataflow_lint.h"
#include "analysis/spec_lint.h"
#include "analysis/specgen.h"
#include "appsys/dataset.h"
#include "federation/classify.h"
#include "federation/integration_server.h"
#include "federation/java_coupling.h"
#include "txn/saga.h"

namespace {

using namespace fedflow;            // NOLINT(google-build-using-namespace)
using federation::Architecture;
using federation::IntegrationServer;
using federation::MappingCase;

struct Options {
  std::uint64_t seeds = 200;
  std::uint64_t start = 0;
  bool report = false;
};

/// Per-(SYSTEM.FUNCTION) call counts across one server's app systems.
std::map<std::string, int64_t> AllCounts(const IntegrationServer& server) {
  std::map<std::string, int64_t> counts;
  for (const std::string& name : server.systems().Names()) {
    Result<appsys::AppSystem*> system = server.systems().Get(name);
    if (!system.ok()) continue;
    for (const auto& [fn, n] : (*system)->FunctionCallCounts()) {
      counts[(*system)->name() + "." + fn] += n;
    }
  }
  return counts;
}

/// observed - before, dropping zero deltas.
std::map<std::string, int64_t> Delta(const std::map<std::string, int64_t>& before,
                                     const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> delta;
  for (const auto& [key, n] : after) {
    int64_t b = 0;
    auto it = before.find(key);
    if (it != before.end()) b = it->second;
    if (n != b) delta[key] = n - b;
  }
  return delta;
}

/// Per-system state fingerprints — the saga oracle's before/after witness.
std::map<std::string, std::string> Fingerprints(const IntegrationServer& server) {
  std::map<std::string, std::string> fps;
  for (const std::string& name : server.systems().Names()) {
    Result<appsys::AppSystem*> system = server.systems().Get(name);
    if (system.ok()) fps[name] = (*system)->StateFingerprint();
  }
  return fps;
}

/// Per-system data versions (mutation counters; must never move backwards).
std::map<std::string, int64_t> Versions(const IntegrationServer& server) {
  std::map<std::string, int64_t> versions;
  for (const std::string& name : server.systems().Names()) {
    Result<appsys::AppSystem*> system = server.systems().Get(name);
    if (system.ok()) versions[name] = (*system)->data_version();
  }
  return versions;
}

/// Sorted textual row multiset — row order is not part of the contract.
std::vector<std::string> RowSet(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (const auto& row : table.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += "|";
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Upper(std::string s) {
  for (char& ch : s) ch = static_cast<char>(std::toupper(ch));
  return s;
}

class Harness {
 public:
  Harness() : scenario_(appsys::GenerateScenario({})), generator_(scenario_) {
    static constexpr Architecture kArchs[] = {
        Architecture::kWfms, Architecture::kUdtf, Architecture::kJavaUdtf};
    for (int a = 0; a < 3; ++a) {
      Result<std::unique_ptr<IntegrationServer>> server =
          IntegrationServer::Create(kArchs[a], scenario_);
      if (server.ok()) servers_[a] = std::move(*server);
      // The row-transport mirror fleet for oracle 5: identical scenario and
      // call sequence, columnar execution off.
      Result<std::unique_ptr<IntegrationServer>> mirror =
          IntegrationServer::Create(kArchs[a], scenario_);
      if (mirror.ok()) {
        (*mirror)->set_columnar_execution(false);
        row_servers_[a] = std::move(*mirror);
      }
    }
  }

  bool RunSeed(std::uint64_t seed) {
    analysis::GeneratedSpec gen = generator_.Generate(seed);
    ++case_count_[static_cast<int>(gen.mapping_case)];
    bool ok = CheckSpec(seed, gen.mapping_case, gen.spec, gen.args);
    if (gen.sibling.has_value()) {
      // The general case's sibling classifies on its own; registration and
      // execution must still agree. Both members live on the same servers,
      // which is exactly the shared-local-function deployment.
      ok = CheckSpec(seed, MappingCase::kGeneral, *gen.sibling,
                     gen.sibling_args) &&
           ok;
    }
    return ok;
  }

  /// Oracle 4: the abort-restores-state check over a generated write spec.
  /// Runs on both fleets — committed writes mutate store state, so the
  /// row-transport mirror must apply the same writes in the same order or
  /// oracle 5's read comparisons would diverge on data, not transport.
  bool RunWriteSeed(std::uint64_t seed) {
    return RunWriteSeedOn(seed, servers_) && RunWriteSeedOn(seed, row_servers_);
  }

  bool RunWriteSeedOn(std::uint64_t seed,
                      std::unique_ptr<IntegrationServer>* fleet) {
    analysis::GeneratedSpec gen = generator_.GenerateWriteSpec(seed);
    const std::string& name = gen.spec.name;
    for (int a = 0; a < 3; ++a) {
      IntegrationServer& server = *fleet[a];
      const std::string arch =
          federation::ArchitectureName(server.architecture());
      Status status = server.RegisterFederatedFunction(gen.spec);
      if (!status.ok()) {
        return Fail(seed, name,
                    arch + " rejected a gated write spec: " + status.ToString());
      }
      const txn::SagaSpecInfo* info = server.saga_runtime().Find(name);
      if (info == nullptr || info->writes.empty()) {
        return Fail(seed, name, arch + " registration built no saga view");
      }

      // Healthy pass: the saga must commit, applying every write once.
      Result<IntegrationServer::TimedResult> committed =
          server.CallFederated(name, gen.args);
      if (!committed.ok()) {
        return Fail(seed, name,
                    arch + " commit pass failed: " +
                        committed.status().ToString());
      }
      std::optional<txn::SagaOutcome> outcome =
          server.saga_runtime().LastOutcome(name);
      if (!outcome.has_value() || outcome->aborted ||
          outcome->steps_applied !=
              static_cast<int64_t>(info->writes.size())) {
        return Fail(seed, name, arch + " commit outcome is not exactly-once");
      }
      ++write_commits_;

      // Abort pass: lose the acknowledgement of one (seed- and
      // architecture-chosen) write. Retries are disabled on these servers,
      // so the coordinator must run backward recovery: the compensations
      // restore every fingerprint while data versions only move forward.
      const txn::SagaStep& faulted =
          info->writes[(seed + static_cast<std::uint64_t>(a)) %
                       info->writes.size()];
      std::map<std::string, std::string> fp_before = Fingerprints(server);
      std::map<std::string, int64_t> ver_before = Versions(server);
      server.fault_injector().InjectTransientFailures(faulted.function, 1);
      Result<IntegrationServer::TimedResult> failed =
          server.CallFederated(name, gen.args);
      server.fault_injector().ClearProfiles();
      if (failed.ok()) {
        return Fail(seed, name,
                    arch + ": lost write acknowledgement did not fail the call");
      }
      outcome = server.saga_runtime().LastOutcome(name);
      if (!outcome.has_value() || !outcome->aborted) {
        return Fail(seed, name, arch + " did not record a saga abort");
      }
      if (outcome->compensations_run != outcome->steps_applied ||
          outcome->compensation_failures != 0) {
        return Fail(seed, name,
                    arch + " backward recovery incomplete (" +
                        std::to_string(outcome->compensations_run) + " of " +
                        std::to_string(outcome->steps_applied) +
                        " applied step(s) compensated)");
      }
      if (Fingerprints(server) != fp_before) {
        return Fail(
            seed, name,
            arch + " abort did not restore the store state fingerprints");
      }
      std::map<std::string, int64_t> ver_after = Versions(server);
      for (const auto& [system, before] : ver_before) {
        if (ver_after[system] < before) {
          return Fail(seed, name,
                      "data version of " + system + " moved backwards");
        }
      }
      if (server.saga_runtime().ledger_size() != 0) {
        return Fail(seed, name, arch + " left dedup ledger entries behind");
      }
      ++write_aborts_;
    }
    return true;
  }

  void PrintReport(std::uint64_t seeds) const {
    std::printf("fedfuzz coverage over %llu seed(s):\n",
                static_cast<unsigned long long>(seeds));
    static constexpr MappingCase kCases[] = {
        MappingCase::kTrivial,         MappingCase::kSimple,
        MappingCase::kIndependent,     MappingCase::kDependentLinear,
        MappingCase::kDependent1N,     MappingCase::kDependentN1,
        MappingCase::kDependentCyclic, MappingCase::kGeneral,
    };
    for (MappingCase c : kCases) {
      std::printf("  %-18s %llu spec(s)\n", federation::MappingCaseName(c),
                  static_cast<unsigned long long>(
                      case_count_[static_cast<int>(c)]));
    }
    std::printf("  executions checked: %llu, bound checks: %llu\n",
                static_cast<unsigned long long>(executions_),
                static_cast<unsigned long long>(bound_checks_));
    std::printf("  saga oracle: %llu commit(s), %llu abort(s) verified\n",
                static_cast<unsigned long long>(write_commits_),
                static_cast<unsigned long long>(write_aborts_));
    std::printf("  columnar oracle: %llu row-vs-columnar comparison(s)\n",
                static_cast<unsigned long long>(columnar_diffs_));
  }

 private:
  bool Fail(std::uint64_t seed, const std::string& spec_name,
            const std::string& what) {
    std::printf("FAIL seed=%llu spec=%s: %s\n",
                static_cast<unsigned long long>(seed), spec_name.c_str(),
                what.c_str());
    return false;
  }

  bool CheckSpec(std::uint64_t seed, MappingCase intended,
                 const federation::FederatedFunctionSpec& spec,
                 const std::vector<Value>& args) {
    IntegrationServer& wfms = *servers_[0];

    // Oracle 1: statically clean and correctly classified.
    std::vector<analysis::Diagnostic> diags =
        analysis::LintSpec(spec, wfms.systems());
    Result<analysis::DataflowResult> dataflow = analysis::RunDataflow(
        spec, wfms.systems(), wfms.model(), analysis::DataflowOptions{});
    if (!dataflow.ok()) {
      return Fail(seed, spec.name,
                  "dataflow analysis failed: " + dataflow.status().ToString());
    }
    for (const analysis::Diagnostic& d : dataflow->diagnostics) {
      diags.push_back(d);
    }
    if (analysis::HasErrors(diags)) {
      return Fail(seed, spec.name,
                  "generated spec has error findings (generator bug):\n" +
                      analysis::FormatDiagnostics(analysis::Filter(
                          diags, analysis::Severity::kError)));
    }
    Result<MappingCase> classified = federation::ClassifySpec(spec);
    if (!classified.ok()) {
      return Fail(seed, spec.name,
                  "classification failed: " + classified.status().ToString());
    }
    if (intended != MappingCase::kGeneral && *classified != intended) {
      return Fail(seed, spec.name,
                  std::string("classified as ") +
                      federation::MappingCaseName(*classified) +
                      ", generator intended " +
                      federation::MappingCaseName(intended));
    }

    // Oracle 2: the support matrix decides registration. The SQL I-UDTF
    // cannot express cycles; the procedural (Java) I-UDTF loops client-side
    // and only the cross-spec general case is beyond it.
    bool expected[3] = {federation::WfmsSupports(*classified),
                        federation::UdtfSupports(*classified),
                        federation::JavaUdtfSupports(*classified)};
    bool registered[3] = {false, false, false};
    for (int a = 0; a < 3; ++a) {
      bool expect = expected[a];
      Status status = servers_[a]->RegisterFederatedFunction(spec);
      if (status.ok() != expect) {
        return Fail(
            seed, spec.name,
            std::string(federation::ArchitectureName(
                servers_[a]->architecture())) +
                (expect ? " rejected a supported spec: " + status.ToString()
                        : " accepted an unsupported (cyclic/general) spec"));
      }
      registered[a] = status.ok();
      // The mirror fleet must make the same registration decision; keep it
      // in lockstep so later executions see identical server state.
      Status mirror_status = row_servers_[a]->RegisterFederatedFunction(spec);
      if (mirror_status.ok() != status.ok()) {
        return Fail(seed, spec.name,
                    std::string(federation::ArchitectureName(
                        servers_[a]->architecture())) +
                        " row-transport mirror disagreed on registration");
      }
    }

    // Tight cardinality bounds: re-run the analysis with the loop count the
    // execution will actually use.
    analysis::DataflowOptions bound_options;
    if (spec.loop.enabled) {
      for (size_t i = 0; i < spec.params.size(); ++i) {
        if (Upper(spec.params[i].name) == Upper(spec.loop.count_param)) {
          bound_options.concrete_loop_count = args[i].AsInt();
        }
      }
    }
    Result<analysis::DataflowResult> bounds = analysis::RunDataflow(
        spec, wfms.systems(), wfms.model(), bound_options);
    if (!bounds.ok()) {
      return Fail(seed, spec.name,
                  "bound analysis failed: " + bounds.status().ToString());
    }

    // Oracle 3: identical results everywhere, observations inside bounds.
    Schema first_schema;
    std::vector<std::string> first_rows;
    int first_arch = -1;
    for (int a = 0; a < 3; ++a) {
      if (!registered[a]) continue;
      IntegrationServer& server = *servers_[a];
      std::map<std::string, int64_t> before = AllCounts(server);
      Result<IntegrationServer::TimedResult> result =
          server.CallFederated(spec.name, args);
      if (!result.ok()) {
        return Fail(seed, spec.name,
                    std::string(federation::ArchitectureName(
                        server.architecture())) +
                        " execution failed: " + result.status().ToString());
      }
      ++executions_;
      std::map<std::string, int64_t> delta = Delta(before, AllCounts(server));

      if (first_arch < 0) {
        first_arch = a;
        first_schema = result->table.schema();
        first_rows = RowSet(result->table);
      } else {
        if (!(result->table.schema() == first_schema)) {
          return Fail(seed, spec.name, "result schema diverges across couplings");
        }
        if (RowSet(result->table) != first_rows) {
          return Fail(seed, spec.name,
                      "result rows diverge across couplings (" +
                          std::to_string(first_rows.size()) + " vs " +
                          std::to_string(result->table.num_rows()) + ")");
        }
      }
      if (!CheckBounds(seed, spec, *bounds, a == 0, result->table.num_rows(),
                       delta)) {
        return false;
      }

      // Oracle 5: the row-transport mirror must produce the same table and
      // the same virtual-time total. Both calls succeeded (the primary was
      // checked above), so the error-divergence exemption does not apply.
      Result<IntegrationServer::TimedResult> mirror =
          row_servers_[a]->CallFederated(spec.name, args);
      if (!mirror.ok()) {
        return Fail(seed, spec.name,
                    std::string(federation::ArchitectureName(
                        servers_[a]->architecture())) +
                        " row-transport mirror failed where columnar "
                        "succeeded: " +
                        mirror.status().ToString());
      }
      ++columnar_diffs_;
      if (!(mirror->table.schema() == result->table.schema())) {
        return Fail(seed, spec.name,
                    "row and columnar transports disagree on the schema");
      }
      if (RowSet(mirror->table) != RowSet(result->table)) {
        // Show the first differing row of each multiset for diagnosis.
        std::vector<std::string> lhs = RowSet(mirror->table);
        std::vector<std::string> rhs = RowSet(result->table);
        auto [li, ri] = std::mismatch(lhs.begin(), lhs.end(), rhs.begin(),
                                      rhs.end());
        std::string detail;
        if (li != lhs.end()) detail += " row=[" + *li + "]";
        if (ri != rhs.end()) detail += " col=[" + *ri + "]";
        return Fail(seed, spec.name,
                    "row and columnar transports disagree on the rows (" +
                        std::to_string(lhs.size()) + " vs " +
                        std::to_string(rhs.size()) + ")" + detail);
      }
      if (mirror->elapsed_us != result->elapsed_us) {
        return Fail(seed, spec.name,
                    "row and columnar transports disagree on virtual time (" +
                        std::to_string(mirror->elapsed_us) + "us vs " +
                        std::to_string(result->elapsed_us) + "us)");
      }
    }
    return true;
  }

  /// Observed row count and per-function call counts against the intervals
  /// the cardinality analysis predicted for this lowering.
  bool CheckBounds(std::uint64_t seed,
                   const federation::FederatedFunctionSpec& spec,
                   const analysis::DataflowResult& bounds, bool wfms_lowering,
                   size_t observed_rows,
                   const std::map<std::string, int64_t>& delta) {
    ++bound_checks_;
    const analysis::dataflow::Interval& rows =
        wfms_lowering ? bounds.result_rows_wfms : bounds.result_rows_udtf;
    if (!rows.Contains(static_cast<int64_t>(observed_rows))) {
      return Fail(seed, spec.name,
                  "observed " + std::to_string(observed_rows) +
                      " result row(s), analysis predicted " + rows.ToString());
    }
    // Sum the per-node invocation intervals per local function.
    std::map<std::string, analysis::dataflow::Interval> predicted;
    for (size_t i = 0; i < bounds.cards.size(); ++i) {
      const federation::SpecCall* call = nullptr;
      for (const federation::SpecCall& c : spec.calls) {
        if (Upper(c.id) == Upper(bounds.call_ids[i])) call = &c;
      }
      if (call == nullptr) continue;
      std::string key = call->system + "." + Upper(call->function);
      const analysis::dataflow::Interval& inv =
          wfms_lowering ? bounds.cards[i].invocations_wfms
                        : bounds.cards[i].invocations_udtf;
      auto [it, inserted] = predicted.emplace(key, inv);
      if (!inserted) it->second = it->second.Add(inv);
    }
    for (const auto& [key, observed] : delta) {
      auto it = predicted.find(key);
      if (it == predicted.end()) {
        return Fail(seed, spec.name,
                    "observed calls to " + key +
                        " which the analysis did not predict at all");
      }
      if (!it->second.Contains(observed)) {
        return Fail(seed, spec.name,
                    "observed " + std::to_string(observed) + " call(s) to " +
                        key + ", analysis predicted " + it->second.ToString());
      }
    }
    for (const auto& [key, interval] : predicted) {
      if (interval.min > 0 && delta.find(key) == delta.end()) {
        return Fail(seed, spec.name,
                    "analysis predicted at least " +
                        std::to_string(interval.min) + " call(s) to " + key +
                        " but none were observed");
      }
    }
    return true;
  }

  appsys::Scenario scenario_;
  analysis::SpecGenerator generator_;
  std::unique_ptr<IntegrationServer> servers_[3];
  std::unique_ptr<IntegrationServer> row_servers_[3];
  std::uint64_t case_count_[8] = {};
  std::uint64_t executions_ = 0;
  std::uint64_t bound_checks_ = 0;
  std::uint64_t write_commits_ = 0;
  std::uint64_t write_aborts_ = 0;
  std::uint64_t columnar_diffs_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      options.seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--start" && i + 1 < argc) {
      options.start = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--report") {
      options.report = true;
    } else {
      std::fprintf(stderr,
                   "usage: fedfuzz [--seeds N] [--start S] [--report]\n");
      return 64;
    }
  }

  Harness harness;
  std::uint64_t failures = 0;
  for (std::uint64_t seed = options.start; seed < options.start + options.seeds;
       ++seed) {
    if (!harness.RunSeed(seed)) ++failures;
    if (!harness.RunWriteSeed(seed)) ++failures;
  }
  if (options.report) harness.PrintReport(options.seeds);
  if (failures > 0) {
    std::printf("fedfuzz: %llu of %llu seed(s) FAILED\n",
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(options.seeds));
    return 1;
  }
  std::printf("fedfuzz: %llu seed(s) passed\n",
              static_cast<unsigned long long>(options.seeds));
  return 0;
}
