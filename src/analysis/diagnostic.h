// Structured diagnostics for fedlint, the static verification passes over
// federated-function specs and the plan IR they compile to. A
// Diagnostic pinpoints one defect with a stable code (FF###), a location path
// ("spec:BuySuppComp/node:CheckStock/arg:2") and a human-readable message, so
// defects are testable artifacts instead of free-text runtime errors.
#ifndef FEDFLOW_ANALYSIS_DIAGNOSTIC_H_
#define FEDFLOW_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

namespace fedflow::analysis {

/// How bad a finding is. Errors make registration fail; warnings are
/// collected and queryable but do not block.
enum class Severity {
  kWarning,
  kError,
};

/// Stable display name ("warning" / "error").
const char* SeverityName(Severity severity);

/// One finding of an analyzer pass.
///
/// Code ranges (stable, append-only):
///   FF001..FF049  spec errors          FF050..FF069  spec warnings
///   FF070..FF099  classification consistency
///   FF100..FF299  retired (the workflow and I-UDTF SQL linters); never reused
///   FF300..FF349  plan consistency (lowering agreement with the plan IR)
///   FF400..FF449  dataflow abstract interpretation (schema FF400..FF409,
///                 cardinality FF410..FF419, budget FF420..FF429,
///                 tenant-flow taint FF430..FF449)
///   FF450..FF459  saga coordination (write-path federated functions)
///
/// The authoritative per-code table (rule name, severity, summary) lives in
/// analysis/code_registry.h and is mirrored in DESIGN.md §13.1.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;      ///< stable code, e.g. "FF008"
  std::string location;  ///< path, e.g. "spec:BuySuppComp/node:GQ/arg:2"
  std::string message;   ///< what is wrong
  std::string note;      ///< optional hint on how to fix it (may be empty)

  /// "error[FF008] spec:X/node:GQ/arg:2: message" (plus "; note: ..." when a
  /// note is present).
  std::string ToString() const;
};

/// True when at least one diagnostic has error severity.
bool HasErrors(const std::vector<Diagnostic>& diagnostics);

/// Diagnostics of one severity, in input order.
std::vector<Diagnostic> Filter(const std::vector<Diagnostic>& diagnostics,
                               Severity severity);

/// The codes of `diagnostics`, in input order (golden-test helper).
std::vector<std::string> Codes(const std::vector<Diagnostic>& diagnostics);

/// One line per diagnostic, `ToString()` format, '\n'-joined.
std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics);

}  // namespace fedflow::analysis

#endif  // FEDFLOW_ANALYSIS_DIAGNOSTIC_H_
