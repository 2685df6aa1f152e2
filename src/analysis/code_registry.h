// The diagnostic-code registry: one table of every FF### code fedlint can
// emit, with its band, default severity and a one-line summary. The
// code_registry test pins uniqueness, band membership and documentation
// coverage (every code must appear in DESIGN.md); the SARIF writer renders
// the table as the tool's rule metadata.
#ifndef FEDFLOW_ANALYSIS_CODE_REGISTRY_H_
#define FEDFLOW_ANALYSIS_CODE_REGISTRY_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"

namespace fedflow::analysis {

/// One registered diagnostic code.
struct CodeInfo {
  std::string code;      ///< "FF410"
  Severity severity;     ///< the severity the passes emit it with
  std::string name;      ///< stable kebab-case rule name for SARIF
  std::string summary;   ///< one line, imperative
};

/// One contiguous code band and the pass that owns it. (Bands scope passes,
/// not severities — the dataflow bands carry both errors and warnings.) A
/// "retired" band owns no codes; its numbers are never reused.
struct CodeBand {
  int lo = 0;            ///< inclusive numeric code
  int hi = 0;            ///< inclusive numeric code
  std::string pass;      ///< "spec" / "plan" / "dataflow" / "saga" / "retired"
};

/// Every code any fedlint pass can emit, ordered by numeric code.
const std::vector<CodeInfo>& AllDiagnosticCodes();

/// The band layout (documented in DESIGN.md and analysis/diagnostic.h).
const std::vector<CodeBand>& DiagnosticCodeBands();

/// Registry lookup; nullptr for unknown codes.
const CodeInfo* FindDiagnosticCode(const std::string& code);

}  // namespace fedflow::analysis

#endif  // FEDFLOW_ANALYSIS_CODE_REGISTRY_H_
