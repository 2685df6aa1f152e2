// A corpus of deliberately malformed federated-function specs, one per
// diagnostic family. Golden tests pin the exact FF### code and location path
// each entry produces; the fedlint CLI exposes the corpus for demonstration
// (`fedlint --corpus NAME` must exit non-zero on every entry).
#ifndef FEDFLOW_ANALYSIS_CORPUS_H_
#define FEDFLOW_ANALYSIS_CORPUS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/vclock.h"
#include "federation/spec.h"
#include "sim/fault.h"

namespace fedflow::analysis {

/// One corpus entry: a spec that is defective in exactly one intended way.
struct CorpusEntry {
  std::string name;           ///< stable entry name (CLI `--corpus NAME`)
  std::string expected_code;  ///< the FF### code the defect must produce
  std::string expected_location;  ///< the exact location path of the finding
  federation::FederatedFunctionSpec spec;
};

/// Malformed specs targeting the sample scenario's application systems
/// (stock / purchasing / pdm). Every entry produces at least the expected
/// diagnostic; entries are ordered by code.
std::vector<CorpusEntry> MalformedSpecCorpus();

/// One semantic corpus entry: a spec that passes the spec pass (spec lint is
/// error-free) yet must be rejected by the dataflow pass under the given
/// deployment facts. The knobs mirror DataflowOptions so the CLI and the
/// registration gate can reproduce the exact analysis configuration.
struct SemanticCorpusEntry {
  std::string name;           ///< stable entry name (CLI `--corpus NAME`)
  std::string expected_code;  ///< the FF4xx code the defect must produce
  std::string expected_location;  ///< the exact location path of the finding
  federation::FederatedFunctionSpec spec;
  // Deployment facts under which the dataflow pass judges the spec.
  VDuration deadline_us = 0;
  sim::RetryPolicy retry;
  std::size_t pool_max_size = 1;
  std::size_t per_tenant_quota = 0;
  bool parallelize = false;
};

/// Semantically broken but syntactically clean specs, one per dataflow
/// diagnostic family with a deterministic trigger. Every entry lints clean
/// through pass 1 (spec lint) and produces at least the expected FF4xx
/// error from the dataflow pass (pass 3); entries are ordered by code.
std::vector<SemanticCorpusEntry> SemanticSpecCorpus();

}  // namespace fedflow::analysis

#endif  // FEDFLOW_ANALYSIS_CORPUS_H_
