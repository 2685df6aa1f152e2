// Seeded call generation for fedbench: which federated calls each workload
// sends and with which arguments. The server under test only ever sees the
// generated (function, arguments) pairs; the seed is the benchmark's input.
#ifndef FEDBENCH_WORKLOAD_H_
#define FEDBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "appsys/dataset.h"
#include "common/rng.h"
#include "common/value.h"
#include "federation/integration_server.h"

namespace fedbench {

using fedflow::Value;
using fedflow::federation::Architecture;

/// The three couplings, in the order every report lists them.
inline constexpr size_t kNumArchs = 3;
inline constexpr Architecture kArchs[kNumArchs] = {
    Architecture::kWfms, Architecture::kUdtf, Architecture::kJavaUdtf};

/// Metric-name key of an architecture: "wfms", "udtf" or "java".
const char* ArchKey(Architecture arch);

enum class WorkloadKind { kHotCalls, kBulkRows, kTenantMix };

/// One workload: the dataset it runs over and how its clients drive it.
struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kHotCalls;
  std::string name;
  fedflow::appsys::ScenarioConfig scenario;
  /// Closed-loop client threads, one tenant each; also the controller-pool
  /// size, so a client never waits for a controller.
  size_t clients = 1;
  /// Result caching on every server.
  bool caching = false;
  /// ProcureComponent is registered and every tenth call of a client is one.
  bool writes = false;
};

/// The workload called `name` ("hot_calls", "bulk_rows", "tenant_mix");
/// nullopt for any other name. tenant_mix runs min(4, nproc) clients.
std::optional<WorkloadConfig> FindWorkload(const std::string& name,
                                           unsigned nproc);

/// One generated federated call.
struct Call {
  std::string function;
  std::vector<Value> args;
  /// A ProcureComponent write, with the effect the post-run check expects:
  /// `amount` reserved and ordered for (supplier_no, comp_no).
  bool write = false;
  int32_t supplier_no = 0;
  int32_t comp_no = 0;
  int32_t amount = 0;

  /// "function(arg, ...)": the identity of a call across architectures.
  std::string Key() const;
};

/// The deterministic call sequence of one client of one workload: the same
/// (seed, client) pair always yields the same sequence. Each call picks a
/// function uniformly; its arguments come from the argument cycles.
class CallGenerator {
 public:
  CallGenerator(const WorkloadConfig& config,
                const fedflow::appsys::Scenario& scenario, uint64_t seed,
                uint64_t client = 0);

  Call Next();

  /// Every distinct read call Next() can return: the argument domain that
  /// the reference answers and the generator tests cover.
  std::vector<Call> ReadDomain() const;

 private:
  /// A seeded permutation of one argument domain, walked and then reshuffled.
  struct Cycle {
    std::vector<size_t> order;
    size_t next = 0;
  };

  /// A read function and the argument domains (indices into domains_) its
  /// arguments are drawn from, one per parameter. Each argument walks its own
  /// permutation cycle, so every seed sends each argument value equally
  /// often and only the order differs.
  struct ReadShape {
    std::string function;
    std::vector<size_t> domains;
    std::vector<Cycle> cycles;
  };

  size_t Pick(size_t n) {
    return static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(n) - 1));
  }
  void AddShape(std::string function, std::vector<size_t> domains);
  Call WriteCall();

  bool writes_;
  std::vector<std::vector<Value>> domains_;
  std::vector<ReadShape> shapes_;
  std::vector<fedflow::appsys::SupplierRecord> suppliers_;
  fedflow::Rng rng_;
  uint64_t issued_ = 0;
};

}  // namespace fedbench

#endif  // FEDBENCH_WORKLOAD_H_
