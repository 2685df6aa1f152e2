// Pins the seeded call generator: the same seed replays the same calls, a
// different seed sends different ones, and every call a workload can send
// succeeds under every architecture.
#include <gtest/gtest.h>

#include <set>

#include "harness.h"
#include "workload.h"

namespace fedbench {
namespace {

const char* const kWorkloads[] = {"hot_calls", "bulk_rows", "tenant_mix"};

std::vector<std::string> Keys(const WorkloadConfig& config, uint64_t seed,
                              uint64_t client, size_t n) {
  CallGenerator gen(config,
                    fedflow::appsys::GenerateScenario(config.scenario), seed,
                    client);
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(gen.Next().Key());
  return keys;
}

TEST(CallGeneratorTest, SameSeedGivesSameSequence) {
  for (const char* name : kWorkloads) {
    WorkloadConfig config = *FindWorkload(name, 4);
    EXPECT_EQ(Keys(config, 7, 0, 2000), Keys(config, 7, 0, 2000)) << name;
  }
}

TEST(CallGeneratorTest, DifferentSeedOrClientGivesDifferentSequence) {
  for (const char* name : kWorkloads) {
    WorkloadConfig config = *FindWorkload(name, 4);
    EXPECT_NE(Keys(config, 7, 0, 100), Keys(config, 8, 0, 100)) << name;
    EXPECT_NE(Keys(config, 7, 0, 100), Keys(config, 7, 1, 100)) << name;
  }
}

TEST(CallGeneratorTest, TenantMixWritesEveryTenthCall) {
  WorkloadConfig config = *FindWorkload("tenant_mix", 4);
  CallGenerator gen(config, fedflow::appsys::GenerateScenario(config.scenario),
                    3);
  for (int i = 1; i <= 100; ++i) {
    const Call call = gen.Next();
    EXPECT_EQ(call.write, i % 10 == 0) << i;
    EXPECT_EQ(call.function == "ProcureComponent", call.write) << i;
  }
}

TEST(CallGeneratorTest, SequencesStayInsideTheReadDomain) {
  for (const char* name : kWorkloads) {
    WorkloadConfig config = *FindWorkload(name, 4);
    CallGenerator gen(config,
                      fedflow::appsys::GenerateScenario(config.scenario), 11);
    std::set<std::string> domain;
    for (const Call& call : gen.ReadDomain()) domain.insert(call.Key());
    for (int i = 0; i < 1000; ++i) {
      const Call call = gen.Next();
      if (!call.write) {
        EXPECT_EQ(domain.count(call.Key()), 1u) << call.Key();
      }
    }
  }
}

// Every read in the paper-scale domain (hot_calls and tenant_mix reads), a
// run of tenant_mix writes, and a sample of bulk_rows calls succeed under
// all three architectures, and the architectures agree on every answer.
TEST(WorkloadCallsTest, EveryGeneratedCallSucceedsOnEveryArchitecture) {
  for (const char* name : kWorkloads) {
    WorkloadConfig config = *FindWorkload(name, 4);
    fedflow::Result<Deployment> d = BuildDeployment(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    CallGenerator gen(config, d->scenario, 5);
    std::vector<Call> calls;
    if (config.kind == WorkloadKind::kHotCalls) {
      calls = gen.ReadDomain();
    } else {
      for (int i = 0; i < (config.kind == WorkloadKind::kBulkRows ? 12 : 60);
           ++i) {
        calls.push_back(gen.Next());
      }
    }
    for (const Call& call : calls) {
      std::vector<fedflow::Table> answers;
      for (size_t a = 0; a < kNumArchs; ++a) {
        auto r = d->servers[a]->CallFederated(call.function, call.args);
        ASSERT_TRUE(r.ok()) << name << " " << ArchKey(kArchs[a]) << " "
                            << call.Key() << ": " << r.status().ToString();
        answers.push_back(r->table);
      }
      if (call.write) continue;  // order numbers differ per server
      for (size_t a = 1; a < kNumArchs; ++a) {
        EXPECT_TRUE(fedflow::Table::SameRowsAnyOrder(answers[0], answers[a]))
            << name << " " << ArchKey(kArchs[a]) << " " << call.Key();
      }
    }
  }
}

}  // namespace
}  // namespace fedbench
