// The saga subsystem end to end: registration builds the saga view and the
// plan's write barriers, commits apply every write exactly once, a seeded
// fault sweep drives a lost acknowledgement into every write boundary of
// every architecture (retry => dedup replay, no retry => abort + reverse
// compensation restoring the pre-saga state), the FF45x gates reject broken
// write specs, write calls never ride the result cache, the coordinator keeps
// state only for sagas in flight, and a ThreadPool smoke run exercises its
// locking for the TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow/saga_analysis.h"
#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "federation/sample_scenario.h"
#include "plan/fed_plan.h"
#include "plan/optimizer.h"
#include "txn/saga.h"

namespace fedflow::federation {
namespace {

constexpr Architecture kAllArchitectures[] = {
    Architecture::kWfms, Architecture::kUdtf, Architecture::kJavaUdtf};

const std::vector<Value>& ProcureArgs() {
  static const std::vector<Value> args = {Value::Varchar("Stark"),
                                          Value::Int(17), Value::Int(5)};
  return args;
}

std::unique_ptr<IntegrationServer> MakeSagaServer(
    Architecture arch, const plan::PlanOptions& options = {},
    ControllerPoolOptions pool_options = {}) {
  auto server = MakeSampleServer(arch, {}, {}, pool_options);
  EXPECT_TRUE(server.ok()) << server.status();
  if (!server.ok()) return nullptr;
  Status registered =
      (*server)->RegisterFederatedFunction(ProcureComponentSpec(), options);
  EXPECT_TRUE(registered.ok()) << registered;
  if (!registered.ok()) return nullptr;
  return std::move(*server);
}

appsys::StockKeepingSystem* Stock(IntegrationServer* server) {
  auto sys = server->systems().Get("stock");
  EXPECT_TRUE(sys.ok());
  return static_cast<appsys::StockKeepingSystem*>(*sys);
}

appsys::PurchasingSystem* Purchasing(IntegrationServer* server) {
  auto sys = server->systems().Get("purchasing");
  EXPECT_TRUE(sys.ok());
  return static_cast<appsys::PurchasingSystem*>(*sys);
}

/// Canonical snapshot of every application system's private store — the
/// abort oracle: an aborted saga must leave this string unchanged.
std::string Fingerprints(IntegrationServer* server) {
  std::string out;
  for (const std::string& name : server->systems().Names()) {
    auto sys = server->systems().Get(name);
    EXPECT_TRUE(sys.ok());
    out += name + "=" + (*sys)->StateFingerprint() + ";";
  }
  return out;
}

int32_t IntCell(const Table& table, const std::string& column) {
  auto col = table.schema().FindColumn(column);
  EXPECT_TRUE(col.ok()) << column;
  EXPECT_EQ(table.rows().size(), 1u);
  return table.rows()[0][*col].AsInt();
}

int64_t CallCount(const appsys::AppSystem* sys, const std::string& function) {
  auto counts = sys->FunctionCallCounts();  // keyed by upper-cased name
  auto it = counts.find(ToUpper(function));
  return it == counts.end() ? 0 : it->second;
}

TEST(SagaTest, RegistrationBuildsSagaViewForWriteSpecsOnly) {
  auto server = MakeSagaServer(Architecture::kWfms);
  ASSERT_NE(server, nullptr);
  const txn::SagaSpecInfo* info =
      server->saga_runtime().Find("ProcureComponent");
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->writes.size(), 2u);
  // Steps in execution order, each paired with its undo function.
  EXPECT_EQ(info->writes[0].node, "RS");
  EXPECT_EQ(info->writes[0].function, "ReserveStock");
  EXPECT_EQ(info->writes[0].compensation, "ReleaseStock");
  EXPECT_EQ(info->writes[1].node, "PO");
  EXPECT_EQ(info->writes[1].function, "PlaceOrder");
  EXPECT_EQ(info->writes[1].compensation, "CancelOrder");
  // GSN feeds undo arguments, so it is a registered capture source.
  EXPECT_EQ(info->captures.at("PURCHASING.GETSUPPLIERNO"), "GSN");
  // Read-only sample functions never touch the coordinator.
  EXPECT_EQ(server->saga_runtime().Find("GetSuppQual"), nullptr);
  EXPECT_EQ(server->saga_runtime().Find("BuySuppComp"), nullptr);
}

TEST(SagaTest, OptimizerKeepsWriteBarriersUnderParallelize) {
  // RS and PO share no data dependency — a read-only spec of this shape
  // would parallelize. The write barrier chains them so the apply order
  // (what backward recovery reverses) is total.
  plan::PlanOptions options;
  options.parallelize = true;
  auto server = MakeSagaServer(Architecture::kWfms, options);
  ASSERT_NE(server, nullptr);
  std::shared_ptr<const plan::FedPlan> plan =
      server->plan_cache().Lookup("ProcureComponent");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->HasMutatingCalls());
  auto rs = plan->CallIndex("RS");
  auto po = plan->CallIndex("PO");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(po.ok());
  bool barrier = false;
  for (const auto& [from, to] : plan->sequencing_edges) {
    if (from == *rs && to == *po) barrier = true;
  }
  EXPECT_TRUE(barrier) << "RS -> PO write barrier must survive parallelize";
  // The schedule honors it: RS strictly before PO, in different stages.
  std::vector<size_t> position(plan->calls.size(), 0);
  for (size_t k = 0; k < plan->order.size(); ++k) position[plan->order[k]] = k;
  EXPECT_LT(position[*rs], position[*po]);
}

TEST(SagaTest, CommitAppliesEveryWriteExactlyOnce) {
  for (Architecture arch : kAllArchitectures) {
    SCOPED_TRACE(ArchitectureName(arch));
    auto server = MakeSagaServer(arch);
    ASSERT_NE(server, nullptr);
    appsys::StockKeepingSystem* stock = Stock(server.get());
    appsys::PurchasingSystem* purchasing = Purchasing(server.get());
    ASSERT_EQ(stock->reserved(1234, 17), 0);
    ASSERT_EQ(purchasing->open_order_count(), 0);

    auto result = server->CallFederated("ProcureComponent", ProcureArgs());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(IntCell(result->table, "OrderNo"), 9000);
    EXPECT_EQ(IntCell(result->table, "Reserved"), 5);
    EXPECT_GT(result->elapsed_us, 0);

    EXPECT_EQ(stock->reserved(1234, 17), 5);
    EXPECT_EQ(purchasing->open_order_count(), 1);
    EXPECT_EQ(CallCount(stock, "ReserveStock"), 1);
    EXPECT_EQ(CallCount(purchasing, "PlaceOrder"), 1);
    EXPECT_EQ(CallCount(stock, "ReleaseStock"), 0);
    EXPECT_EQ(CallCount(purchasing, "CancelOrder"), 0);

    auto outcome = server->saga_runtime().LastOutcome("ProcureComponent");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->aborted);
    EXPECT_EQ(outcome->steps_applied, 2);
    EXPECT_EQ(outcome->dedup_hits, 0);
    EXPECT_EQ(outcome->compensations_run, 0);
    // Commit dropped the saga's ledger entries and moved its log records
    // into the outcome, which tells the story.
    EXPECT_EQ(server->saga_runtime().ledger_size(), 0);
    EXPECT_TRUE(server->saga_runtime().LogSnapshot().empty());
    const std::vector<txn::SagaLogRecord>& log = outcome->log;
    ASSERT_GE(log.size(), 4u);
    EXPECT_EQ(log.front().kind, txn::SagaLogRecord::Kind::kBegin);
    EXPECT_EQ(log.back().kind, txn::SagaLogRecord::Kind::kCommit);

    // The next saga is a distinct order on top of the first reservation.
    auto again = server->CallFederated("ProcureComponent", ProcureArgs());
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(IntCell(again->table, "OrderNo"), 9001);
    EXPECT_EQ(stock->reserved(1234, 17), 10);
    EXPECT_EQ(purchasing->open_order_count(), 2);
  }
}

TEST(SagaTest, LogAndLedgerHoldOnlySagasInFlight) {
  // Two sagas in flight on a bare coordinator, finished one at a time: the
  // log and the ledger keep only what the sagas still in flight need, and a
  // finished saga's records move into its outcome.
  using Kind = txn::SagaLogRecord::Kind;
  txn::SagaRuntime runtime;
  ASSERT_TRUE(runtime.Register(ProcureComponentSpec(), {0, 1, 2}).ok());
  const txn::SagaSpecInfo* info = runtime.Find("ProcureComponent");
  ASSERT_NE(info, nullptr);
  const txn::SagaStep& rs = info->writes[0];
  ASSERT_EQ(rs.node, "RS");
  std::unique_ptr<txn::SagaExec> a = runtime.Begin(*info, ProcureArgs());
  std::unique_ptr<txn::SagaExec> b = runtime.Begin(*info, ProcureArgs());

  Schema gsn_schema;
  gsn_schema.AddColumn("SupplierNo", DataType::kInt);
  Table gsn(gsn_schema);
  gsn.AppendRowUnchecked({Value::Int(1234)});
  a->RecordOutput("GSN", gsn);
  Schema ack_schema;
  ack_schema.AddColumn("Reserved", DataType::kInt);
  Table ack(ack_schema);
  ack.AppendRowUnchecked({Value::Int(5)});
  ASSERT_TRUE(a->RecordApplied(rs, ack).ok());
  EXPECT_TRUE(a->DedupLookup(rs).has_value());
  EXPECT_FALSE(b->DedupLookup(rs).has_value());

  std::vector<txn::SagaLogRecord> log = runtime.LogSnapshot();
  ASSERT_EQ(log.size(), 4u);
  const std::vector<std::pair<Kind, int64_t>> want = {
      {Kind::kBegin, a->saga_id()},
      {Kind::kBegin, b->saga_id()},
      {Kind::kApply, a->saga_id()},
      {Kind::kDedup, a->saga_id()}};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(log[i].kind, want[i].first) << i;
    EXPECT_EQ(log[i].saga_id, want[i].second) << i;
    if (i > 0) {
      EXPECT_LT(log[i - 1].seq, log[i].seq) << i;
    }
  }
  EXPECT_EQ(runtime.ledger_size(), 1);

  runtime.Commit(*a);
  log = runtime.LogSnapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, Kind::kBegin);
  EXPECT_EQ(log[0].saga_id, b->saga_id());
  EXPECT_EQ(runtime.ledger_size(), 0);
  auto outcome = runtime.LastOutcome("ProcureComponent");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->saga_id, a->saga_id());
  ASSERT_EQ(outcome->log.size(), 4u);
  EXPECT_EQ(outcome->log.front().kind, Kind::kBegin);
  EXPECT_EQ(outcome->log.back().kind, Kind::kCommit);

  runtime.Commit(*b);
  EXPECT_TRUE(runtime.LogSnapshot().empty());
  outcome = runtime.LastOutcome("ProcureComponent");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->saga_id, b->saga_id());
  EXPECT_EQ(outcome->log.size(), 2u);
}

TEST(SagaTest, ThousandsOfSagasLeaveNoRecordBehind) {
  // A long run of committed and aborted sagas: nothing of a finished saga
  // may stay resident in the coordinator's log or ledger.
  auto server = MakeSagaServer(Architecture::kWfms);
  ASSERT_NE(server, nullptr);
  int committed = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool lose_ack = i % 10 == 9;
    if (lose_ack) {
      server->fault_injector().InjectTransientFailures("PlaceOrder", 1);
    }
    auto result = server->CallFederated("ProcureComponent", ProcureArgs());
    ASSERT_EQ(result.ok(), !lose_ack) << "call " << i;
    if (result.ok()) ++committed;
  }
  EXPECT_EQ(committed, 1800);
  EXPECT_EQ(Stock(server.get())->reserved(1234, 17), 1800 * 5);
  EXPECT_EQ(Purchasing(server.get())->open_order_count(), 1800);
  EXPECT_TRUE(server->saga_runtime().LogSnapshot().empty());
  EXPECT_EQ(server->saga_runtime().ledger_size(), 0);
}

TEST(SagaFaultSweepTest, LostAcknowledgementIsDeduplicatedNotReapplied) {
  // Exactly-once forward sweep: a transient fault drops the acknowledgement
  // of each write boundary in turn, on every architecture. The retried
  // attempt must present the same idempotency key and be served from the
  // dedup ledger — the store applies each write once, whether recovery is
  // a WfMS checkpoint resume or an I-UDTF whole-statement restart.
  for (Architecture arch : kAllArchitectures) {
    for (const char* faulted : {"ReserveStock", "PlaceOrder"}) {
      SCOPED_TRACE(std::string(ArchitectureName(arch)) + " fault@" + faulted);
      auto server = MakeSagaServer(arch);
      ASSERT_NE(server, nullptr);
      server->retry_policy().max_attempts = 3;
      server->fault_injector().InjectTransientFailures(faulted, 1);

      auto result = server->CallFederated("ProcureComponent", ProcureArgs());
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(IntCell(result->table, "OrderNo"), 9000);

      appsys::StockKeepingSystem* stock = Stock(server.get());
      appsys::PurchasingSystem* purchasing = Purchasing(server.get());
      EXPECT_EQ(stock->reserved(1234, 17), 5) << "applied exactly once";
      EXPECT_EQ(purchasing->open_order_count(), 1);
      EXPECT_EQ(CallCount(stock, "ReserveStock"), 1);
      EXPECT_EQ(CallCount(purchasing, "PlaceOrder"), 1);
      EXPECT_EQ(CallCount(stock, "ReleaseStock"), 0);
      EXPECT_EQ(CallCount(purchasing, "CancelOrder"), 0);
      // The dedup path replays the recorded acknowledgement without a new
      // store call, so the injector saw exactly one attempt of the write.
      EXPECT_EQ(server->fault_injector().attempts(faulted), 1);

      auto outcome = server->saga_runtime().LastOutcome("ProcureComponent");
      ASSERT_TRUE(outcome.has_value());
      EXPECT_FALSE(outcome->aborted);
      EXPECT_EQ(outcome->steps_applied, 2);
      EXPECT_GE(outcome->dedup_hits, 1);
      EXPECT_GT(result->breakdown.Of(sim::steps::kSagaDedup), 0);
      EXPECT_EQ(server->saga_runtime().ledger_size(), 0);
    }
  }
}

TEST(SagaFaultSweepTest, ExhaustedBudgetAbortsAndCompensatesInReverse) {
  // Backward-recovery sweep: with retries disabled, a lost acknowledgement
  // at each write boundary aborts the saga. The coordinator must undo the
  // applied prefix in reverse order and leave every store's fingerprint
  // exactly as before the call.
  for (Architecture arch : kAllArchitectures) {
    for (const char* faulted : {"ReserveStock", "PlaceOrder"}) {
      SCOPED_TRACE(std::string(ArchitectureName(arch)) + " fault@" + faulted);
      auto server = MakeSagaServer(arch);
      ASSERT_NE(server, nullptr);
      appsys::StockKeepingSystem* stock = Stock(server.get());
      appsys::PurchasingSystem* purchasing = Purchasing(server.get());
      const std::string before = Fingerprints(server.get());
      const int64_t stock_version = stock->data_version();
      const bool both_applied = std::string(faulted) == "PlaceOrder";

      server->fault_injector().InjectTransientFailures(faulted, 1);
      auto result = server->CallFederated("ProcureComponent", ProcureArgs());
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

      // The oracle: state restored bit for bit...
      EXPECT_EQ(Fingerprints(server.get()), before);
      EXPECT_EQ(stock->reserved(1234, 17), 0);
      EXPECT_EQ(purchasing->open_order_count(), 0);
      // ...through compensating writes, not by rollback magic — the store's
      // data version moved strictly forward (apply + undo), so no cache can
      // serve state derived from the aborted saga.
      EXPECT_GE(stock->data_version(), stock_version + 2);
      EXPECT_EQ(CallCount(stock, "ReserveStock"), 1);
      EXPECT_EQ(CallCount(stock, "ReleaseStock"), 1);
      EXPECT_EQ(CallCount(purchasing, "PlaceOrder"), both_applied ? 1 : 0);
      EXPECT_EQ(CallCount(purchasing, "CancelOrder"), both_applied ? 1 : 0);

      auto outcome = server->saga_runtime().LastOutcome("ProcureComponent");
      ASSERT_TRUE(outcome.has_value());
      EXPECT_TRUE(outcome->aborted);
      EXPECT_EQ(outcome->steps_applied, both_applied ? 2 : 1);
      EXPECT_EQ(outcome->compensations_run, outcome->steps_applied);
      EXPECT_EQ(outcome->compensation_failures, 0);
      EXPECT_GT(outcome->failed_elapsed_us, 0);
      EXPECT_GT(outcome->abort_cost_us, 0);
      EXPECT_FALSE(outcome->error.empty());
      EXPECT_EQ(server->saga_runtime().ledger_size(), 0);
      EXPECT_TRUE(server->saga_runtime().LogSnapshot().empty());

      // Compensations ran in reverse apply order: PO undone before RS.
      std::vector<std::string> undone;
      for (const txn::SagaLogRecord& rec : outcome->log) {
        if (rec.kind == txn::SagaLogRecord::Kind::kCompensate) {
          undone.push_back(rec.node);
        }
      }
      if (both_applied) {
        ASSERT_EQ(undone.size(), 2u);
        EXPECT_EQ(undone[0], "PO");
        EXPECT_EQ(undone[1], "RS");
      } else {
        ASSERT_EQ(undone.size(), 1u);
        EXPECT_EQ(undone[0], "RS");
      }

      // Backward recovery invalidated forward recovery: no checkpoint may
      // survive an abort, or a later resume would skip re-applying writes
      // the compensations just undid.
      EXPECT_EQ(server->recovery_checkpoint("ProcureComponent"), nullptr);
      auto clean = server->CallFederated("ProcureComponent", ProcureArgs());
      ASSERT_TRUE(clean.ok()) << clean.status();
      EXPECT_EQ(stock->reserved(1234, 17), 5);
      EXPECT_EQ(purchasing->open_order_count(), 1);
      // When PlaceOrder had applied, its cancelled order consumed 9000 and
      // the fresh saga gets the next number; an abort before PlaceOrder
      // consumed nothing.
      EXPECT_EQ(IntCell(clean->table, "OrderNo"), both_applied ? 9001 : 9000);
    }
  }
}

TEST(SagaFaultSweepTest, FaultBeforeAnyWriteAbortsWithoutCompensation) {
  // The read prefix fails before a single write applied: the abort must not
  // run any compensation and must not move any data version.
  for (Architecture arch : kAllArchitectures) {
    SCOPED_TRACE(ArchitectureName(arch));
    auto server = MakeSagaServer(arch);
    ASSERT_NE(server, nullptr);
    const std::string before = Fingerprints(server.get());
    const int64_t stock_version = Stock(server.get())->data_version();
    sim::FaultProfile down;
    down.permanent_outage = true;
    server->fault_injector().SetProfile("GetSupplierNo", down);

    auto result = server->CallFederated("ProcureComponent", ProcureArgs());
    ASSERT_FALSE(result.ok());
    auto outcome = server->saga_runtime().LastOutcome("ProcureComponent");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->aborted);
    EXPECT_EQ(outcome->steps_applied, 0);
    EXPECT_EQ(outcome->compensations_run, 0);
    EXPECT_EQ(Fingerprints(server.get()), before);
    EXPECT_EQ(Stock(server.get())->data_version(), stock_version);

    server->fault_injector().ClearProfiles();
    auto clean = server->CallFederated("ProcureComponent", ProcureArgs());
    ASSERT_TRUE(clean.ok()) << clean.status();
  }
}

TEST(SagaGateTest, MissingCompensationIsRejected) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  FederatedFunctionSpec spec = ProcureComponentSpec();
  spec.name = "ProcureNoUndo";
  spec.compensations.clear();
  Status status = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FF450"), std::string::npos) << status;
  EXPECT_EQ((*server)->saga_runtime().Find("ProcureNoUndo"), nullptr);
}

TEST(SagaGateTest, UnknownAndReadOnlyCompensationsAreRejected) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  FederatedFunctionSpec spec = ProcureComponentSpec();
  spec.name = "ProcureBadUndo";
  spec.compensations[0].function = "NoSuchFunction";
  Status status = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FF451"), std::string::npos) << status;

  // A read-only undo cannot restore the store either.
  spec.name = "ProcureReadUndo";
  spec.compensations[0].function = "GetReserved";
  spec.compensations[0].args = {SpecArg::NodeColumn("GSN", "SupplierNo"),
                                SpecArg::Param("CompNo")};
  status = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FF451"), std::string::npos) << status;
}

TEST(SagaGateTest, WriteInsideLoopIsRejected) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  FederatedFunctionSpec spec;
  spec.name = "ResetAllQualities";
  spec.params = {Column{"MaxNo", DataType::kInt}};
  spec.calls = {{"SQ", "stock", "SetQuality",
                 {SpecArg::Param("ITERATION"), SpecArg::Constant(Value::Int(0))}}};
  // The undo args avoid the loop pseudo-parameter (ITERATION is not a
  // federated parameter); the write-in-loop gate must still fire.
  spec.compensations = {{"SQ", "RestoreQuality",
                         {SpecArg::Constant(Value::Int(1234)),
                          SpecArg::NodeColumn("SQ", "Qual")}}};
  spec.outputs = {{"Qual", "SQ", "Qual", DataType::kNull}};
  spec.loop.enabled = true;
  spec.loop.count_param = "MaxNo";
  spec.loop.union_all = true;
  Status status = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FF452"), std::string::npos) << status;
}

TEST(SagaGateTest, RetryWithoutLedgerFailsTheDataflowCheck) {
  // FF453 guards deployments that retry but bypass the coordinator — the
  // integration server always coordinates, so the bare analysis is driven
  // directly the way a standalone coupling would be checked.
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  FederatedFunctionSpec spec = ProcureComponentSpec();
  auto plan = plan::CompilePlan(spec, (*server)->systems());
  ASSERT_TRUE(plan.ok()) << plan.status();
  sim::RetryPolicy retry;
  retry.max_attempts = 3;
  analysis::dataflow::SagaAnalysisResult without =
      analysis::dataflow::AnalyzeSaga(*plan, spec, (*server)->systems(), retry,
                                      /*saga_coordination=*/false);
  ASSERT_EQ(without.write_nodes, 2u);
  bool found = false;
  for (const analysis::Diagnostic& d : without.diagnostics) {
    if (d.code == analysis::kSagaRetryWithoutLedger) found = true;
  }
  EXPECT_TRUE(found) << "retrying uncoordinated deployment must raise FF453";
  // With the ledger (the server's configuration) the same spec is clean.
  analysis::dataflow::SagaAnalysisResult with =
      analysis::dataflow::AnalyzeSaga(*plan, spec, (*server)->systems(), retry,
                                      /*saga_coordination=*/true);
  EXPECT_TRUE(with.diagnostics.empty());
}

TEST(SagaGateTest, AmbiguousStepsAreRejected) {
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  FederatedFunctionSpec spec;
  spec.name = "DoubleReserve";
  spec.params = {Column{"SupplierNo", DataType::kInt},
                 Column{"CompNo", DataType::kInt}};
  spec.calls = {
      {"R1", "stock", "ReserveStock",
       {SpecArg::Param("SupplierNo"), SpecArg::Param("CompNo"),
        SpecArg::Constant(Value::Int(1))}},
      {"R2", "stock", "ReserveStock",
       {SpecArg::Param("SupplierNo"), SpecArg::Param("CompNo"),
        SpecArg::Constant(Value::Int(2))}},
  };
  spec.compensations = {
      {"R1", "ReleaseStock",
       {SpecArg::Param("SupplierNo"), SpecArg::Param("CompNo"),
        SpecArg::Constant(Value::Int(1))}},
      {"R2", "ReleaseStock",
       {SpecArg::Param("SupplierNo"), SpecArg::Param("CompNo"),
        SpecArg::Constant(Value::Int(2))}},
  };
  spec.outputs = {{"Reserved", "R2", "Reserved", DataType::kNull}};
  Status status = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FF454"), std::string::npos) << status;
}

TEST(SagaGateTest, UnorderedCaptureSourceIsRejected) {
  // The undo argument reads GR, which has no dependency ordering it before
  // the write — its output would not be captured when the write applies.
  auto server = MakeSampleServer(Architecture::kWfms);
  ASSERT_TRUE(server.ok()) << server.status();
  FederatedFunctionSpec spec;
  spec.name = "ProcureUnordered";
  spec.params = {Column{"SupplierNo", DataType::kInt},
                 Column{"CompNo", DataType::kInt}};
  spec.calls = {
      {"RS", "stock", "ReserveStock",
       {SpecArg::Param("SupplierNo"), SpecArg::Param("CompNo"),
        SpecArg::Constant(Value::Int(1))}},
      {"GR", "purchasing", "GetReliability", {SpecArg::Param("SupplierNo")}},
  };
  spec.compensations = {{"RS", "ReleaseStock",
                         {SpecArg::Param("SupplierNo"), SpecArg::Param("CompNo"),
                          SpecArg::NodeColumn("GR", "Relia")}}};
  spec.outputs = {{"Relia", "GR", "Relia", DataType::kNull}};
  Status status = (*server)->RegisterFederatedFunction(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FF455"), std::string::npos) << status;
}

TEST(SagaTest, WriteCallsNeverRideTheResultCache) {
  for (Architecture arch : {Architecture::kWfms, Architecture::kUdtf}) {
    SCOPED_TRACE(ArchitectureName(arch));
    auto server = MakeSagaServer(arch);
    ASSERT_NE(server, nullptr);
    server->set_caching_enabled(true);

    // A cached read function establishes the baseline behavior...
    for (int i = 0; i < 3; ++i) {
      auto read = server->CallFederated("GetNumberSupp1234", {Value::Int(17)});
      ASSERT_TRUE(read.ok()) << read.status();
    }
    const int64_t invalidations_before =
        server->result_cache().stats().invalidations;

    // ...while every saga call runs for real: three calls, three orders.
    for (int i = 0; i < 3; ++i) {
      auto result = server->CallFederated("ProcureComponent", ProcureArgs());
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(IntCell(result->table, "OrderNo"), 9000 + i);
    }
    EXPECT_EQ(Stock(server.get())->reserved(1234, 17), 15);
    EXPECT_EQ(Purchasing(server.get())->open_order_count(), 3);
    EXPECT_EQ(CallCount(Stock(server.get()), "ReserveStock"), 3)
        << "write calls must not be memoized";

    // The writes bumped the stock data version, so the resident read entry
    // is versioned out instead of served stale.
    auto read = server->CallFederated("GetNumberSupp1234", {Value::Int(17)});
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_GT(server->result_cache().stats().invalidations,
              invalidations_before);
  }
}

TEST(SagaTest, ConcurrentSagasCommitExactlyOncePerFlow) {
  // TSan smoke: concurrent write-path flows on a pooled deployment. Every
  // flow is its own saga; the coordinator's ledger, log, and the stores'
  // mutexes must serialize them without losing or doubling an apply.
  ControllerPoolOptions pool;
  pool.max_size = 4;
  auto server = MakeSagaServer(Architecture::kWfms, {}, pool);
  ASSERT_NE(server, nullptr);
  std::atomic<int> committed{0};
  {
    ThreadPool threads(4);
    for (int t = 0; t < 8; ++t) {
      threads.Submit([&server, &committed, t] {
        auto result = server->CallFederatedFor(
            "tenant" + std::to_string(t % 4), "ProcureComponent",
            ProcureArgs());
        if (result.ok()) committed.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(committed.load(), 8);
  EXPECT_EQ(Stock(server.get())->reserved(1234, 17), 8 * 5);
  EXPECT_EQ(Purchasing(server.get())->open_order_count(), 8);
  EXPECT_EQ(CallCount(Stock(server.get()), "ReserveStock"), 8);
  EXPECT_EQ(CallCount(Purchasing(server.get()), "PlaceOrder"), 8);
  EXPECT_EQ(server->saga_runtime().ledger_size(), 0);
  EXPECT_TRUE(server->saga_runtime().LogSnapshot().empty());
}

}  // namespace
}  // namespace fedflow::federation
