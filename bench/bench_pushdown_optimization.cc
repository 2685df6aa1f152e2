// Extension ablation: predicate pushdown in the FDBS (the paper's §6 lists
// query optimization as open work). A selective WHERE over a lateral chain
// of A-UDTFs prunes remote function invocations — visible directly in the
// virtual elapsed time of the UDTF architecture.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace fedflow::bench {
namespace {

constexpr char kQuery[] =
    "SELECT W.name, Q.Qual FROM watch AS W, "
    "TABLE (GetSupplierNo(W.name)) AS SN, "
    "TABLE (GetSuppQualRelia(SN.SupplierNo)) AS Q "
    "WHERE W.prio = 1";

std::unique_ptr<IntegrationServer> MakeServerWithWatchlist() {
  auto server = MustMakeServer(Architecture::kUdtf);
  (void)server->Query("CREATE TABLE watch (name VARCHAR, prio INT)");
  // 9 suppliers on the watchlist, only 2 with priority 1.
  (void)server->Query(
      "INSERT INTO watch VALUES "
      "('Acme', 0), ('Borg', 0), ('Cyberdyne', 0), ('Duff', 1), "
      "('Ecorp', 0), ('Initech', 0), ('Umbrella', 0), ('Wayne', 0), "
      "('Stark', 1)");
  return server;
}

VDuration Measure(IntegrationServer* server, bool pushdown) {
  // The statement runs straight through the FDBS (to set the pushdown
  // toggle), in a flow on the server's pinned controller and its ledger.
  sim::FlowState flow;
  flow.controller = &server->controller();
  flow.warmth = &server->state();
  SimClock clock;
  fdbs::ExecContext ctx;
  ctx.clock = &clock;
  ctx.flow = &flow;
  ctx.predicate_pushdown = pushdown;
  auto r = server->database().Execute(kQuery, ctx);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return clock.now();
}

void BM_WatchlistQuery(benchmark::State& state, bool pushdown) {
  auto server = MakeServerWithWatchlist();
  for (auto _ : state) {
    state.SetIterationTime(static_cast<double>(Measure(server.get(),
                                                       pushdown)) *
                           1e-6);
  }
}
BENCHMARK_CAPTURE(BM_WatchlistQuery, with_pushdown, true)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK_CAPTURE(BM_WatchlistQuery, without_pushdown, false)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(3);

void PrintTable() {
  auto server = MakeServerWithWatchlist();
  VDuration with = Measure(server.get(), true);
  VDuration without = Measure(server.get(), false);
  std::printf("\n=== Predicate pushdown over a lateral A-UDTF chain ===\n");
  std::printf("query: quality of priority-1 watchlist suppliers "
              "(2 of 9 rows selective)\n\n");
  std::printf("%-22s %14s\n", "plan", "virtual [us]");
  PrintRule(38);
  std::printf("%-22s %14lld\n", "with pushdown",
              static_cast<long long>(with));
  std::printf("%-22s %14lld\n", "without pushdown",
              static_cast<long long>(without));
  PrintRule(38);
  std::printf("speedup: %.2fx — the WHERE conjunct on the local table is\n"
              "applied before the lateral A-UDTF calls, so only the\n"
              "selected suppliers are fetched remotely\n",
              static_cast<double>(without) / static_cast<double>(with));
  BenchJson json("pushdown_optimization");
  json.Add("watchlist_quality", "with_pushdown_us", with);
  json.Add("watchlist_quality", "without_pushdown_us", without);
  json.Write();
}

}  // namespace
}  // namespace fedflow::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fedflow::bench::PrintTable();
  return 0;
}
