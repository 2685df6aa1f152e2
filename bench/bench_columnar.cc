// Row-vs-columnar wall-clock bench: a predicate-heavy 10k-row A-UDTF
// lateral chain executed twice — once with ExecContext::columnar off (the
// classic row-at-a-time pipeline) and once with it on (ColumnBatch transport
// plus vectorized filters). Both runs produce bit-identical results and
// identical PipelineStats counts; the only difference is wall time, which is
// measured here with the host's steady clock and reported as *_wall_ns
// metrics in BENCH_columnar_wall.json (never golden-diffed). The checked-in
// golden BENCH_columnar.json holds only deterministic counts.
//
// The bench aborts if the columnar path is not at least 2x faster than the
// row path — the speedup the refactor exists for.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "fdbs/database.h"

namespace fedflow::bench {
namespace {

constexpr int kRows = 10000;

// Predicate-heavy: a dozen vectorizable conjuncts spanning integer modular
// arithmetic, mixed int/double promotion, varchar LIKE and inequality, and
// cross-source comparisons that only become ready after the lateral apply.
// Nearly all rows survive every conjunct, so each one runs over the full
// 10k rows — the worst case for row-at-a-time evaluation.
constexpr char kQuery[] =
    "SELECT a.v, a.d, a.s, b.v2 FROM TABLE (gen10k()) AS a, "
    "TABLE (passthru(a.v)) AS b "
    "WHERE (a.v * 7 + 3) % 11 >= 0 "
    "AND a.v % 97 <> 13 "
    "AND (a.v * 13 + 7) % 101 <> 102 "
    "AND a.d * 1.5 + 2.25 < 100000.0 "
    "AND a.d >= -1.0 "
    "AND (a.d + 0.5) * (a.d + 1.5) >= 0.0 "
    "AND a.d * a.d + 1.0 > 0.5 "
    "AND a.s LIKE 'row%' "
    "AND a.s LIKE '%o%' "
    "AND a.s <> 'nope' "
    "AND b.v2 + a.v >= 0 "
    "AND (a.v * 3 + b.v2 * 5) % 7 <> 9";

/// A 10k-row generator A-UDTF with one column per predicate family: an INT
/// counter, a DOUBLE derived from it, and a short VARCHAR tag.
class Gen10kUdtf : public fdbs::TableFunction {
 public:
  Gen10kUdtf() {
    schema_.AddColumn("v", DataType::kInt);
    schema_.AddColumn("d", DataType::kDouble);
    schema_.AddColumn("s", DataType::kVarchar);
  }

  const std::string& name() const override { return name_; }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }

  Result<RowSourcePtr> InvokeStream(const std::vector<Value>&,
                                    fdbs::ExecContext&,
                                    size_t batch_size) override {
    auto next = std::make_shared<int>(0);
    const size_t chunk =
        batch_size == 0 ? static_cast<size_t>(kRows) : batch_size;
    return MakeGeneratorSource(schema_, [next, chunk]() -> Result<RowBatch> {
      RowBatch batch;
      while (*next < kRows && batch.size() < chunk) {
        batch.rows.push_back(MakeRow((*next)++));
      }
      return batch;
    });
  }

 private:
  static Row MakeRow(int i) {
    return {Value::Int(i), Value::Double(i * 0.001),
            Value::Varchar("row" + std::to_string(i % 100))};
  }

  std::string name_ = "gen10k";
  std::vector<Column> params_;
  Schema schema_;
};

/// The lateral inner function: one row per invocation, doubling its INT
/// argument. A native UDTF rather than a SQL-bodied one so the per-row
/// invocation cost stays small and the bench measures the transport and the
/// predicates, not the subquery machinery.
class PassthruUdtf : public fdbs::TableFunction {
 public:
  PassthruUdtf() {
    params_.push_back(Column{"x", DataType::kInt});
    schema_.AddColumn("v2", DataType::kInt);
  }

  const std::string& name() const override { return name_; }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }

  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    fdbs::ExecContext&,
                                    size_t batch_size) override {
    FEDFLOW_ASSIGN_OR_RETURN(int64_t x, args[0].ToInt64());
    Table t(schema_);
    t.AppendRowUnchecked({Value::Int(static_cast<int32_t>(x * 2))});
    return MakeTableSource(std::move(t), batch_size);
  }

 private:
  std::string name_ = "passthru";
  std::vector<Column> params_;
  Schema schema_;
};

std::unique_ptr<fdbs::Database> MakeDatabase() {
  auto db = std::make_unique<fdbs::Database>();
  auto st = db->catalog().RegisterTableFunction(std::make_shared<Gen10kUdtf>());
  if (st.ok()) {
    st = db->catalog().RegisterTableFunction(std::make_shared<PassthruUdtf>());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return db;
}

struct RunResult {
  Table table{Schema{}};
  PipelineStats stats;
  int64_t wall_ns = 0;
};

/// One execution of the chain under the given transport; wall time covers
/// exactly the Execute call.
RunResult RunOnce(fdbs::Database* db, bool columnar) {
  RunResult out;
  fdbs::ExecContext ctx;
  ctx.columnar = columnar;
  ctx.pipeline_stats = &out.stats;
  const auto start = std::chrono::steady_clock::now();
  auto r = db->Execute(kQuery, ctx);
  const auto stop = std::chrono::steady_clock::now();
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  out.table = std::move(*r);
  out.wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  return out;
}

void RequireIdentical(const RunResult& row, const RunResult& col) {
  if (row.table.num_rows() != col.table.num_rows() ||
      row.table.schema().num_columns() != col.table.schema().num_columns()) {
    std::fprintf(stderr, "row/columnar shape mismatch: %zux%zu vs %zux%zu\n",
                 row.table.num_rows(), row.table.schema().num_columns(),
                 col.table.num_rows(), col.table.schema().num_columns());
    std::abort();
  }
  for (size_t r = 0; r < row.table.num_rows(); ++r) {
    for (size_t c = 0; c < row.table.schema().num_columns(); ++c) {
      const Value& a = row.table.rows()[r][c];
      const Value& b = col.table.rows()[r][c];
      if (a.type() != b.type() || a.ToString() != b.ToString()) {
        std::fprintf(stderr, "value mismatch at (%zu,%zu): %s vs %s\n", r, c,
                     a.ToString().c_str(), b.ToString().c_str());
        std::abort();
      }
    }
  }
  // The transport must be invisible to the virtual-cost accounting: same
  // rows and batches crossing operator boundaries in both modes.
  if (row.stats.rows_emitted != col.stats.rows_emitted ||
      row.stats.batches_emitted != col.stats.batches_emitted) {
    std::fprintf(stderr,
                 "pipeline stats diverged: rows %zu vs %zu, batches %zu "
                 "vs %zu\n",
                 row.stats.rows_emitted, col.stats.rows_emitted,
                 row.stats.batches_emitted, col.stats.batches_emitted);
    std::abort();
  }
}

void BM_LateralChain(benchmark::State& state) {
  auto db = MakeDatabase();
  const bool columnar = state.range(0) != 0;
  for (auto _ : state) {
    RunResult r = RunOnce(db.get(), columnar);
    benchmark::DoNotOptimize(r.table.num_rows());
  }
}
BENCHMARK(BM_LateralChain)
    ->Arg(0)  // row-at-a-time pipeline
    ->Arg(1)  // columnar pipeline
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void PrintTable() {
  auto db = MakeDatabase();
  // Paired trials, alternating which transport runs first: both runs of a
  // pair see the same host load, and the gate reads the median of the
  // per-pair row/columnar ratios, which one slow trial on either side
  // cannot move. Odd, so the median is one pair's ratio.
  constexpr int kPairs = 7;
  // Warm both paths once (catalog lookups, plan construction) before timing.
  (void)RunOnce(db.get(), false);
  (void)RunOnce(db.get(), true);
  RunResult row;
  RunResult col;
  std::vector<std::pair<int64_t, int64_t>> walls;  // (row, columnar) ns
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      row = RunOnce(db.get(), false);
      col = RunOnce(db.get(), true);
    } else {
      col = RunOnce(db.get(), true);
      row = RunOnce(db.get(), false);
    }
    RequireIdentical(row, col);
    walls.emplace_back(row.wall_ns, col.wall_ns);
  }
  auto ratio = [](const std::pair<int64_t, int64_t>& w) {
    return static_cast<double>(w.first) / static_cast<double>(w.second);
  };
  std::nth_element(walls.begin(), walls.begin() + kPairs / 2, walls.end(),
                   [&](const auto& a, const auto& b) {
                     return ratio(a) < ratio(b);
                   });
  // Report the median pair's wall times, so the table's ratio is the gate's.
  std::tie(row.wall_ns, col.wall_ns) = walls[kPairs / 2];
  const double speedup = ratio(walls[kPairs / 2]);
  std::printf(
      "\n=== Row vs columnar wall time, predicate-heavy 10k-row chain ===\n");
  std::printf("query: %s\n\n", kQuery);
  std::printf("%-14s %16s %14s %14s\n", "transport", "exec wall (us)",
              "rows out", "batches");
  PrintRule(62);
  std::printf("%-14s %16.1f %14zu %14zu\n", "row", row.wall_ns / 1e3,
              row.table.num_rows(), row.stats.batches_emitted);
  std::printf("%-14s %16.1f %14zu %14zu\n", "columnar", col.wall_ns / 1e3,
              col.table.num_rows(), col.stats.batches_emitted);
  PrintRule(62);
  std::printf("columnar speedup: %.2fx (median of %d paired ratios)\n",
              speedup, kPairs);

  BenchJson json("columnar");
  for (const auto* run : {&row, &col}) {
    const std::string mode = run == &row ? "row" : "columnar";
    json.Add(mode, "rows_out", static_cast<int64_t>(run->table.num_rows()));
    json.Add(mode, "rows_emitted",
             static_cast<int64_t>(run->stats.rows_emitted));
    json.Add(mode, "batches_emitted",
             static_cast<int64_t>(run->stats.batches_emitted));
    json.Add(mode, "columnar_batches",
             static_cast<int64_t>(run->stats.columnar_batches));
    json.AddWall(mode, "exec_wall_ns", run->wall_ns);
  }
  json.AddWall("columnar", "speedup_x1000",
               static_cast<int64_t>(speedup * 1000.0));
  json.Write();

  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "columnar speedup %.2fx (median paired ratio) below the 2.0x "
                 "floor (row %lld ns, columnar %lld ns)\n",
                 speedup, static_cast<long long>(row.wall_ns),
                 static_cast<long long>(col.wall_ns));
    std::abort();
  }
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
