// Residency micro-bench for the streaming execution pipeline: a 10k-row
// A-UDTF feeding a lateral chain, pulled in 256-row batches vs. fully
// materialized (batch_size = 0). The measured quantity is
// PipelineStats::peak_resident_rows — rows buffered inside operators at the
// worst moment — which streaming bounds by O(batch size · chain depth) while
// the materializing plan holds the whole intermediate result.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fdbs/database.h"

namespace fedflow::bench {
namespace {

constexpr int kRows = 10000;

constexpr char kQuery[] =
    "SELECT a.v, b.v2 FROM TABLE (gen10k()) AS a, "
    "TABLE (passthru(a.v)) AS b WHERE b.v2 >= 0";

/// A generator-backed A-UDTF standing in for a remote source whose transport
/// can stream: it yields its 10k rows batch by batch without ever holding
/// the full result.
class Gen10kUdtf : public fdbs::TableFunction {
 public:
  Gen10kUdtf() { schema_.AddColumn("v", DataType::kInt); }

  const std::string& name() const override { return name_; }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }

  Result<RowSourcePtr> InvokeStream(const std::vector<Value>&,
                                    fdbs::ExecContext&,
                                    size_t batch_size) override {
    auto next = std::make_shared<int>(0);
    const size_t chunk =
        batch_size == 0 ? static_cast<size_t>(kRows) : batch_size;
    return MakeGeneratorSource(
        schema_, [next, chunk]() -> Result<RowBatch> {
          RowBatch batch;
          while (*next < kRows && batch.size() < chunk) {
            batch.rows.push_back({Value::Int((*next)++)});
          }
          return batch;
        });
  }

 private:
  std::string name_ = "gen10k";
  std::vector<Column> params_;
  Schema schema_;
};

std::unique_ptr<fdbs::Database> MakeDatabase() {
  auto db = std::make_unique<fdbs::Database>();
  auto st = db->catalog().RegisterTableFunction(std::make_shared<Gen10kUdtf>());
  if (st.ok()) {
    auto r = db->Execute(
        "CREATE FUNCTION passthru (x INT) RETURNS TABLE (v2 INT) "
        "LANGUAGE SQL RETURN SELECT passthru.x * 2");
    st = r.status();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return db;
}

/// Runs the chain under the given batch size; returns the peak residency.
size_t Measure(fdbs::Database* db, size_t batch_size) {
  PipelineStats stats;
  fdbs::ExecContext ctx;
  ctx.batch_size = batch_size;
  ctx.pipeline_stats = &stats;
  auto r = db->Execute(kQuery, ctx);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  if (r->num_rows() != static_cast<size_t>(kRows)) {
    std::fprintf(stderr, "wrong row count: %zu\n", r->num_rows());
    std::abort();
  }
  return stats.peak_resident_rows;
}

void BM_LateralChain(benchmark::State& state) {
  auto db = MakeDatabase();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  size_t peak = 0;
  for (auto _ : state) {
    peak = Measure(db.get(), batch_size);
  }
  state.counters["peak_resident_rows"] =
      benchmark::Counter(static_cast<double>(peak));
}
BENCHMARK(BM_LateralChain)
    ->Arg(0)  // batch_size 0 = unbounded (materializing baseline)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void PrintTable() {
  auto db = MakeDatabase();
  std::printf(
      "\n=== Peak intermediate-row residency, 10k-row A-UDTF chain ===\n");
  std::printf("query: %s\n\n", kQuery);
  std::printf("%-26s %20s\n", "plan", "peak resident rows");
  PrintRule(48);
  BenchJson json("streaming_residency");
  const size_t materialized = Measure(db.get(), 0);
  json.Add("materializing", "peak_resident_rows",
           static_cast<int64_t>(materialized));
  std::printf("%-26s %20zu\n", "materializing (batch=0)", materialized);
  for (size_t bs : {size_t{64}, size_t{256}, size_t{1024}}) {
    const size_t peak = Measure(db.get(), bs);
    json.Add("streaming_batch" + std::to_string(bs), "peak_resident_rows",
             static_cast<int64_t>(peak));
    std::printf("streaming (batch=%-5zu)     %20zu\n", bs, peak);
    // The contract the refactor exists for: residency tracks the batch
    // size, not the 10k-row intermediate result.
    if (peak >= materialized || peak > 8 * bs) {
      std::fprintf(stderr,
                   "residency not bounded: peak %zu at batch size %zu "
                   "(materializing peak %zu)\n",
                   peak, bs, materialized);
      std::abort();
    }
  }
  PrintRule(48);
  std::printf(
      "the materializing plan buffers the whole 10k-row intermediate\n"
      "result between operators; the streaming plan holds a few batches\n");
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
