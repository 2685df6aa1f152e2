#include "probes.h"

#include <algorithm>
#include <thread>

#include "common/codec.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "plan/lower_sql.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace fedbench {

using fedflow::Result;
using fedflow::Status;
using fedflow::Table;

namespace {

// Sampled traced calls per architecture, and repetitions of each probe.
constexpr size_t kSamples = 32;
constexpr int kReps = 3;
// Iterations per thread of the contention probes.
constexpr int kContentionIters = 20000;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Count(const char* what, int64_t n) {
  return std::string(what) + "=" + std::to_string(n);
}

/// The local calls one federated call makes, evaluated over its compiled
/// plan: every call node in plan order, once per combination of the rows its
/// argument sources produced. Adds the wall time spent inside
/// AppSystem::Call to `*call_ns`.
Status ReplayLocalCalls(IntegrationServer& server, const Call& call,
                        std::vector<Table>* results, int64_t* call_ns) {
  std::shared_ptr<const fedflow::plan::FedPlan> plan =
      server.plan_cache().Lookup(call.function);
  if (plan == nullptr) return Status::NotFound("no plan for " + call.function);
  std::vector<Table> outputs(plan->calls.size());
  for (size_t idx : plan->order) {
    const fedflow::plan::PlanCall& node = plan->calls[idx];
    FEDFLOW_ASSIGN_OR_RETURN(fedflow::appsys::AppSystem * system,
                             server.systems().Get(node.system));
    outputs[idx] = Table(node.result_schema);
    // Source nodes of the node-column arguments, and the column each reads.
    std::vector<size_t> sources;
    std::vector<std::pair<size_t, size_t>> arg_source(node.args.size());
    for (size_t i = 0; i < node.args.size(); ++i) {
      const fedflow::federation::SpecArg& arg = node.args[i];
      if (arg.kind != fedflow::federation::SpecArg::Kind::kNodeColumn) continue;
      FEDFLOW_ASSIGN_OR_RETURN(size_t src, plan->CallIndex(arg.node));
      FEDFLOW_ASSIGN_OR_RETURN(size_t col,
                               outputs[src].schema().FindColumn(arg.column));
      auto at = std::find(sources.begin(), sources.end(), src);
      if (at == sources.end()) at = sources.insert(sources.end(), src);
      arg_source[i] = {static_cast<size_t>(at - sources.begin()), col};
    }
    bool empty_source = false;
    for (size_t src : sources) empty_source |= outputs[src].empty();
    if (empty_source) continue;  // the lateral chain produces no row here
    std::vector<size_t> row(sources.size(), 0);
    while (true) {
      std::vector<fedflow::Value> args;
      for (size_t i = 0; i < node.args.size(); ++i) {
        const fedflow::federation::SpecArg& arg = node.args[i];
        switch (arg.kind) {
          case fedflow::federation::SpecArg::Kind::kConstant:
            args.push_back(arg.constant);
            break;
          case fedflow::federation::SpecArg::Kind::kParam:
            for (size_t p = 0; p < plan->params.size(); ++p) {
              if (fedflow::EqualsIgnoreCase(plan->params[p].name, arg.param)) {
                args.push_back(call.args[p]);
              }
            }
            break;
          case fedflow::federation::SpecArg::Kind::kNodeColumn: {
            const auto [k, col] = arg_source[i];
            args.push_back(outputs[sources[k]].rows()[row[k]][col]);
            break;
          }
        }
      }
      const int64_t t0 = NowNs();
      Result<fedflow::appsys::AppSystem::CallResult> r =
          system->Call(node.function, args);
      *call_ns += NowNs() - t0;
      if (!r.ok()) return r.status();
      results->push_back(r->table);
      FEDFLOW_RETURN_NOT_OK(outputs[idx].AppendTableRows(std::move(r->table)));
      size_t k = row.size();
      while (k > 0 && ++row[k - 1] == outputs[sources[k - 1]].num_rows()) {
        row[--k] = 0;
      }
      if (k == 0) break;
    }
  }
  return Status::OK();
}

/// The body SELECT the Java coupling renders for `call`, arguments inlined
/// as literals.
Result<std::string> JavaBodySql(IntegrationServer& server, const Call& call) {
  std::shared_ptr<const fedflow::plan::FedPlan> plan =
      server.plan_cache().Lookup(call.function);
  if (plan == nullptr) return Status::NotFound("no plan for " + call.function);
  return fedflow::plan::RenderSelectSql(
      *plan, [&](const std::string& param) -> std::string {
        for (size_t i = 0; i < plan->params.size(); ++i) {
          if (fedflow::EqualsIgnoreCase(plan->params[i].name, param)) {
            return fedflow::sql::LiteralExpr(call.args[i]).ToSql();
          }
        }
        return param;
      });
}

/// Medians over the sampled calls of each layer probe.
struct ProbeTotals {
  std::array<size_t, kNumArchs> sampled{};
  std::array<std::vector<double>, kNumArchs> parse_ns, query_ns, overhead_ns;
  std::vector<double> wfms_run_ns;
  std::vector<double> appsys_call_ns;
  int64_t local_rows = 0;
  int64_t codec_bytes = 0;
  double codec_ns = 0;
  size_t replayed = 0;
  int64_t probe_failures = 0;
};

/// Replays up to kSamples traced calls per architecture through each
/// module's public entry point. Every probe runs kReps times; its median is
/// the sample's value, and one BenchSpan covering the repetitions is
/// recorded under the replayed call.
ProbeTotals ProbeCalls(Bench& bench) {
  ProbeTotals totals;
  // Copy the sample first: the probes append spans to the list.
  std::array<std::vector<BenchSpan>, kNumArchs> samples;
  for (const BenchSpan& span : bench.spans()) {
    if (span.parent != 0 || span.status != "OK") continue;
    if (bench.recorded_calls()[span.call].write) continue;
    for (size_t a = 0; a < kNumArchs; ++a) {
      if (span.arch == ArchKey(kArchs[a]) && samples[a].size() < kSamples) {
        samples[a].push_back(span);
      }
    }
  }
  for (size_t a = 0; a < kNumArchs; ++a) {
    IntegrationServer& server = bench.server(a);
    // Probes measure the uncached path; the cache has its own counters.
    const bool caching = server.caching_enabled();
    server.set_caching_enabled(false);
    for (const BenchSpan& parent : samples[a]) {
      const Call call = bench.recorded_calls()[parent.call];
      // Runs `fn` kReps times, records one span, returns the median ns.
      // `fn` returns the rows it produced, or -1 on failure.
      auto probe = [&](const std::string& name, auto&& fn) {
        std::vector<double> ns;
        BenchSpan span;
        span.parent = parent.id;
        span.name = "probe:" + name;
        span.arch = parent.arch;
        span.call = parent.call;
        span.status = "OK";
        span.start_ns = NowNs();
        for (int r = 0; r < kReps; ++r) {
          const int64_t t0 = NowNs();
          const int64_t rows = fn();
          ns.push_back(static_cast<double>(NowNs() - t0));
          if (rows < 0) span.status = "FAILED";
          span.rows = rows;
        }
        span.end_ns = NowNs();
        if (span.status != "OK") ++totals.probe_failures;
        bench.AddSpan(std::move(span));
        return Median(ns);
      };
      const std::string sql = CallSql(call);
      double parse = probe("sql::Parse", [&] {
        return fedflow::sql::Parse(sql).ok() ? int64_t{0} : int64_t{-1};
      });
      if (kArchs[a] == Architecture::kJavaUdtf) {
        Result<std::string> body = JavaBodySql(server, call);
        parse += probe("sql::Parse(java body)", [&] {
          return body.ok() && fedflow::sql::Parse(*body).ok() ? int64_t{0}
                                                              : int64_t{-1};
        });
      }
      totals.parse_ns[a].push_back(parse);
      const double query = probe("IntegrationServer::Query", [&] {
        Result<Table> t = server.Query(sql);
        return t.ok() ? static_cast<int64_t>(t->num_rows()) : int64_t{-1};
      });
      const double whole = probe("IntegrationServer::CallFederated", [&] {
        auto t = server.CallFederated(call.function, call.args);
        return t.ok() ? static_cast<int64_t>(t->table.num_rows()) : int64_t{-1};
      });
      totals.query_ns[a].push_back(query);
      totals.overhead_ns[a].push_back(whole - query);
      if (kArchs[a] == Architecture::kWfms) {
        totals.wfms_run_ns.push_back(probe("wfms::Engine::Run", [&] {
          auto run = server.engine()->Run(call.function, call.args,
                                          server.program_invoker());
          return run.ok() ? static_cast<int64_t>(run->output.num_rows())
                          : int64_t{-1};
        }));
      }
      if (kArchs[a] == Architecture::kUdtf) {
        // The application systems and the codec see the same local calls
        // under every coupling; replaying them once is enough.
        std::vector<Table> local;
        // The probe's span covers the whole replay; the metric counts only
        // the time inside AppSystem::Call.
        std::vector<double> call_ns;
        probe("AppSystem::Call", [&] {
          local.clear();
          int64_t ns = 0;
          if (!ReplayLocalCalls(server, call, &local, &ns).ok()) {
            return int64_t{-1};
          }
          call_ns.push_back(static_cast<double>(ns));
          int64_t rows = 0;
          for (const Table& t : local) {
            rows += static_cast<int64_t>(t.num_rows());
          }
          return rows;
        });
        totals.appsys_call_ns.push_back(Median(call_ns));
        int64_t bytes = 0;
        totals.codec_ns += probe("ByteWriter::PutTable+GetTable", [&] {
          int64_t rows = 0;
          bytes = 0;
          for (const Table& t : local) {
            fedflow::ByteWriter w;
            w.PutTable(t);
            fedflow::ByteReader r(w.buffer());
            Result<Table> back = r.GetTable();
            if (!back.ok() || back->num_rows() != t.num_rows()) {
              return int64_t{-1};
            }
            bytes += static_cast<int64_t>(w.size());
            rows += static_cast<int64_t>(t.num_rows());
          }
          return rows;
        });
        for (const Table& t : local) {
          totals.local_rows += static_cast<int64_t>(t.num_rows());
        }
        totals.codec_bytes += bytes;
        ++totals.replayed;
      }
      ++totals.sampled[a];
    }
    server.set_caching_enabled(caching);
  }
  return totals;
}

/// Mean wall ns per iteration of `body` over `threads` threads running it
/// concurrently, kContentionIters times each; median of three trials.
template <typename Body>
double ContendedNs(size_t threads, const Body& body) {
  std::vector<double> trials;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> per_thread(threads);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const int64_t t0 = NowNs();
        for (int i = 0; i < kContentionIters; ++i) body(t);
        per_thread[t] =
            static_cast<double>(NowNs() - t0) / kContentionIters;
      });
    }
    for (std::thread& w : workers) w.join();
    double sum = 0;
    for (double ns : per_thread) sum += ns;
    trials.push_back(sum / static_cast<double>(threads));
  }
  return Median(trials);
}

}  // namespace

Counters ReadCounters(IntegrationServer& server) {
  Counters c;
  const fedflow::obs::MetricsRegistry& m = server.metrics();
  c.wfms_activities = static_cast<int64_t>(m.counter("wfms.activities"));
  c.rows_emitted = static_cast<int64_t>(m.counter("pipeline.rows_emitted"));
  c.batches = static_cast<int64_t>(m.counter("pipeline.batches_emitted"));
  c.columnar_batches =
      static_cast<int64_t>(m.counter("pipeline.columnar_batches"));
  for (const std::string& name : server.systems().Names()) {
    Result<fedflow::appsys::AppSystem*> system = server.systems().Get(name);
    if (!system.ok()) continue;
    for (const auto& [fn, n] : (*system)->FunctionCallCounts()) {
      c.local_calls += n;
    }
  }
  return c;
}

void TallySpans(Bench& bench, TracedRun* run) {
  for (size_t a = 0; a < kNumArchs; ++a) {
    fedflow::obs::Tracer& tracer = bench.server(a).tracer();
    for (const fedflow::obs::Span& span : tracer.Snapshot()) {
      const size_t layer = static_cast<size_t>(span.layer);
      if (layer < kNumLayers) ++run->spans[a][layer];
    }
    tracer.Reset();
  }
}

std::vector<Metric> LayerMetrics(Bench& bench, const TracedRun& run) {
  std::vector<Metric> out;
  const size_t n = bench.config().clients;
  std::array<int64_t, kNumArchs> traced_calls{};
  int64_t all_traced = 0;
  for (size_t a = 0; a < kNumArchs; ++a) {
    traced_calls[a] = run.traced.Calls(a);
    all_traced += traced_calls[a];
  }

  // Server-side counters, read before the probes add calls of their own.
  fedflow::cache::ResultCache::Stats cache;
  fedflow::sim::WarmPool::Stats pool;
  int64_t log_records = 0;
  int64_t dedup = 0;
  for (size_t a = 0; a < kNumArchs; ++a) {
    IntegrationServer& s = bench.server(a);
    const auto c = s.result_cache().stats();
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.invalidations += c.invalidations;
    const auto p = s.controller_pool().pool().stats();
    pool.cold_checkouts += p.cold_checkouts;
    pool.warm_checkouts += p.warm_checkouts;
    pool.hot_checkouts += p.hot_checkouts;
    pool.exhausted_rejections += p.exhausted_rejections;
    log_records += static_cast<int64_t>(s.saga_runtime().LogSnapshot().size());
    dedup += static_cast<int64_t>(s.metrics().counter("saga.dedup"));
  }
  const int64_t writes = bench.committed_writes();
  const std::string fn = bench.recorded_calls().empty()
                             ? std::string("GetNoSuppComp")
                             : bench.recorded_calls().front().function;

  const ProbeTotals probes = ProbeCalls(bench);
  auto per_sample = [&](size_t a) {
    return "median over " + std::to_string(probes.sampled[a]) +
           " sampled traced calls x " + std::to_string(kReps) + " reps";
  };

  // sql
  for (size_t a = 0; a < kNumArchs; ++a) {
    out.push_back({std::string("sql.parse_ns.") + ArchKey(kArchs[a]),
                   Median(probes.parse_ns[a]), "ns",
                   per_sample(a) + "; call SELECT" +
                       (kArchs[a] == Architecture::kJavaUdtf
                            ? " + rendered body SELECT"
                            : "")});
  }
  // plan
  std::vector<double> reg(run.register_ns.begin(), run.register_ns.end());
  out.push_back({"plan.compiles_in_run",
                 static_cast<double>(run.compiles_in_run), "count",
                 "plan::BuildPlanInvocations() delta over both timed phases"});
  out.push_back({"plan.register_ns", Median(reg), "ns",
                 "median over " + std::to_string(reg.size()) +
                     " RegisterFederatedFunction calls of the setup repeats"});
  // cache
  const int64_t cache_probes = cache.hits + cache.misses;
  out.push_back({"cache.result.hit_ratio",
                 Ratio(static_cast<double>(cache.hits), cache_probes), "frac",
                 Count("hits", cache.hits) + " / " +
                     Count("probes", cache_probes) +
                     ", whole run, all architectures"});
  out.push_back({"cache.result.hits", static_cast<double>(cache.hits), "count",
                 "whole run, all architectures"});
  out.push_back({"cache.result.probes", static_cast<double>(cache_probes),
                 "count", "hits + misses, whole run, all architectures"});
  out.push_back({"cache.result.invalidations_per_write",
                 Ratio(static_cast<double>(cache.invalidations), writes),
                 "count", Count("invalidations", cache.invalidations) + " / " +
                              Count("committed_writes", writes)});
  // fdbs
  for (size_t a = 0; a < kNumArchs; ++a) {
    const std::string arch = ArchKey(kArchs[a]);
    const Counters& b = run.before[a];
    const Counters& e = run.after[a];
    out.push_back({"fdbs.query_ns." + arch, Median(probes.query_ns[a]), "ns",
                   per_sample(a) + "; Query on the call SQL"});
    out.push_back({"fdbs.rows_emitted_per_call." + arch,
                   Ratio(static_cast<double>(e.rows_emitted - b.rows_emitted),
                         traced_calls[a]),
                   "rows",
                   Count("pipeline.rows_emitted",
                         e.rows_emitted - b.rows_emitted) +
                       " / " + Count("traced_calls", traced_calls[a])});
    out.push_back(
        {"fdbs.columnar_batch_frac." + arch,
         Ratio(static_cast<double>(e.columnar_batches - b.columnar_batches),
               static_cast<double>(e.batches - b.batches)),
         "frac",
         Count("pipeline.columnar_batches",
               e.columnar_batches - b.columnar_batches) +
             " / " + Count("pipeline.batches_emitted", e.batches - b.batches)});
  }
  // federation
  for (size_t a = 0; a < kNumArchs; ++a) {
    out.push_back({std::string("federation.flow_overhead_ns.") +
                       ArchKey(kArchs[a]),
                   Median(probes.overhead_ns[a]), "ns",
                   per_sample(a) + "; CallFederated ns - Query ns, same call"});
  }
  // sim: pool and RMI codec
  IntegrationServer& udtf = bench.server(1);
  auto checkout = [&](size_t t) {
    auto lease =
        udtf.controller_pool().Checkout("probe" + std::to_string(t), fn);
    if (lease.ok()) lease->Release();
  };
  out.push_back({"pool.checkout_ns.1t", ContendedNs(1, checkout), "ns",
                 "Checkout + Release, 1 thread, " +
                     std::to_string(kContentionIters) +
                     " iterations, median of 3"});
  out.push_back({"pool.checkout_ns.nt", ContendedNs(n, checkout), "ns",
                 "Checkout + Release, " + std::to_string(n) +
                     " threads (= clients), mean per thread, median of 3"});
  const int64_t checkouts =
      pool.cold_checkouts + pool.warm_checkouts + pool.hot_checkouts;
  out.push_back({"pool.hot_frac",
                 Ratio(static_cast<double>(pool.hot_checkouts), checkouts),
                 "frac",
                 Count("hot_checkouts", pool.hot_checkouts) + " / " +
                     Count("checkouts", checkouts) + ", whole run"});
  out.push_back({"pool.exhausted",
                 static_cast<double>(pool.exhausted_rejections),
                 "count", "exhausted rejections, whole run"});
  out.push_back({"rmi.codec_ns_per_row",
                 Ratio(probes.codec_ns, static_cast<double>(probes.local_rows)),
                 "ns", "PutTable+GetTable of the local results: summed sample "
                       "medians / " + Count("rows", probes.local_rows)});
  out.push_back({"rmi.bytes_per_call",
                 Ratio(static_cast<double>(probes.codec_bytes),
                       static_cast<double>(probes.replayed)),
                 "bytes", Count("bytes", probes.codec_bytes) + " / " +
                              Count("replayed_calls", probes.replayed)});
  // wfms
  out.push_back({"wfms.run_ns", Median(probes.wfms_run_ns), "ns",
                 per_sample(0) + "; engine()->Run of the function's process"});
  out.push_back(
      {"wfms.activities_per_call",
       Ratio(static_cast<double>(run.after[0].wfms_activities -
                                 run.before[0].wfms_activities),
             traced_calls[0]),
       "count",
       Count("wfms.activities", run.after[0].wfms_activities -
                                   run.before[0].wfms_activities) +
           " / " + Count("traced_wfms_calls", traced_calls[0])});
  // appsys
  out.push_back({"appsys.call_ns", Median(probes.appsys_call_ns), "ns",
                 per_sample(1) + "; AppSystem::Call over its local calls"});
  for (size_t a = 0; a < kNumArchs; ++a) {
    const int64_t d = run.after[a].local_calls - run.before[a].local_calls;
    out.push_back({std::string("appsys.calls_per_call.") + ArchKey(kArchs[a]),
                   Ratio(static_cast<double>(d), traced_calls[a]), "count",
                   Count("FunctionCallCounts_delta", d) + " / " +
                       Count("traced_calls", traced_calls[a])});
  }
  out.push_back({"appsys.rows_per_call",
                 Ratio(static_cast<double>(probes.local_rows),
                       static_cast<double>(probes.replayed)),
                 "rows", Count("local_rows", probes.local_rows) + " / " +
                             Count("replayed_calls", probes.replayed)});
  // txn
  out.push_back({"txn.writes", static_cast<double>(writes), "count",
                 "committed ProcureComponent calls, warm-up included"});
  out.push_back({"txn.log_records_per_write",
                 Ratio(static_cast<double>(log_records), writes), "count",
                 Count("saga_log_records", log_records) + " / " +
                     Count("committed_writes", writes)});
  out.push_back({"txn.dedup_hits", static_cast<double>(dedup), "count",
                 "saga.dedup counter, whole run"});
  // obs
  auto metrics_inc = [&](size_t threads) {
    fedflow::obs::MetricsRegistry registry;
    std::vector<std::vector<std::string>> names(threads);
    for (size_t t = 0; t < threads; ++t) {
      const std::string tenant = bench.tenant(t % n);
      names[t] = {"call.count", "call.function." + fn, "call.warmth.hot"};
      if (tenant != "default") {
        names[t].push_back(
            fedflow::obs::TenantMetricName(tenant, "call.count"));
        names[t].push_back(
            fedflow::obs::TenantMetricName(tenant, "call.function." + fn));
      }
    }
    const double per_iter = ContendedNs(threads, [&](size_t t) {
      for (const std::string& name : names[t]) registry.Inc(name);
    });
    return per_iter / static_cast<double>(names[0].size());
  };
  out.push_back({"obs.metrics_inc_ns.1t", metrics_inc(1), "ns",
                 "MetricsRegistry::Inc on one call's counter names, 1 thread"});
  out.push_back({"obs.metrics_inc_ns.nt", metrics_inc(n), "ns",
                 "MetricsRegistry::Inc on one call's counter names, " +
                     std::to_string(n) + " threads (= clients)"});
  for (size_t layer = 0; layer < kNumLayers; ++layer) {
    int64_t spans = 0;
    for (size_t a = 0; a < kNumArchs; ++a) spans += run.spans[a][layer];
    const char* name =
        fedflow::obs::LayerName(static_cast<fedflow::obs::Layer>(layer));
    out.push_back({std::string("obs.spans_per_call.") + name,
                   Ratio(static_cast<double>(spans), all_traced), "count",
                   Count("spans", spans) + " / " +
                       Count("traced_calls", all_traced)});
  }
  out.push_back({"obs.calls_traced", static_cast<double>(all_traced), "count",
                 "calls of the traced phase, all architectures"});
  double untraced_sum = 0;
  double traced_sum = 0;
  for (size_t a = 0; a < kNumArchs; ++a) {
    const double u = run.untraced.CallsPerSecond(a);
    const double t = run.traced.CallsPerSecond(a);
    untraced_sum += u;
    traced_sum += t;
    out.push_back({std::string("obs.trace_overhead_frac.") + ArchKey(kArchs[a]),
                   1 - Ratio(t, u), "frac",
                   "1 - traced/untraced calls_per_s (" + std::to_string(t) +
                       " / " + std::to_string(u) + ")"});
  }
  out.push_back({"obs.trace_overhead_frac", 1 - Ratio(traced_sum, untraced_sum),
                 "frac",
                 "1 - traced/untraced calls_per_s summed over architectures"});
  out.push_back({"probe.failures", static_cast<double>(probes.probe_failures),
                 "count", "layer probes that returned an error"});
  return out;
}

}  // namespace fedbench
