#include "harness.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "federation/sample_scenario.h"
#include "sql/ast.h"

namespace fedbench {

using fedflow::Result;
using fedflow::Status;
using fedflow::Table;
using fedflow::federation::FederatedFunctionSpec;

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

Result<Deployment> BuildDeployment(const WorkloadConfig& config,
                                   SetupTiming* timing) {
  const int64_t start = NowNs();
  std::vector<FederatedFunctionSpec> specs =
      fedflow::federation::SampleSpecs();
  if (config.writes) {
    specs.push_back(fedflow::federation::ProcureComponentSpec());
  }
  fedflow::federation::ControllerPoolOptions pool;
  pool.max_size = config.clients;

  Deployment d;
  d.scenario = fedflow::appsys::GenerateScenario(config.scenario);
  for (size_t a = 0; a < kNumArchs; ++a) {
    FEDFLOW_ASSIGN_OR_RETURN(
        d.servers[a],
        IntegrationServer::Create(kArchs[a], d.scenario, {}, pool));
    d.servers[a]->set_caching_enabled(config.caching);
    for (const FederatedFunctionSpec& spec : specs) {
      const int64_t t0 = NowNs();
      Status registered = d.servers[a]->RegisterFederatedFunction(spec);
      if (timing != nullptr) timing->register_ns.push_back(NowNs() - t0);
      if (!registered.ok()) {
        return Status::Internal(std::string(ArchKey(kArchs[a])) +
                                ": cannot register " + spec.name + ": " +
                                registered.ToString());
      }
    }
  }
  if (timing != nullptr) timing->total_ns = NowNs() - start;
  return d;
}

std::string CallSql(const Call& call) {
  std::string sql = "SELECT * FROM TABLE (" + call.function + "(";
  for (size_t i = 0; i < call.args.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += fedflow::sql::LiteralExpr(call.args[i]).ToSql();
  }
  return sql + ")) AS R";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int64_t CalibrationNs() {
  static volatile size_t sink = 0;
  const int64_t t0 = NowNs();
  std::vector<std::string> keys;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 256; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back("call.function." + std::to_string(x % 97) + ".hot");
  }
  std::map<std::string, int64_t> counts;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& k : keys) {
      counts[k] += static_cast<int64_t>(k.size());
    }
  }
  std::sort(keys.begin(), keys.end());
  sink = sink + counts.size() + keys.front().size();
  return NowNs() - t0;
}

namespace {

// Wall time between two calibration samples of the single-client loop:
// about 0.5% of the run.
constexpr int64_t kCalibrationIntervalNs = 20'000'000;

// Nearest-rank percentile of unsorted samples, in microseconds.
double NearestRankUs(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

// Appends `w`; a trailing stretch under half the previous window's size
// (the run's deadline cut it short) is folded into that window instead.
void AddWindow(std::vector<Window>* windows, Window w) {
  if (w.latency_ns.empty()) return;
  if (!windows->empty() &&
      2 * w.latency_ns.size() < windows->back().latency_ns.size()) {
    Window& prev = windows->back();
    const double n_prev = static_cast<double>(prev.latency_ns.size());
    const double n = static_cast<double>(w.latency_ns.size());
    prev.calls_per_s =
        (prev.calls_per_s * n_prev + w.calls_per_s * n) / (n_prev + n);
    prev.calibration_ns =
        (prev.calibration_ns * n_prev + w.calibration_ns * n) / (n_prev + n);
    prev.latency_ns.insert(prev.latency_ns.end(), w.latency_ns.begin(),
                           w.latency_ns.end());
    return;
  }
  windows->push_back(std::move(w));
}

// A single client's window: its calls per second of call time.
Window ClientWindow(std::vector<int64_t> latency_ns, double calibration_ns) {
  Window w;
  w.calibration_ns = calibration_ns;
  int64_t busy = 0;
  for (int64_t ns : latency_ns) busy += ns;
  if (busy > 0) {
    w.calls_per_s = 1e9 * static_cast<double>(latency_ns.size()) / busy;
  }
  w.latency_ns = std::move(latency_ns);
  return w;
}

// Pins the calling thread to the `index`-th CPU it may run on (modulo their
// number), so concurrent clients do not migrate between cores.
void PinThreadToCpu(size_t index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

}  // namespace

double PhaseResult::CallsPerSecond(size_t arch) const {
  std::vector<double> rates;
  for (const Window& w : windows[arch]) {
    rates.push_back(w.calls_per_s / w.ToReference());
  }
  return Median(rates);
}

double PhaseResult::PercentileUs(size_t arch, double q, size_t* samples) const {
  const std::vector<Window>& ws = windows[arch];
  if (ws.size() < 3) {
    std::vector<int64_t> all;
    std::vector<double> calibration;
    for (const Window& w : ws) {
      all.insert(all.end(), w.latency_ns.begin(), w.latency_ns.end());
      calibration.push_back(w.calibration_ns);
    }
    *samples = all.size();
    const double cal = Median(calibration);
    return NearestRankUs(std::move(all), q) *
           (cal > 0 ? kReferenceCalibrationNs / cal : 1);
  }
  std::vector<double> per_window;
  std::vector<double> sizes;
  for (const Window& w : ws) {
    per_window.push_back(NearestRankUs(w.latency_ns, q) * w.ToReference());
    sizes.push_back(static_cast<double>(w.latency_ns.size()));
  }
  *samples = static_cast<size_t>(Median(sizes));
  return Median(per_window);
}

int64_t PhaseResult::Calls(size_t arch) const {
  int64_t n = 0;
  for (const ClientStats& s : stats[arch]) n += s.calls;
  return n;
}

int64_t PhaseResult::Bad() const {
  int64_t n = 0;
  for (const auto& per_arch : stats) {
    for (const ClientStats& s : per_arch) n += s.failed + s.wrong;
  }
  return n;
}

int64_t PhaseResult::Attempted() const {
  int64_t n = 0;
  for (size_t a = 0; a < kNumArchs; ++a) n += Calls(a);
  return n;
}

Bench::Bench(const WorkloadConfig& config, Deployment deployment,
             uint64_t seed)
    : config_(config), deployment_(std::move(deployment)) {
  for (size_t c = 0; c < config_.clients; ++c) {
    tenants_.push_back(config_.clients == 1 ? "default"
                                            : "tenant" + std::to_string(c));
  }
  // Every architecture replays the same per-client sequences, so the
  // architectures see the same calls whatever share of the run each gets.
  for (size_t a = 0; a < kNumArchs; ++a) {
    for (size_t c = 0; c < config_.clients; ++c) {
      generators_[a].emplace_back(config_, deployment_.scenario, seed, c);
    }
  }
}

Status Bench::BuildReferences() {
  if (config_.kind != WorkloadKind::kTenantMix) return Status::OK();
  WorkloadConfig uncached = config_;
  uncached.caching = false;
  uncached.writes = false;
  uncached.clients = 1;
  FEDFLOW_ASSIGN_OR_RETURN(Deployment ref, BuildDeployment(uncached));
  IntegrationServer& server = *ref.servers[1];  // the UDTF coupling
  for (const Call& call : generators_[0][0].ReadDomain()) {
    Result<IntegrationServer::TimedResult> r =
        server.CallFederated(call.function, call.args);
    if (!r.ok()) {
      return Status::Internal("reference " + call.Key() + ": " +
                              r.status().ToString());
    }
    reference_.emplace(call.Key(), std::move(r->table));
  }
  return Status::OK();
}

Bench::Outcome Bench::Invoke(size_t arch, size_t client, const Call& call) {
  IntegrationServer& s = server(arch);
  Outcome out;
  out.start_ns = NowNs();
  Result<IntegrationServer::TimedResult> r =
      s.CallFederatedFor(tenants_[client], call.function, call.args);
  out.end_ns = NowNs();
  out.ok = r.ok();
  if (r.ok()) {
    out.result = std::move(r).ValueUnsafe();
  } else {
    out.status = fedflow::StatusCodeName(r.status().code());
  }
  return out;
}

void Bench::Account(const Outcome& out, bool wrong, ClientStats* stats,
                    std::vector<int64_t>* latency_ns) const {
  ++stats->calls;
  if (!out.ok) ++stats->failed;
  if (wrong) ++stats->wrong;
  latency_ns->push_back(out.end_ns - out.start_ns);
}

Status Bench::WarmUp(double seconds) {
  for (size_t a = 0; a < kNumArchs; ++a) {
    std::vector<std::string> seen;
    for (const Call& call : generators_[a][0].ReadDomain()) {
      if (std::find(seen.begin(), seen.end(), call.function) != seen.end()) {
        continue;
      }
      seen.push_back(call.function);
      Outcome out = Invoke(a, 0, call);
      if (!out.ok) {
        return Status::Internal(std::string("warm-up ") + ArchKey(kArchs[a]) +
                                " " + call.Key() + ": " + out.status);
      }
    }
  }
  PhaseResult warm = RunPhase(seconds, 0, false);
  // Only hot calls may define the constant cost check (b) holds the timed
  // phases to.
  for (auto& by_key : elapsed_) by_key.clear();
  if (warm.Bad() > 0) {
    return Status::Internal("warm-up: " + std::to_string(warm.Bad()) +
                            " calls failed or answered wrongly");
  }
  return Status::OK();
}

PhaseResult Bench::RunPhase(double seconds, int64_t max_calls_per_client,
                            bool traced) {
  PhaseResult phase;
  for (auto& per_arch : phase.stats) per_arch.resize(config_.clients);
  if (traced) {
    for (size_t a = 0; a < kNumArchs; ++a) server(a).tracer().Enable();
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  if (config_.clients == 1) {
    RunInterleaved(deadline, max_calls_per_client, traced, &phase);
  } else {
    RunSlices(deadline, max_calls_per_client, traced, &phase);
  }
  if (traced) {
    for (size_t a = 0; a < kNumArchs; ++a) server(a).tracer().Disable();
  }
  return phase;
}

void Bench::RunInterleaved(Clock::time_point deadline, int64_t max_calls,
                           bool record, PhaseResult* phase) {
  CallGenerator& gen = generators_[0][0];
  std::array<std::vector<int64_t>, kNumArchs> window;
  std::vector<double> calibration;
  auto close_window = [&] {
    const double cal = Median(calibration);
    for (size_t a = 0; a < kNumArchs; ++a) {
      AddWindow(&phase->windows[a], ClientWindow(std::move(window[a]), cal));
      window[a].clear();
    }
    calibration.clear();
  };
  int64_t last_calibration = 0;
  for (size_t round = 0; Clock::now() < deadline; ++round) {
    if (max_calls > 0 && phase->stats[0][0].calls >= max_calls) break;
    if (calibration.empty() ||
        NowNs() - last_calibration >= kCalibrationIntervalNs) {
      last_calibration = NowNs();
      calibration.push_back(static_cast<double>(CalibrationNs()));
    }
    const Call call = gen.Next();
    std::array<Outcome, kNumArchs> out;
    for (size_t k = 0; k < kNumArchs; ++k) {
      const size_t a = (round + k) % kNumArchs;
      out[a] = Invoke(a, 0, call);
    }
    JudgeRound(call, out, record, &window, phase);
    if (window[0].size() == kWindowCalls) close_window();
  }
  if (!window[0].empty()) {
    if (calibration.empty()) {
      calibration.push_back(static_cast<double>(CalibrationNs()));
    }
    close_window();
  }
}

void Bench::JudgeRound(const Call& call, std::array<Outcome, kNumArchs>& out,
                       bool record,
                       std::array<std::vector<int64_t>, kNumArchs>* window,
                       PhaseResult* phase) {
  auto same = [&](size_t i, size_t j) {
    return out[i].result.table == out[j].result.table ||
           Table::SameRowsAnyOrder(out[i].result.table, out[j].result.table);
  };
  // (a) The architectures must agree: the reference is an answer at least
  // two of them returned. One lone answer cannot be judged.
  size_t num_ok = 0;
  int ref = -1;
  for (size_t i = 0; i < kNumArchs; ++i) {
    if (!out[i].ok) continue;
    ++num_ok;
    for (size_t j = i + 1; j < kNumArchs && ref < 0; ++j) {
      if (out[j].ok && same(i, j)) ref = static_cast<int>(i);
    }
  }
  const std::string key = call.Key();
  size_t call_index = 0;
  if (record) {
    std::lock_guard<std::mutex> lock(mu_);
    call_index = recorded_calls_.size();
    recorded_calls_.push_back(call);
  }
  for (size_t a = 0; a < kNumArchs; ++a) {
    bool wrong = false;
    if (out[a].ok) {
      if (num_ok >= 2 && (ref < 0 || !same(a, static_cast<size_t>(ref)))) {
        wrong = true;
      }
      // (b) A hot call's virtual cost is a constant of (arch, function,
      // args): the paper's cost model must not drift with the wall clock.
      if (out[a].result.warmth != fedflow::sim::SystemState::Warmth::kHot) {
        wrong = true;
      }
      auto [it, inserted] = elapsed_[a].emplace(key, out[a].result.elapsed_us);
      if (!inserted && it->second != out[a].result.elapsed_us) wrong = true;
    }
    Account(out[a], wrong, &phase->stats[a][0], &(*window)[a]);
    if (record) {
      BenchSpan span;
      span.name = call.function;
      span.arch = ArchKey(kArchs[a]);
      span.start_ns = out[a].start_ns;
      span.end_ns = out[a].end_ns;
      span.rows = static_cast<int64_t>(out[a].result.table.num_rows());
      span.status = wrong ? "WRONG" : out[a].status;
      span.call = call_index;
      AddSpan(std::move(span));
    }
  }
}

void Bench::RunSlices(Clock::time_point deadline, int64_t max_calls,
                      bool record, PhaseResult* phase) {
  // Short slices interleave the architectures over the run, so a drift in
  // the machine's speed hits all three alike.
  constexpr auto kSlice = std::chrono::milliseconds(200);
  // Calibrated between slices, while no client runs: the kernel sees the
  // host, not the clients' own load.
  double calibration_before = static_cast<double>(CalibrationNs());
  while (Clock::now() < deadline) {
    bool capped = max_calls > 0;
    for (size_t a = 0; a < kNumArchs; ++a) {
      const Clock::time_point end = std::min(Clock::now() + kSlice, deadline);
      std::vector<Window> per_client(config_.clients);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < config_.clients; ++c) {
        clients.emplace_back([this, a, c, end, max_calls, record, phase,
                              w = &per_client[c]] {
          RunClient(a, c, end, max_calls, record, &phase->stats[a][c], w);
        });
      }
      for (std::thread& t : clients) t.join();
      const double calibration_after = static_cast<double>(CalibrationNs());
      Window slice;
      slice.calibration_ns = (calibration_before + calibration_after) / 2;
      calibration_before = calibration_after;
      for (Window& w : per_client) {
        slice.calls_per_s += w.calls_per_s;
        slice.latency_ns.insert(slice.latency_ns.end(), w.latency_ns.begin(),
                                w.latency_ns.end());
      }
      AddWindow(&phase->windows[a], std::move(slice));
      for (const ClientStats& s : phase->stats[a]) {
        if (s.calls < max_calls) capped = false;
      }
    }
    if (capped) break;
  }
}

void Bench::RunClient(size_t arch, size_t client, Clock::time_point end,
                      int64_t max_calls, bool record, ClientStats* stats,
                      Window* window) {
  PinThreadToCpu(client);
  CallGenerator& gen = generators_[arch][client];
  std::vector<Call> writes;
  std::vector<std::pair<Call, BenchSpan>> recorded;
  std::vector<int64_t> latency_ns;
  while (Clock::now() < end && (max_calls == 0 || stats->calls < max_calls)) {
    Call call = gen.Next();
    Outcome out = Invoke(arch, client, call);
    bool wrong = false;
    if (out.ok && call.write) {
      // The write's answer (order number, reserved total) depends on the
      // interleaving; its effect is checked after the run.
      wrong = out.result.table.num_rows() != 1;
      if (!wrong) writes.push_back(call);
    } else if (out.ok) {
      // (c) Every read, cached or not, equals the uncached reference.
      auto it = reference_.find(call.Key());
      wrong = it == reference_.end() ||
              !(it->second == out.result.table ||
                Table::SameRowsAnyOrder(it->second, out.result.table));
    }
    Account(out, wrong, stats, &latency_ns);
    if (record) {
      BenchSpan span;
      span.name = call.function;
      span.arch = ArchKey(kArchs[arch]);
      span.start_ns = out.start_ns;
      span.end_ns = out.end_ns;
      span.rows = static_cast<int64_t>(out.result.table.num_rows());
      span.status = wrong ? "WRONG" : out.status;
      recorded.emplace_back(std::move(call), std::move(span));
    }
  }
  *window = ClientWindow(std::move(latency_ns), kReferenceCalibrationNs);
  std::lock_guard<std::mutex> lock(mu_);
  for (Call& w : writes) committed_[arch].push_back(std::move(w));
  for (auto& [call, span] : recorded) {
    span.call = recorded_calls_.size();
    recorded_calls_.push_back(std::move(call));
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
  }
}

uint64_t Bench::AddSpan(BenchSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t Bench::committed_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& w : committed_) n += static_cast<int64_t>(w.size());
  return n;
}

std::vector<std::string> Bench::CheckWrites() {
  std::vector<std::string> mismatches;
  if (!config_.writes) return mismatches;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t a = 0; a < kNumArchs; ++a) {
    const std::string arch = ArchKey(kArchs[a]);
    std::map<std::pair<int32_t, int32_t>, int64_t> reserved;
    // supplier -> component -> (orders, amount)
    std::map<int32_t, std::map<int32_t, std::pair<int64_t, int64_t>>> orders;
    for (const Call& w : committed_[a]) {
      reserved[{w.supplier_no, w.comp_no}] += w.amount;
      auto& o = orders[w.supplier_no][w.comp_no];
      ++o.first;
      o.second += w.amount;
    }
    const fedflow::appsys::AppSystemRegistry& systems = server(a).systems();
    Result<fedflow::appsys::AppSystem*> stock = systems.Get("stock");
    Result<fedflow::appsys::AppSystem*> purchasing = systems.Get("purchasing");
    if (!stock.ok() || !purchasing.ok()) {
      mismatches.push_back(arch + ": stock or purchasing system missing");
      continue;
    }
    for (const auto& [key, amount] : reserved) {
      auto r = (*stock)->Call("GetReserved", {Value::Int(key.first),
                                              Value::Int(key.second)});
      const int64_t got = r.ok() && r->table.num_rows() == 1
                              ? r->table.rows()[0][0].AsInt()
                              : -1;
      if (got != amount) {
        mismatches.push_back(arch + ": GetReserved(" +
                             std::to_string(key.first) + ", " +
                             std::to_string(key.second) + ") = " +
                             std::to_string(got) +
                             ", committed writes sum to " +
                             std::to_string(amount));
      }
    }
    for (const auto& s : deployment_.scenario.suppliers) {
      auto r =
          (*purchasing)->Call("GetOpenOrders", {Value::Int(s.supplier_no)});
      std::map<int32_t, std::pair<int64_t, int64_t>> got;
      if (r.ok()) {
        for (const fedflow::Row& row : r->table.rows()) {
          auto& o = got[row[1].AsInt()];
          ++o.first;
          o.second += row[2].AsInt();
        }
      }
      if (!r.ok() || got != orders[s.supplier_no]) {
        mismatches.push_back(arch + ": GetOpenOrders(" +
                             std::to_string(s.supplier_no) +
                             ") differs from the committed writes");
      }
    }
  }
  return mismatches;
}

}  // namespace fedbench
