// Google-benchmark gates for the two serving claims perfbench does not
// measure: the lock-free forecast cache's hit path and the tenant router's
// fairness. Three scenarios write p50/p99 latency in microseconds to
// BENCH_serve_latency.json, which tools/check_bench_regression.py
// --serve-fresh gates on the fresh run alone:
//
//   serve.unbatched            one window at a time through
//                              FrozenModel::Predict on the caller thread;
//   serve.cached_reads.r128    ForecastCache::Read from 128 reader threads
//                              while a writer ticks (p99 <= 5x unbatched
//                              p50);
//   serve.tenant.*             closed-loop clients on one tenant vs one
//                              client per tenant on four tenants (worst
//                              tenant p99 <= 2x worst single-leg client
//                              p99, equal sample counts).
//
// Open-loop request latency, engine throughput and tick cost are
// perfbench's (serve-207, stream-100k). The model is small on purpose:
// these are ratios within one run, not absolute kernel costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sagdfn.h"
#include "serve/forecast_cache.h"
#include "serve/frozen_model.h"
#include "serve/tenant_router.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct ScenarioSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  int64_t requests = 0;
};

/// Sorts the scenario's latency sample once and reads both percentiles
/// through the shared R-7 estimator (bench::PercentileSorted).
ScenarioSummary Summarize(std::vector<double> latencies_us) {
  std::sort(latencies_us.begin(), latencies_us.end());
  ScenarioSummary summary;
  summary.p50_us = bench::PercentileSorted(latencies_us, 50.0);
  summary.p99_us = bench::PercentileSorted(latencies_us, 99.0);
  summary.requests = static_cast<int64_t>(latencies_us.size());
  return summary;
}

// Scenario name -> summary, written to BENCH_serve_latency.json by main().
std::map<std::string, ScenarioSummary>& Summaries() {
  static std::map<std::string, ScenarioSummary> summaries;
  return summaries;
}

void Record(const std::string& name, const ScenarioSummary& summary,
            benchmark::State& state) {
  Summaries()[name] = summary;
  state.counters["p50_us"] = summary.p50_us;
  state.counters["p99_us"] = summary.p99_us;
}

core::SagdfnConfig BenchConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 32;
  config.embedding_dim = 8;
  config.m = 12;
  config.k = 8;
  config.hidden_dim = 16;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.history = 12;
  config.horizon = 12;
  config.seed = 7;
  return config;
}

// One frozen model shared by every scenario: latency depends on shapes,
// not on trained weights, so the randomly initialized model is enough.
std::shared_ptr<const serve::FrozenModel> SharedModel() {
  static std::shared_ptr<const serve::FrozenModel> model = [] {
    auto raw = std::make_unique<core::SagdfnModel>(BenchConfig());
    return std::shared_ptr<const serve::FrozenModel>(
        serve::FrozenModel::Freeze(std::move(raw)));
  }();
  return model;
}

struct RequestStream {
  std::vector<tensor::Tensor> xs;
  std::vector<tensor::Tensor> tods;
};

/// A deterministic stream of `count` request windows. Scenarios build it
/// on the benchmark thread, before any client thread starts.
RequestStream MakeStream(int64_t count) {
  const core::SagdfnConfig config = BenchConfig();
  utils::Rng rng(99);
  RequestStream stream;
  for (int64_t i = 0; i < count; ++i) {
    stream.xs.push_back(tensor::Tensor::Normal(
        tensor::Shape({config.history, config.num_nodes, 2}), rng));
    stream.tods.push_back(tensor::Tensor::Uniform(
        tensor::Shape({config.horizon}), rng, 0.0f, 1.0f));
  }
  return stream;
}

/// Unbatched floor: the same windows one at a time straight through
/// FrozenModel::Predict on the caller thread — the single-request cost the
/// cached-read gate is measured against.
void BM_ServeUnbatchedBaseline(benchmark::State& state) {
  const int64_t requests = 64;
  const RequestStream stream = MakeStream(requests);
  std::shared_ptr<const serve::FrozenModel> model = SharedModel();
  const core::SagdfnConfig& config = model->config();
  std::vector<double> latencies_us;
  for (auto _ : state) {
    for (int64_t i = 0; i < requests; ++i) {
      const auto start = Clock::now();
      tensor::Tensor x(tensor::Shape(
          {1, config.history, config.num_nodes, 2}));
      std::copy(stream.xs[i].data(), stream.xs[i].data() + stream.xs[i].size(),
                x.data());
      tensor::Tensor tod(tensor::Shape({1, config.horizon}));
      std::copy(stream.tods[i].data(),
                stream.tods[i].data() + stream.tods[i].size(), tod.data());
      benchmark::DoNotOptimize(model->Predict(x, tod));
      latencies_us.push_back(MicrosSince(start));
    }
  }
  Record("serve.unbatched", Summarize(std::move(latencies_us)), state);
}
BENCHMARK(BM_ServeUnbatchedBaseline)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// One closed-loop client: submits `count` windows of `stream` from
/// `first` on to `tenant`, keeping one request in flight, and times each
/// from Submit until its future is ready.
void RunClient(serve::TenantRouter& router, const std::string& tenant,
               const RequestStream& stream, int64_t first, int64_t count,
               std::vector<double>* latencies_us) {
  for (int64_t i = first; i < first + count; ++i) {
    const auto start = Clock::now();
    router.Submit(tenant, stream.xs[i], stream.tods[i]).wait();
    latencies_us->push_back(MicrosSince(start));
  }
}

/// Multi-tenant isolation cost at equal aggregate load. Both legs run four
/// closed-loop clients of 16 requests each over the same stream:
///   single  all four clients on one tenant of an otherwise idle router;
///   multi   one client per tenant on four tenants, each with its own
///           queue, workers and registry.
/// Offered load and client threads are identical, so the comparison
/// measures what per-tenant partitioning costs over pooling everything in
/// one engine. Every client's p50/p99 is recorded, per tenant in the
/// multi leg (serve.tenant.multi.<id>) and per client in the single leg
/// (serve.tenant.single.c<i>), so both sides' p99s come from equally
/// many samples; check_bench_regression.py gates that no tenant's p99
/// exceeds 2x the worst single-leg client p99.
void BM_ServeMultiTenant(benchmark::State& state) {
  const std::vector<std::string> ids = {"metr-la-sim", "london2000",
                                        "newyork2000", "carpark"};
  const int64_t clients = static_cast<int64_t>(ids.size());
  const int64_t per_client = 16;
  const RequestStream stream = MakeStream(clients * per_client);
  serve::TenantConfig tenant_config;
  tenant_config.engine.num_workers = 2;
  tenant_config.engine.max_batch = 8;
  tenant_config.engine.max_wait_us = 200;
  // Build the plan for every batch the clients can form before timing,
  // so no request in either leg pays a plan build.
  for (int64_t b = 1; b <= clients; ++b) SharedModel()->PlanFor(b);

  // One leg on a fresh router: client c submits to tenant_of[c]. Each
  // client appends to its own sample vector, so no two threads share one.
  auto run_leg = [&](const std::vector<std::string>& tenant_of,
                     std::vector<std::vector<double>>& samples) {
    serve::TenantRouter router;
    for (const std::string& id :
         std::set<std::string>(tenant_of.begin(), tenant_of.end())) {
      if (!router.AddTenant(id, SharedModel(), tenant_config).ok()) {
        return false;
      }
    }
    std::vector<std::thread> threads;
    for (int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(router, tenant_of[c], stream, c * per_client, per_client,
                  &samples[c]);
      });
    }
    for (auto& t : threads) t.join();
    return true;
  };
  const std::vector<std::string> pooled(clients, "solo");
  std::vector<std::vector<double>> single_us(clients);
  std::vector<std::vector<double>> multi_us(clients);
  for (auto _ : state) {
    if (!run_leg(pooled, single_us) || !run_leg(ids, multi_us)) {
      state.SkipWithError("AddTenant failed");
      return;
    }
  }

  double worst_single_p99 = 0.0;
  double worst_multi_p99 = 0.0;
  for (int64_t c = 0; c < clients; ++c) {
    const ScenarioSummary single = Summarize(std::move(single_us[c]));
    Summaries()["serve.tenant.single.c" + std::to_string(c)] = single;
    worst_single_p99 = std::max(worst_single_p99, single.p99_us);
    const ScenarioSummary multi = Summarize(std::move(multi_us[c]));
    Summaries()["serve.tenant.multi." + ids[c]] = multi;
    worst_multi_p99 = std::max(worst_multi_p99, multi.p99_us);
  }
  state.counters["worst_single_p99_us"] = worst_single_p99;
  state.counters["worst_multi_p99_us"] = worst_multi_p99;
  state.counters["fairness_ratio"] =
      worst_single_p99 > 0.0 ? worst_multi_p99 / worst_single_p99 : 0.0;
}
BENCHMARK(BM_ServeMultiTenant)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// The production read path: concurrent reader threads hammering one
/// scenario's lock-free forecast cache while a single writer keeps
/// ticking. Every read's latency is timed around ForecastCache::Read()
/// alone; the cache is warm before the readers start, so the sample is
/// the cache-hit latency distribution (the gate: hit p99 within 5x of the
/// unbatched single-request p50).
void BM_ServeCachedReads(benchmark::State& state) {
  const int64_t readers = state.range(0);
  const int64_t reads_per_reader = 32;
  const core::SagdfnConfig config = BenchConfig();
  serve::ForecastCache cache;
  serve::TickStreamer streamer(SharedModel(), &cache,
                               serve::TickStreamerOptions{});
  utils::Rng rng(41);
  std::vector<tensor::Tensor> frames;
  for (int64_t i = 0; i < config.history + 64; ++i) {
    frames.push_back(tensor::Tensor::Normal(
        tensor::Shape({config.num_nodes, 2}), rng));
  }
  const tensor::Tensor tod = tensor::Tensor::Uniform(
      tensor::Shape({config.horizon}), rng, 0.0f, 1.0f);
  for (int64_t i = 0; i < config.history; ++i) streamer.OnTick(frames[i], tod);

  std::vector<double> latencies_us;
  int64_t stale_reads = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_reader(readers);
    std::atomic<bool> stop_writer{false};
    // One writer advances the tick loop (incremental encoder) while the
    // readers run, exactly the production cadence.
    std::thread writer([&] {
      int64_t next = config.history;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        streamer.OnTick(frames[next % frames.size()], tod);
        ++next;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    std::vector<std::thread> threads;
    threads.reserve(readers);
    std::atomic<int64_t> misses{0};
    for (int64_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        per_reader[r].reserve(reads_per_reader);
        for (int64_t i = 0; i < reads_per_reader; ++i) {
          const auto start = Clock::now();
          std::shared_ptr<const serve::TickForecast> f = cache.Read();
          const double us = MicrosSince(start);
          if (f == nullptr) {
            misses.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          benchmark::DoNotOptimize(f->prediction.data());
          per_reader[r].push_back(us);
        }
      });
    }
    for (auto& t : threads) t.join();
    stop_writer.store(true, std::memory_order_relaxed);
    writer.join();
    for (auto& sample : per_reader) {
      latencies_us.insert(latencies_us.end(), sample.begin(), sample.end());
    }
    stale_reads += misses.load();
  }
  Record("serve.cached_reads.r" + std::to_string(readers),
         Summarize(std::move(latencies_us)), state);
  state.counters["stale_reads"] = static_cast<double>(stale_reads);
}
BENCHMARK(BM_ServeCachedReads)
    ->ArgNames({"readers"})
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

utils::Status WriteSummaryJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return utils::Status::Internal("cannot open " + path);
  }
  std::fprintf(f, "{\n  \"serve\": {\n");
  size_t emitted = 0;
  for (const auto& [name, s] : Summaries()) {
    std::fprintf(f,
                 "    \"%s\": {\"p50_us\": %.3f, \"p99_us\": %.3f, "
                 "\"requests\": %lld}%s\n",
                 name.c_str(), s.p50_us, s.p99_us,
                 static_cast<long long>(s.requests),
                 ++emitted < Summaries().size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return utils::Status::Ok();
}

}  // namespace
}  // namespace sagdfn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  const sagdfn::utils::Status status =
      sagdfn::WriteSummaryJson("BENCH_serve_latency.json");
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[serve] latency summary written to BENCH_serve_latency.json\n");
  benchmark::Shutdown();
  return 0;
}
