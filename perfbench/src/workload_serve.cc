// serve-207-{low,mid,high}: open-loop Poisson arrivals of single-window
// requests into one TenantRouter tenant serving the 207-node metr-la
// model at `sagdfn_cli serve` defaults (2 workers, max_batch 8, 1 ms
// wait). Latency runs from each request's due time to the moment its
// future is seen ready by a completion poller, never from an in-order
// wait.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "core/rollout_plan.h"
#include "core/sagdfn.h"
#include "data/registry.h"
#include "data/window_dataset.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "serve/frozen_model.h"
#include "serve/tenant_router.h"
#include "trace.h"
#include "utils/arena.h"
#include "utils/memory_info.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "workloads.h"

namespace sagdfn::perfbench {
namespace {

constexpr const char* kTenant = "metr-la";
constexpr double kSloMs = 50.0;
constexpr double kWarmupSeconds = 1.0;
constexpr int kSetupRepeats = 25;
constexpr int64_t kWindowPool = 256;
constexpr int64_t kCheckEvery = 37;
constexpr int64_t kMaxChecks = 40;
constexpr auto kPollWait = std::chrono::microseconds(100);
constexpr double kBacklogSampleS = 0.01;
constexpr double kBacklogSlack = 16.0;  // two full batches
constexpr double kRungWarmupSeconds = 0.5;
constexpr int kCapacityClients = 8;
constexpr double kCapacityWarmupSeconds = 1.0;
// Share of the run's seconds spent measuring closed-loop capacity; the
// ladder's rung shares fill the rest.
constexpr double kCapacityShare = 0.25;

// bench_rollout's metr-la shape: 207 nodes, hidden 32, M 20, h = f = 12.
// The weights are part of the deployment, not of the inputs: every seed
// serves the same model.
core::SagdfnConfig ServeModelConfig(int64_t input_dim) {
  core::SagdfnConfig config;
  config.num_nodes = 207;
  config.embedding_dim = 16;
  config.m = 20;
  config.k = 16;
  config.hidden_dim = 32;
  config.heads = 4;
  config.ffn_hidden = 16;
  config.diffusion_steps = 2;
  config.history = 12;
  config.horizon = 12;
  config.input_dim = input_dim;
  config.seed = 7;
  return config;
}

struct Window {
  tensor::Tensor x;      // [h, N, C] scaled
  tensor::Tensor tod;    // [f]
  tensor::Tensor truth;  // [f, N] original units
};

tensor::Tensor DropBatchDim(const tensor::Tensor& t) {
  std::vector<int64_t> dims;
  for (int64_t d = 1; d < t.ndim(); ++d) dims.push_back(t.dim(d));
  tensor::Tensor out{tensor::Shape(dims)};
  std::memcpy(out.data(), t.data(), out.size() * sizeof(float));
  return out;
}

/// kWindowPool test windows spread evenly over the test split. The pool
/// is the same for every seed; the seed orders the requests over it.
std::vector<Window> PoolWindows(const data::ForecastDataset& dataset) {
  const int64_t available = dataset.NumSamples(data::Split::kTest);
  std::vector<Window> windows;
  for (int64_t i = 0; i < kWindowPool; ++i) {
    const int64_t offset = i * available / kWindowPool;
    data::Batch batch = dataset.GetBatchAt(data::Split::kTest, {offset});
    windows.push_back({DropBatchDim(batch.x), DropBatchDim(batch.future_tod),
                       DropBatchDim(batch.y)});
  }
  return windows;
}

serve::TenantConfig MakeTenantConfig(const data::ForecastDataset& dataset) {
  serve::TenantConfig config;
  config.engine.num_workers = 2;
  config.engine.max_batch = 8;
  config.engine.max_wait_us = 1000;
  data::Batch eval = dataset.GetBatch(data::Split::kValidation, 0, 8);
  config.registry.eval_x = eval.x;
  config.registry.eval_tod = eval.future_tod;
  config.registry.eval_y = eval.y_scaled;
  return config;
}

/// One request as the load generator and the completion poller saw it.
struct Outcome {
  int64_t window = 0;
  Clock::time_point due;
  double late_s = 0.0;    // submit start - due
  double latency_s = 0.0; // due -> future seen ready
  double service_s = 0.0; // submit start -> future seen ready
  bool ok = false;
  uint64_t digest = 0;
  double abs_err_sum = 0.0;
  tensor::Tensor forecast;  // kept only for sampled requests
};

struct Phase {
  Clock::time_point start;
  Clock::time_point last_ready;
  std::vector<Outcome> outcomes;
  std::vector<double> backlog;  // outstanding requests per sample
  std::vector<double> queue_depth;
  std::vector<double> publish_s;
  std::vector<Clock::time_point> swapped_at;
  int64_t publish_failures = 0;
  /// Process CPU seconds of the phase less the load threads' own: the
  /// poller's, and the sender's and publisher's waits for due times.
  double serving_cpu_s = 0.0;
};

struct PhasePlan {
  double rate = 0.0;
  double seconds = 0.0;
  uint64_t seed = 0;
  double publish_every_s = 0.0;
};

/// Runs one open-loop phase. The calling thread generates load; one
/// poller thread stamps completions; an optional publisher thread lands
/// gate-passing candidates at a fixed interval.
Phase RunPhase(serve::TenantRouter& router, const std::vector<Window>& pool,
               const PhasePlan& plan,
               const std::vector<std::string>& candidates, float scale_mean,
               float scale_std) {
  const std::vector<double> offsets =
      PoissonSchedule(plan.rate, plan.seconds, plan.seed);
  // Requests walk the pool in a seeded random order, so every window is
  // served about equally often whatever the seed.
  utils::Rng pick(plan.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<int64_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  pick.Shuffle(order);
  Phase phase;
  phase.outcomes.resize(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    phase.outcomes[i].window = order[i % order.size()];
  }

  struct Pending {
    int64_t id;
    std::future<serve::Forecast> future;
  };
  std::mutex mu;
  std::vector<Pending> incoming;  // guarded by mu
  bool generator_done = false;    // guarded by mu
  std::atomic<int64_t> sent{0};

  phase.start = Clock::now() + std::chrono::milliseconds(5);
  phase.last_ready = phase.start;
  const double cpu0 = ProcessCpuSeconds();
  // CPU the load threads spend on themselves, not in the program.
  std::atomic<double> load_cpu_s{0.0};
  // Waits for `due` and books the CPU the wait burns as load-thread time.
  auto wait_until = [&](Clock::time_point due) {
    const double c0 = ThreadCpuSeconds();
    SleepUntil(due);
    load_cpu_s.fetch_add(ThreadCpuSeconds() - c0);
  };

  std::thread poller([&] {
    const double poller_cpu0 = ThreadCpuSeconds();
    std::deque<Pending> pending;
    int64_t completed = 0;
    Clock::time_point next_sample = phase.start;
    while (true) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Pending& p : incoming) pending.push_back(std::move(p));
        incoming.clear();
        done = generator_done;
      }
      const auto now0 = Clock::now();
      if (now0 >= next_sample) {
        serve::TenantStats stats;
        const double depth =
            router.StatsFor(kTenant, &stats).ok()
                ? static_cast<double>(stats.engine.queue_depth)
                : 0.0;
        phase.queue_depth.push_back(depth);
        phase.backlog.push_back(static_cast<double>(sent.load() - completed));
        next_sample = now0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     kBacklogSampleS));
      }
      if (pending.empty()) {
        if (done) {
          load_cpu_s.fetch_add(ThreadCpuSeconds() - poller_cpu0);
          break;
        }
        std::this_thread::sleep_for(kPollWait);
        continue;
      }
      pending.front().future.wait_for(kPollWait);
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const auto ready = Clock::now();
        serve::Forecast forecast = it->future.get();
        Outcome& o = phase.outcomes[it->id];
        o.latency_s = SecondsBetween(o.due, ready);
        o.service_s = o.latency_s - o.late_s;
        o.ok = forecast.status.ok();
        if (Tracer::Enabled()) {
          Tracer::Record("serve.request", Tracer::ToNs(o.due),
                         Tracer::ToNs(ready), it->id);
        }
        if (o.ok) {
          const tensor::Tensor& pred = forecast.prediction;
          o.digest = Fnv1a(pred.data(), pred.size() * sizeof(float));
          const float* p = pred.data();
          const float* y = pool[o.window].truth.data();
          double err = 0.0;
          for (int64_t e = 0; e < pred.size(); ++e) {
            err += std::fabs(p[e] * scale_std + scale_mean - y[e]);
          }
          o.abs_err_sum = err;
          if (it->id % kCheckEvery == 0 &&
              it->id / kCheckEvery < kMaxChecks) {
            o.forecast = pred;
          }
        }
        phase.last_ready = std::max(phase.last_ready, ready);
        ++completed;
        it = pending.erase(it);
      }
    }
  });

  std::thread publisher;
  if (plan.publish_every_s > 0.0) {
    publisher = std::thread([&] {
      for (int64_t k = 0;; ++k) {
        const double at = plan.publish_every_s * (static_cast<double>(k) + 0.5);
        if (at >= plan.seconds) break;
        wait_until(phase.start +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(at)));
        const auto t0 = Clock::now();
        utils::Status status;
        {
          ScopedSpan span("serve.tenant_router.Publish");
          status = router.Publish(kTenant, candidates[k % candidates.size()]);
        }
        const auto t1 = Clock::now();
        if (status.ok()) {
          phase.publish_s.push_back(SecondsBetween(t0, t1));
          phase.swapped_at.push_back(t1);
        } else {
          ++phase.publish_failures;
        }
      }
    });
  }

  for (size_t i = 0; i < offsets.size(); ++i) {
    Outcome& o = phase.outcomes[i];
    o.due = phase.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets[i]));
    wait_until(o.due);
    const auto t0 = Clock::now();
    std::future<serve::Forecast> future;
    {
      ScopedSpan span("serve.tenant_router.Submit",
                      static_cast<int64_t>(i));
      future = router.Submit(kTenant, pool[o.window].x, pool[o.window].tod);
    }
    o.late_s = SecondsBetween(o.due, t0);
    sent.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    incoming.push_back({static_cast<int64_t>(i), std::move(future)});
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  poller.join();
  if (publisher.joinable()) publisher.join();
  phase.serving_cpu_s = ProcessCpuSeconds() - cpu0 - load_cpu_s.load();
  return phase;
}

std::vector<double> Latencies(const Phase& phase) {
  // A failed request misses every latency limit: it sorts past them all.
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    out.push_back(o.ok ? o.latency_s * 1e3 : 1e12);
  }
  return out;
}

/// Interpolated percentile (ms) of a log2-microsecond TimerStats.
double BucketPercentileMs(const obs::TimerStats& stats, double pct) {
  if (stats.count <= 0) return 0.0;
  const double target = pct / 100.0 * static_cast<double>(stats.count);
  double seen = 0.0;
  for (int i = 0; i < obs::kTimerBuckets; ++i) {
    const double c = static_cast<double>(stats.buckets[i]);
    if (c > 0.0 && seen + c >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i);
      const double hi = std::ldexp(1.0, i + 1);
      const double us = lo + (hi - lo) * (target - seen) / c;
      return std::clamp(us * 1e-3, stats.min_seconds * 1e3,
                        stats.max_seconds * 1e3);
    }
    seen += c;
  }
  return stats.max_seconds * 1e3;
}

/// The rung meets the latency limit when its tail (p99, or the highest
/// percentile its sample supports) is within kSloMs, the backlog is not
/// growing and no request failed (a failure counts as a miss anyway).
bool SloMet(const Summary& latency, bool backlog, int64_t failed) {
  return latency.tail_pct > 0.0 && latency.tail <= kSloMs && !backlog &&
         failed == 0;
}

}  // namespace

const std::vector<ServeRung>& ServeRungs() {
  // Offered rates frozen at about 10%, 50% and 80% of the closed-loop
  // saturation of this serve stack (see perfbench/README.md); each rung
  // gets `share` of the run's seconds, closed-loop capacity the rest.
  static const std::vector<ServeRung> rungs = {
      {"low", 20.0, 0.0, 0.3},
      {"mid", 100.0, 2.0, 0.25},
      {"high", 160.0, 0.0, 0.2},
  };
  return rungs;
}

namespace {

/// Everything a serve run needs before its clock starts.
struct ServeInputs {
  std::unique_ptr<data::ForecastDataset> dataset;
  std::vector<Window> pool;
  core::SagdfnConfig config;
  std::string live_path;
  std::vector<std::string> candidates;
  serve::TenantConfig tenant;
};

bool MakeServeInputs(const RunOptions& options, ServeInputs* in,
                     std::string* error) {
  namespace fs = std::filesystem;
  in->dataset = std::make_unique<data::ForecastDataset>(
      data::MakeDataset("metr-la-sim", data::DatasetScale::kFull),
      data::DefaultWindowSpec("metr-la-sim"));
  in->pool = PoolWindows(*in->dataset);
  in->config = ServeModelConfig(in->dataset->num_input_channels());
  in->live_path = options.work_dir + "/live.ckpt";
  {
    core::SagdfnModel model(in->config);
    if (!nn::SaveModule(model, in->live_path).ok()) {
      *error = "cannot write the serving checkpoint";
      return false;
    }
  }
  // Gate-passing candidates: the live weights under new paths, so every
  // publish swaps in a fresh snapshot with a cold plan cache.
  for (const char* name : {"/candidate_a.ckpt", "/candidate_b.ckpt"}) {
    in->candidates.push_back(options.work_dir + name);
    fs::copy_file(in->live_path, in->candidates.back(),
                  fs::copy_options::overwrite_existing);
  }
  in->tenant = MakeTenantConfig(*in->dataset);
  return true;
}

/// Set-up as a deployment does it: load the checkpoint, register the
/// tenant, and serve the first forecast (which builds the batch-1 plan).
utils::Status StartRouter(const ServeInputs& in,
                          std::unique_ptr<serve::TenantRouter>* router) {
  std::unique_ptr<serve::FrozenModel> frozen;
  utils::Status status =
      serve::FrozenModel::Load(in.config, in.live_path, &frozen);
  if (!status.ok()) return status;
  *router = std::make_unique<serve::TenantRouter>();
  status = (*router)->AddTenant(
      kTenant, std::shared_ptr<const serve::FrozenModel>(std::move(frozen)),
      in.tenant);
  if (!status.ok()) return status;
  const Window& w = in.pool.front();
  return (*router)->Submit(kTenant, w.x, w.tod).get().status;
}

/// `clients` threads each keep one request in flight for `seconds`.
/// Returns {completed, failed}.
std::pair<int64_t, int64_t> ClosedLoop(serve::TenantRouter& router,
                                       const std::vector<Window>& pool,
                                       int clients, double seconds) {
  std::atomic<int64_t> done{0};
  std::atomic<int64_t> failed{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; SecondsBetween(start, Clock::now()) < seconds;
           i += clients) {
        const Window& w = pool[i % pool.size()];
        const serve::Forecast f = router.Submit(kTenant, w.x, w.tod).get();
        (f.status.ok() ? done : failed).fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {done.load(), failed.load()};
}

}  // namespace

RunResult RunServe(const RunOptions& options) {
  RunResult result;
  utils::SetNumThreads(kKernelThreads);

  // ---- Inputs (untimed): windows, model checkpoint, candidates. -------
  ServeInputs in;
  std::string error;
  if (!MakeServeInputs(options, &in, &error)) {
    result.Fail(error);
    return result;
  }
  const std::vector<Window>& pool = in.pool;
  const core::SagdfnConfig& config = in.config;
  const float scale_mean = in.dataset->scaler().mean();
  const float scale_std = in.dataset->scaler().stddev();

  // ---- Set-up: Load + AddTenant + first forecast, repeated. ------------
  std::unique_ptr<serve::TenantRouter> router;
  utils::Status status;
  const Timings setup =
      TimeRepeated(kWarmupSeconds, kSetupRepeats, [&] {
        router.reset();
        status = StartRouter(in, &router);
        return status.ok();
      });
  if (setup.wall_s.empty()) {
    result.Fail("serve set-up failed: " + status.ToString());
    return result;
  }

  // Unloaded batch-1 replay on the serving snapshot (contention base).
  std::vector<double> unloaded_b1_ms;
  {
    const std::shared_ptr<const serve::FrozenModel> live =
        router->live(kTenant);
    tensor::Tensor x(tensor::Shape(
        {1, config.history, config.num_nodes, config.input_dim}));
    tensor::Tensor tod(tensor::Shape({1, config.horizon}));
    std::memcpy(x.data(), pool[0].x.data(), x.size() * sizeof(float));
    std::memcpy(tod.data(), pool[0].tod.data(), tod.size() * sizeof(float));
    for (int i = 0; i < 21; ++i) {
      const auto t0 = Clock::now();
      live->Predict(x, tod);
      if (i > 0) unloaded_b1_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    }
  }

  // ---- Closed-loop capacity, after an untimed burst that warms every
  // batch size's plan. --------------------------------------------------
  const int64_t warm_failed =
      ClosedLoop(*router, pool, kCapacityClients, kCapacityWarmupSeconds)
          .second;
  const auto capacity_start = Clock::now();
  const double capacity_cpu0 = ProcessCpuSeconds();
  const auto [capacity_done, capacity_failed] = ClosedLoop(
      *router, pool, kCapacityClients, kCapacityShare * options.seconds);
  const double capacity_rps = static_cast<double>(capacity_done) /
                              SecondsBetween(capacity_start, Clock::now());
  const double cpu_ms_per_req = (ProcessCpuSeconds() - capacity_cpu0) * 1e3 /
                                std::max<int64_t>(1, capacity_done);
  if (warm_failed + capacity_failed > 0) {
    result.Fail("a closed-loop request failed");
  }

  // ---- The ladder: each rung warms at its rate, then is measured. -----
  // A traced run splits the low rung into an untraced and a traced half
  // (their p50 difference is the tracing overhead) and traces the rest.
  struct RungRun {
    const ServeRung* rung = nullptr;
    Phase phase;
    Summary latency;
    bool backlog = false;
    int64_t failed = 0;
    bool slo_met = false;
    serve::TenantStats before;
    serve::TenantStats after;
    obs::TimerStats compute;
  };
  std::vector<RungRun> runs;
  Phase untraced_low;
  uint64_t rung_seed = options.seed * 1000003ull;
  for (const ServeRung& rung : ServeRungs()) {
    PhasePlan warm;
    warm.rate = rung.rate_rps;
    warm.seconds = kRungWarmupSeconds;
    warm.seed = ++rung_seed;
    for (const Outcome& o :
         RunPhase(*router, pool, warm, in.candidates, scale_mean, scale_std)
             .outcomes) {
      if (!o.ok) {
        result.Fail("a warm-up request failed");
        break;
      }
    }
    PhasePlan plan;
    plan.rate = rung.rate_rps;
    plan.seconds = rung.share * options.seconds;
    plan.seed = ++rung_seed;
    plan.publish_every_s = rung.publish_every_s;
    if (options.trace && &rung == &ServeRungs().front()) {
      plan.seconds /= 2;
      untraced_low =
          RunPhase(*router, pool, plan, in.candidates, scale_mean, scale_std);
      plan.seed = ++rung_seed;
    }
    RungRun run;
    run.rung = &rung;
    router->StatsFor(kTenant, &run.before);
    obs::Telemetry::Global().ResetRegistry();
    obs::Telemetry::SetCollectionEnabled(options.trace);
    Tracer::SetEnabled(options.trace);
    run.phase =
        RunPhase(*router, pool, plan, in.candidates, scale_mean, scale_std);
    Tracer::SetEnabled(false);
    obs::Telemetry::SetCollectionEnabled(false);
    router->StatsFor(kTenant, &run.after);
    run.compute = obs::Telemetry::Global().timer(
        std::string("serve.") + kTenant + ".batch.compute");
    run.latency = Summarize(Latencies(run.phase), 99.0);
    run.backlog = BacklogGrowing(run.phase.backlog, kBacklogSlack);
    for (const Outcome& o : run.phase.outcomes) run.failed += o.ok ? 0 : 1;
    run.slo_met = SloMet(run.latency, run.backlog, run.failed);
    if (run.phase.publish_failures > 0) {
      result.Fail(std::to_string(run.phase.publish_failures) +
                  " gate-passing publishes were rejected at " + rung.name);
    }
    runs.push_back(std::move(run));
  }

  // ---- Output checks (after timing). ------------------------------------
  const std::shared_ptr<const serve::FrozenModel> live = router->live(kTenant);
  int64_t checked = 0;
  int64_t mismatched = 0;
  uint64_t digest = Fnv1a(nullptr, 0);
  int64_t attempted = 0;
  int64_t failed = 0;
  double abs_err = 0.0;
  int64_t err_count = 0;
  for (const RungRun& run : runs) {
    for (const Outcome& o : run.phase.outcomes) {
      ++attempted;
      if (!o.ok) {
        ++failed;
        continue;
      }
      digest = Fnv1a(&o.digest, sizeof(o.digest), digest);
      abs_err += o.abs_err_sum;
      err_count += config.horizon * config.num_nodes;
      if (o.forecast.size() == 0) continue;
      // Every snapshot serves the same weights, so the live one is the
      // reference for whichever snapshot ran the request.
      const Window& w = pool[o.window];
      tensor::Tensor x(tensor::Shape(
          {1, config.history, config.num_nodes, config.input_dim}));
      tensor::Tensor tod(tensor::Shape({1, config.horizon}));
      std::memcpy(x.data(), w.x.data(), x.size() * sizeof(float));
      std::memcpy(tod.data(), w.tod.data(), tod.size() * sizeof(float));
      const tensor::Tensor want = live->PredictEager(x, tod);
      ++checked;
      if (want.size() != o.forecast.size() ||
          std::memcmp(want.data(), o.forecast.data(),
                      want.size() * sizeof(float)) != 0) {
        ++mismatched;
      }
    }
  }
  if (checked == 0) {
    result.Fail("no request was sampled for the eager check");
  }
  if (mismatched > 0) {
    result.Fail(std::to_string(mismatched) + " of " + std::to_string(checked) +
                " sampled forecasts differ from PredictEager");
  }
  std::string message;
  if (!CheckDigestAcrossRuns(options.digest_file, DigestKey(options),
                             HexDigest(digest), &message)) {
    result.Fail(message);
  } else {
    result.Note(message);
  }
  result.attempted = attempted + capacity_done + capacity_failed;
  result.failed = failed + capacity_failed + mismatched;

  // ---- End-to-end metrics. -------------------------------------------
  const RungRun& low = runs[0];
  double max_rps_at_slo = 0.0;
  for (const RungRun& run : runs) {
    if (run.slo_met) max_rps_at_slo = run.rung->rate_rps;
  }
  std::vector<double> low_service_ms;
  for (const Outcome& o : low.phase.outcomes) {
    low_service_ms.push_back(o.ok ? o.service_s * 1e3 : 1e12);
  }
  const Summary low_service = Summarize(low_service_ms, 99.0);
  auto served = [](const RungRun& run) {
    return static_cast<int64_t>(run.phase.outcomes.size()) - run.failed;
  };
  auto cpu_ms_per_request = [&](const RungRun& run) {
    return run.phase.serving_cpu_s * 1e3 /
           static_cast<double>(std::max<int64_t>(1, served(run)));
  };
  double ladder_cpu_s = 0.0;
  int64_t ladder_served = 0;
  for (const RungRun& run : runs) {
    ladder_cpu_s += run.phase.serving_cpu_s;
    ladder_served += served(run);
  }
  result.EndToEnd("setup_s", Median(setup.cpu_s), "s");
  result.EndToEnd("peak_rss_mb",
                  static_cast<double>(utils::PeakRssBytes()) / (1 << 20),
                  "MiB");
  result.EndToEnd("cpu_ms_per_item",
                  ladder_cpu_s * 1e3 /
                      static_cast<double>(std::max<int64_t>(1, ladder_served)),
                  "ms");
  result.EndToEnd("forecast_mae",
                  err_count > 0 ? abs_err / static_cast<double>(err_count)
                                : 0.0,
                  "units");

  char line[512];
  for (const RungRun& run : runs) {
    std::vector<double> late_ms;
    for (const Outcome& o : run.phase.outcomes) late_ms.push_back(o.late_s * 1e3);
    const Summary late = Summarize(late_ms, 99.0);
    std::snprintf(
        line, sizeof(line),
        "serve-207 %s: %.0f rps open-loop Poisson for %.2f s%s: "
        "req_p50_ms.%s %.3f ms, req_p99_ms.%s %.3f ms (as p%.1f of n=%lld), "
        "max %.3f ms; failed %lld; SLO (tail <= %.0f ms, no growing "
        "backlog, no failure) %s; generator late p50 %.3f ms, max %.3f ms; "
        "serving CPU %.4f ms per request",
        run.rung->name, run.rung->rate_rps,
        SecondsBetween(run.phase.start, run.phase.last_ready),
        run.rung->publish_every_s > 0 ? " with publishes" : "",
        run.rung->name, run.latency.p50, run.rung->name, run.latency.tail,
        run.latency.tail_pct, static_cast<long long>(run.latency.count),
        run.latency.max, static_cast<long long>(run.failed), kSloMs,
        run.slo_met ? "met" : "missed", late.p50, late.max,
        cpu_ms_per_request(run));
    result.Note(line);
  }
  std::snprintf(line, sizeof(line),
                "serve-207: max_rps_at_slo %.0f rps; low-rung service time "
                "(submit to ready) p50 %.3f ms of n=%lld; closed-loop "
                "capacity (%d clients, %.2f s) %.1f rps at %.4f CPU ms per "
                "request; set-up (FrozenModel::Load + AddTenant + first "
                "forecast) median %.4f s wall, %.4f s CPU of %d; %lld "
                "sampled forecasts memcmp-equal to PredictEager",
                max_rps_at_slo, low_service.p50,
                static_cast<long long>(low_service.count), kCapacityClients,
                kCapacityShare * options.seconds, capacity_rps, cpu_ms_per_req,
                Median(setup.wall_s), Median(setup.cpu_s), kSetupRepeats,
                static_cast<long long>(checked - mismatched));
  result.Note(line);

  if (!options.trace) return result;

  // ---- Per-layer metrics (traced phases; engine figures at mid). ------
  const std::vector<Span> spans = Tracer::Collect();
  const RungRun& mid = runs[1];
  const RungRun& high = runs[2];
  const Summary submit =
      Summarize(Tracer::Durations(spans, "serve.tenant_router.Submit"), 99.0);
  const int64_t batches = mid.after.engine.batches - mid.before.engine.batches;
  const int64_t mid_completed =
      mid.after.engine.completed - mid.before.engine.completed;
  const int64_t engine_failed =
      (mid.after.engine.rejected - mid.before.engine.rejected) +
      (mid.after.engine.timed_out - mid.before.engine.timed_out) +
      (mid.after.engine.shed - mid.before.engine.shed) +
      (mid.after.engine.nonfinite - mid.before.engine.nonfinite);
  const double mean_compute_ms =
      mid.compute.count > 0
          ? mid.compute.total_seconds * 1e3 / mid.compute.count
          : 0.0;
  double mean_latency_ms = 0.0;
  for (const Outcome& o : mid.phase.outcomes) mean_latency_ms += o.latency_s * 1e3;
  mean_latency_ms /= std::max<size_t>(1, mid.phase.outcomes.size());
  std::vector<double> after_swap_ms;
  for (const Clock::time_point t : mid.phase.swapped_at) {
    for (const Outcome& o : mid.phase.outcomes) {
      if (o.due >= t) {
        after_swap_ms.push_back(o.latency_s * 1e3);
        break;
      }
    }
  }
  std::vector<double> publish_ms;
  for (double s : mid.phase.publish_s) publish_ms.push_back(s * 1e3);
  const Summary depth = Summarize(mid.phase.queue_depth, 99.0);
  std::vector<double> late_ms;
  for (const Outcome& o : high.phase.outcomes) late_ms.push_back(o.late_s * 1e3);
  const double mid_wall =
      std::max(1e-9, SecondsBetween(mid.phase.start, mid.phase.last_ready));
  const auto plan1 = live->PlanFor(1);
  const auto plan8 = live->PlanFor(8);
  const double unloaded = Median(unloaded_b1_ms);
  const double untraced_low_p50 = Summarize(Latencies(untraced_low), 50).p50;

  result.Layer("serve.tenant_router.submit_us.p50", submit.p50 * 1e6, "us");
  result.Layer("serve.tenant_router.submit_us.tail", submit.tail * 1e6, "us");
  for (const RungRun& run : runs) {
    const std::string r = run.rung->name;
    result.Layer("serve.request_ms.p50." + r, run.latency.p50, "ms");
    result.Layer("serve.request_ms.tail." + r, run.latency.tail, "ms");
    result.Layer("serve.request.slo_met." + r, run.slo_met ? 1.0 : 0.0,
                 "count");
  }
  result.Layer("serve.request_ms.tail_pct.low", low.latency.tail_pct, "pct");
  result.Layer("serve.request.max_rps_at_slo", max_rps_at_slo, "rps");
  result.Layer("serve.request.backlog_growing.high", high.backlog ? 1.0 : 0.0,
               "count");
  result.Layer("serve.generator.late_ms.tail.high",
               Summarize(late_ms, 99.0).tail, "ms");
  result.Layer("serve.engine.capacity_rps", capacity_rps, "rps");
  result.Layer("serve.engine.batch_size.mean",
               batches > 0 ? static_cast<double>(mid_completed) / batches : 0.0,
               "count");
  result.Layer("serve.engine.compute_ms.p50",
               BucketPercentileMs(mid.compute, 50), "ms");
  result.Layer("serve.engine.compute_ms.p99",
               BucketPercentileMs(mid.compute, 99), "ms");
  result.Layer("serve.engine.compute_ms_per_req",
               mid_completed > 0
                   ? mid.compute.total_seconds * 1e3 / mid_completed
                   : 0.0,
               "ms");
  result.Layer("serve.engine.busy_frac",
               mid.compute.total_seconds /
                   (mid_wall * static_cast<double>(
                                   std::max<int64_t>(1, mid.after.workers))),
               "ratio");
  result.Layer("serve.engine.noncompute_share",
               mean_latency_ms > 0.0
                   ? std::max(0.0, 1.0 - mean_compute_ms / mean_latency_ms)
                   : 0.0,
               "ratio");
  result.Layer("serve.engine.queue_depth.p50", depth.p50, "count");
  result.Layer("serve.engine.queue_depth.max", depth.max, "count");
  result.Layer("serve.engine.contention_ratio",
               unloaded > 0.0 ? BucketPercentileMs(mid.compute, 50) / unloaded
                              : 0.0,
               "ratio");
  result.Layer("serve.engine.failed",
               static_cast<double>(engine_failed + mid.failed), "count");
  result.Layer("serve.registry.publish_ms",
               publish_ms.empty() ? 0.0 : Median(publish_ms), "ms");
  result.Layer("serve.registry.rollbacks",
               static_cast<double>(mid.after.registry.rollbacks -
                                   mid.before.registry.rollbacks),
               "count");
  result.Layer("serve.frozen_model.first_request_after_swap_ms",
               after_swap_ms.empty() ? 0.0 : Median(after_swap_ms), "ms");
  result.Layer("serve.frozen_model.plan_cache_size",
               static_cast<double>(live->plan_cache_size()), "count");
  result.Layer("serve.frozen_model.plan_evictions",
               static_cast<double>(live->plan_cache_evictions()), "count");
  result.Layer("core.rollout_plan.instructions.b1",
               static_cast<double>(plan1->num_instructions()), "count");
  result.Layer("core.rollout_plan.scratch_bytes.b1",
               static_cast<double>(plan1->scratch_bytes()), "bytes");
  result.Layer("core.rollout_plan.scratch_bytes.b8",
               static_cast<double>(plan8->scratch_bytes()), "bytes");
  result.Layer("utils.arena.high_water_bytes",
               static_cast<double>(utils::ScratchArena::ProcessHighWater()),
               "bytes");
  result.Layer("utils.parallel.threads",
               static_cast<double>(utils::GetNumThreads()), "count");
  result.Layer("bench.trace_overhead_ms", low.latency.p50 - untraced_low_p50,
               "ms");
  result.Layer("bench.spans", static_cast<double>(spans.size()), "count");

  std::snprintf(line, sizeof(line),
                "serve-207 traced: low p50 %.3f ms traced vs %.3f ms "
                "untraced; mid: %lld batches, mean batch %.2f, compute per "
                "batch %.3f ms (p50/p99 interpolated from log2 buckets)",
                low.latency.p50, untraced_low_p50,
                static_cast<long long>(batches),
                batches > 0 ? static_cast<double>(mid_completed) / batches : 0.0,
                mean_compute_ms);
  result.Note(line);
  Tracer::Write(spans, options.work_dir + "/spans.jsonl");
  return result;
}

}  // namespace sagdfn::perfbench
