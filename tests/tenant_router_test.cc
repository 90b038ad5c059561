// Cross-tenant isolation and online continual-learning tests
// (src/serve/tenant_router.*, src/serve/online_trainer.*).
//
// The claims under test:
//   * Per-tenant byte-equality: under full multi-tenant concurrent load,
//     every tenant's forecasts are memcmp-identical to a dedicated
//     single-tenant engine serving the same model — at 1 worker and at
//     8 workers per tenant. Isolation is structural, so this is the
//     strongest cross-tenant interference check available: ANY leakage
//     (wrong model, shared state, scheduling-dependent kernels) breaks
//     the bytes. Run under TSan by tools/check_tsan.sh.
//   * Routing robustness: unknown tenants fail fast with NotFound,
//     malformed requests keep InvalidArgument, RemoveTenant with
//     requests in flight drains them — no dangling futures.
//   * Tenant-qualified faults (nan_forecast / slow_batch /
//     bad_candidate @tenant=ID) hit only the qualified tenant: the
//     faulting tenant sheds / fails / rolls back alone while its
//     neighbors keep serving byte-exact forecasts.
//   * Continual learning closes the loop: a candidate fine-tuned from
//     the live snapshot on drifted ticks passes the registry gate and
//     improves held-out MAE on the drifted distribution; poisoned
//     candidates (NaN weights, regressed MAE, torn file, injected
//     bad_candidate) are rejected with every tenant's live pointer
//     unchanged; and a fine-tune round killed mid-save (io_fail@save /
//     truncate_ckpt) reports an error, keeps the tick buffer, and
//     succeeds on retry — the registry's atomic intake never sees a
//     torn candidate.
#include "serve/tenant_router.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/registry.h"
#include "data/time_series.h"
#include "data/window_dataset.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/online_trainer.h"
#include "tensor/tensor.h"
#include "utils/fault.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace sagdfn::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::SagdfnConfig TinyConfig() {
  core::SagdfnConfig config;
  config.num_nodes = 10;
  config.embedding_dim = 4;
  config.m = 5;
  config.k = 3;
  config.hidden_dim = 6;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.alpha = 1.5f;
  config.history = 4;
  config.horizon = 3;
  config.seed = 21;
  return config;
}

void SaveCandidate(const core::SagdfnConfig& config, uint64_t seed,
                   const std::string& path) {
  core::SagdfnConfig seeded = config;
  seeded.seed = seed;
  core::SagdfnModel model(seeded);
  ASSERT_TRUE(nn::SaveModule(model, path).ok());
}

std::shared_ptr<const FrozenModel> FreshModel(const core::SagdfnConfig& config,
                                              uint64_t seed) {
  core::SagdfnConfig seeded = config;
  seeded.seed = seed;
  return std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::make_unique<core::SagdfnModel>(seeded)));
}

struct RequestData {
  Tensor x;           // [h, N, C]
  Tensor future_tod;  // [f]
};

std::vector<RequestData> MakeRequests(const core::SagdfnConfig& config,
                                      int64_t count, uint64_t seed = 3) {
  utils::Rng rng(seed);
  std::vector<RequestData> requests;
  requests.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    RequestData r;
    r.x = Tensor::Normal(
        Shape({config.history, config.num_nodes, config.input_dim}), rng);
    r.future_tod = Tensor::Uniform(Shape({config.horizon}), rng, 0.0f, 1.0f);
    requests.push_back(std::move(r));
  }
  return requests;
}

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double Mae(const Tensor& pred, const Tensor& truth) {
  EXPECT_EQ(pred.size(), truth.size());
  double total = 0.0;
  for (int64_t i = 0; i < pred.size(); ++i) {
    total += std::abs(static_cast<double>(pred.data()[i]) - truth.data()[i]);
  }
  return total / static_cast<double>(pred.size());
}

/// Held-out eval windows whose truth is the live model's own forecasts:
/// live MAE 0.0, so any byte-different candidate trips the metric gate.
void FillEvalWindows(const FrozenModel& live, RegistryOptions* options,
                     int64_t windows = 4, uint64_t seed = 5) {
  const core::SagdfnConfig& config = live.config();
  utils::Rng rng(seed);
  options->eval_x = Tensor::Normal(
      Shape({windows, config.history, config.num_nodes, config.input_dim}),
      rng);
  options->eval_tod = Tensor::Uniform(Shape({windows, config.horizon}), rng,
                                      0.0f, 1.0f);
  options->eval_y = live.Predict(options->eval_x, options->eval_tod);
}

/// A smooth diurnal base series (10-node default) the drift transform
/// and the continual-learning tests perturb. Deterministic in `seed`.
data::TimeSeries MakeBaseSeries(int64_t nodes, int64_t days,
                                int64_t steps_per_day, uint64_t seed) {
  utils::Rng rng(seed);
  data::TimeSeries series;
  series.name = "tenant-sim";
  series.steps_per_day = steps_per_day;
  const int64_t total = days * steps_per_day;
  series.values = Tensor::Zeros(Shape({total, nodes}));
  float* v = series.values.data();
  constexpr double kTwoPi = 6.283185307179586;
  for (int64_t t = 0; t < total; ++t) {
    const double tod = series.TimeOfDay(t);
    for (int64_t n = 0; n < nodes; ++n) {
      v[t * nodes + n] = static_cast<float>(
          10.0 + 3.0 * std::sin(kTwoPi * tod + 0.4 * n) + 0.3 * rng.Normal());
    }
  }
  return series;
}

/// Every test starts and ends with a disabled fault injector, even when
/// an assertion fails mid-test.
class TenantTest : public ::testing::Test {
 protected:
  void SetUp() override { utils::FaultInjector::Global().Reset(); }
  void TearDown() override { utils::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Per-tenant byte-equality under multi-tenant concurrent load
// ---------------------------------------------------------------------------

TEST_F(TenantTest, PerTenantForecastsMatchDedicatedEngineBytes) {
  const core::SagdfnConfig config = TinyConfig();
  const std::vector<std::string> ids = {"metr-la-sim", "london2000",
                                        "newyork2000", "carpark"};
  constexpr int64_t kRequestsPerTenant = 16;

  std::map<std::string, std::shared_ptr<const FrozenModel>> models;
  std::map<std::string, std::vector<RequestData>> requests;
  for (size_t i = 0; i < ids.size(); ++i) {
    models[ids[i]] = FreshModel(config, 1000 + 111 * i);
    requests[ids[i]] =
        MakeRequests(config, kRequestsPerTenant, 50 + 7 * i);
  }

  for (const int64_t workers : {int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EngineOptions engine_options;
    engine_options.num_workers = workers;
    engine_options.max_batch = 4;
    engine_options.max_wait_us = 200;

    // Reference: each tenant alone on a dedicated single-tenant engine.
    std::map<std::string, std::vector<Tensor>> reference;
    for (const std::string& id : ids) {
      InferenceEngine dedicated(models[id], engine_options);
      for (const RequestData& r : requests[id]) {
        Forecast forecast = dedicated.Submit(r.x, r.future_tod).get();
        ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
        reference[id].push_back(forecast.prediction);
      }
    }

    // The same load, all tenants at once through one router, submitted
    // by one concurrent client thread per tenant with jittered arrivals.
    TenantRouter router;
    for (const std::string& id : ids) {
      TenantConfig tenant_config;
      tenant_config.engine = engine_options;
      ASSERT_TRUE(router.AddTenant(id, models[id], tenant_config).ok());
    }
    std::map<std::string, std::vector<std::future<Forecast>>> futures;
    for (const std::string& id : ids) {
      futures[id].resize(kRequestsPerTenant);
    }
    std::vector<std::thread> clients;
    for (size_t c = 0; c < ids.size(); ++c) {
      clients.emplace_back([&, c] {
        const std::string& id = ids[c];
        utils::Rng rng(900 + static_cast<uint64_t>(c));
        for (int64_t i = 0; i < kRequestsPerTenant; ++i) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int64_t>(rng.Uniform(0.0, 200.0))));
          futures[id][i] = router.Submit(id, requests[id][i].x,
                                         requests[id][i].future_tod);
        }
      });
    }
    for (auto& client : clients) client.join();

    for (const std::string& id : ids) {
      for (int64_t i = 0; i < kRequestsPerTenant; ++i) {
        Forecast forecast = futures[id][i].get();
        ASSERT_TRUE(forecast.status.ok()) << forecast.status.ToString();
        EXPECT_TRUE(BytesEqual(forecast.prediction, reference[id][i]))
            << "tenant " << id << " request " << i
            << " differs from its dedicated single-tenant engine";
      }
      TenantStats stats;
      ASSERT_TRUE(router.StatsFor(id, &stats).ok());
      EXPECT_EQ(stats.engine.completed, kRequestsPerTenant);
      EXPECT_EQ(stats.engine.rejected, 0);
    }

    // Routing proof: the same request through different tenants hits
    // different models, hence byte-different forecasts.
    const RequestData& shared = requests[ids[0]][0];
    Forecast a = router.Submit(ids[0], shared.x, shared.future_tod).get();
    Forecast b = router.Submit(ids[1], shared.x, shared.future_tod).get();
    ASSERT_TRUE(a.status.ok() && b.status.ok());
    EXPECT_FALSE(BytesEqual(a.prediction, b.prediction))
        << "two tenants served identical bytes for one request — routing "
           "is not per-tenant";
  }
}

TEST_F(TenantTest, PerTenantTelemetryNamespacesDoNotInterleave) {
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  const bool was_enabled = obs::Telemetry::CollectionEnabled();
  obs::Telemetry::SetCollectionEnabled(true);

  const core::SagdfnConfig config = TinyConfig();
  const int64_t before_a =
      telemetry.counter("serve.tenant-a.requests.submitted");
  const int64_t before_b =
      telemetry.counter("serve.tenant-b.requests.submitted");

  TenantRouter router;
  ASSERT_TRUE(
      router.AddTenant("tenant-a", FreshModel(config, 1), TenantConfig{})
          .ok());
  ASSERT_TRUE(
      router.AddTenant("tenant-b", FreshModel(config, 2), TenantConfig{})
          .ok());
  const std::vector<RequestData> requests = MakeRequests(config, 3, 71);
  for (const RequestData& r : requests) {
    ASSERT_TRUE(router.Submit("tenant-a", r.x, r.future_tod).get().status.ok());
  }
  ASSERT_TRUE(router
                  .Submit("tenant-b", requests[0].x, requests[0].future_tod)
                  .get()
                  .status.ok());

  EXPECT_EQ(telemetry.counter("serve.tenant-a.requests.submitted") - before_a,
            3);
  EXPECT_EQ(telemetry.counter("serve.tenant-b.requests.submitted") - before_b,
            1);
  obs::Telemetry::SetCollectionEnabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Routing robustness
// ---------------------------------------------------------------------------

TEST_F(TenantTest, UnknownTenantFailsFastWithNotFound) {
  const core::SagdfnConfig config = TinyConfig();
  TenantRouter router;
  ASSERT_TRUE(
      router.AddTenant("known", FreshModel(config, 5), TenantConfig{}).ok());
  const std::vector<RequestData> requests = MakeRequests(config, 1, 73);

  std::future<Forecast> future =
      router.Submit("ghost", requests[0].x, requests[0].future_tod);
  // Fail-fast contract: the future is ready immediately — nothing was
  // enqueued anywhere.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status.code(), utils::StatusCode::kNotFound);

  EXPECT_EQ(router.Publish("ghost", TempPath("none.ckpt")).code(),
            utils::StatusCode::kNotFound);
  EXPECT_EQ(router.RemoveTenant("ghost").code(),
            utils::StatusCode::kNotFound);
  EXPECT_EQ(router.live("ghost"), nullptr);
  EXPECT_EQ(router.WorkersGranted("ghost"), -1);
  TenantStats stats;
  EXPECT_EQ(router.StatsFor("ghost", &stats).code(),
            utils::StatusCode::kNotFound);

  // The known tenant is untouched by the misroutes.
  Forecast ok = router.Submit("known", requests[0].x,
                              requests[0].future_tod).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
}

TEST_F(TenantTest, MalformedRegistrationAndRequestsRejected) {
  const core::SagdfnConfig config = TinyConfig();
  TenantRouter router;
  EXPECT_EQ(router.AddTenant("", FreshModel(config, 5), TenantConfig{}).code(),
            utils::StatusCode::kInvalidArgument);
  EXPECT_EQ(router.AddTenant("t", nullptr, TenantConfig{}).code(),
            utils::StatusCode::kInvalidArgument);
  ASSERT_TRUE(router.AddTenant("t", FreshModel(config, 5), TenantConfig{})
                  .ok());
  EXPECT_EQ(router.AddTenant("t", FreshModel(config, 6), TenantConfig{})
                .code(),
            utils::StatusCode::kInvalidArgument)
      << "duplicate tenant ids must be rejected";

  // Shape mismatch keeps the engine's InvalidArgument semantics.
  Tensor bad_x(Shape({config.history, config.num_nodes + 1,
                      config.input_dim}));
  Tensor tod(Shape({config.horizon}));
  Forecast bad = router.Submit("t", bad_x, tod).get();
  EXPECT_EQ(bad.status.code(), utils::StatusCode::kInvalidArgument);
}

TEST_F(TenantTest, RemoveTenantDrainsInFlightRequestsAndSparesNeighbors) {
  const core::SagdfnConfig config = TinyConfig();
  auto model_a = FreshModel(config, 31);
  auto model_b = FreshModel(config, 32);
  const std::vector<RequestData> requests = MakeRequests(config, 8, 79);

  TenantRouter router;
  TenantConfig slow_config;
  slow_config.engine.num_workers = 1;
  slow_config.engine.max_batch = 1;
  slow_config.engine.max_wait_us = 0;
  ASSERT_TRUE(router.AddTenant("doomed", model_a, slow_config).ok());
  ASSERT_TRUE(router.AddTenant("survivor", model_b, TenantConfig{}).ok());

  // Stall doomed's batches so a backlog builds, then deregister with the
  // backlog in flight.
  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("slow_batch@us=3000@tenant=doomed")
                  .ok());
  std::vector<std::future<Forecast>> inflight;
  for (const RequestData& r : requests) {
    inflight.push_back(router.Submit("doomed", r.x, r.future_tod));
  }
  ASSERT_TRUE(router.RemoveTenant("doomed").ok());

  // Every future is satisfied (drain_on_shutdown runs them to
  // completion) — none dangles, none crashes.
  for (auto& future : inflight) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "RemoveTenant left a future dangling";
    EXPECT_TRUE(future.get().status.ok());
  }
  utils::FaultInjector::Global().Reset();

  // The removed tenant is gone; the neighbor never noticed.
  EXPECT_EQ(router
                .Submit("doomed", requests[0].x, requests[0].future_tod)
                .get()
                .status.code(),
            utils::StatusCode::kNotFound);
  Forecast ok = router.Submit("survivor", requests[0].x,
                              requests[0].future_tod).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  TenantStats stats;
  ASSERT_TRUE(router.StatsFor("survivor", &stats).ok());
  EXPECT_EQ(stats.engine.timed_out, 0);
  EXPECT_EQ(stats.engine.shed, 0);
}

TEST_F(TenantTest, WorkerBudgetIsSharedAndReclaimed) {
  const core::SagdfnConfig config = TinyConfig();
  TenantRouterOptions options;
  options.worker_budget = 4;
  TenantRouter router(options);

  TenantConfig wants_three;
  wants_three.engine.num_workers = 3;
  ASSERT_TRUE(router.AddTenant("a", FreshModel(config, 1), wants_three).ok());
  EXPECT_EQ(router.WorkersGranted("a"), 3);
  ASSERT_TRUE(router.AddTenant("b", FreshModel(config, 2), wants_three).ok());
  EXPECT_EQ(router.WorkersGranted("b"), 1) << "only 1 of 4 budget remained";
  ASSERT_TRUE(router.AddTenant("c", FreshModel(config, 3), wants_three).ok());
  EXPECT_EQ(router.WorkersGranted("c"), 1)
      << "every tenant gets at least one worker even past the budget";

  // Removing a tenant returns its grant to the pool.
  ASSERT_TRUE(router.RemoveTenant("a").ok());
  TenantConfig wants_five;
  wants_five.engine.num_workers = 5;
  ASSERT_TRUE(router.AddTenant("d", FreshModel(config, 4), wants_five).ok());
  EXPECT_EQ(router.WorkersGranted("d"), 2) << "a's 3 freed, b+c hold 2 of 4";

  // Clamped tenants still serve correctly.
  const std::vector<RequestData> requests = MakeRequests(config, 2, 83);
  for (const std::string& id : {"b", "c", "d"}) {
    Forecast forecast =
        router.Submit(id, requests[0].x, requests[0].future_tod).get();
    EXPECT_TRUE(forecast.status.ok()) << id << ": "
                                      << forecast.status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Tenant-qualified fault isolation
// ---------------------------------------------------------------------------

TEST_F(TenantTest, NanForecastFaultHitsOnlyQualifiedTenant) {
  const core::SagdfnConfig config = TinyConfig();
  auto model_faulty = FreshModel(config, 41);
  auto model_clean = FreshModel(config, 42);
  const std::vector<RequestData> requests = MakeRequests(config, 6, 89);

  // Clean-tenant reference bytes, computed before any fault is armed.
  std::vector<Tensor> clean_reference;
  {
    InferenceEngine dedicated(model_clean, EngineOptions{});
    for (const RequestData& r : requests) {
      Forecast forecast = dedicated.Submit(r.x, r.future_tod).get();
      ASSERT_TRUE(forecast.status.ok());
      clean_reference.push_back(forecast.prediction);
    }
  }

  TenantRouter router;
  ASSERT_TRUE(router.AddTenant("carpark", model_faulty, TenantConfig{}).ok());
  ASSERT_TRUE(router.AddTenant("metr", model_clean, TenantConfig{}).ok());

  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("nan_forecast@prob=1@tenant=carpark")
                  .ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    Forecast poisoned =
        router.Submit("carpark", requests[i].x, requests[i].future_tod).get();
    EXPECT_EQ(poisoned.status.code(), utils::StatusCode::kInternal)
        << poisoned.status.ToString();
    Forecast clean =
        router.Submit("metr", requests[i].x, requests[i].future_tod).get();
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_TRUE(BytesEqual(clean.prediction, clean_reference[i]))
        << "neighbor tenant's bytes changed while carpark was faulting";
  }
  utils::FaultInjector::Global().Reset();

  TenantStats faulty_stats;
  TenantStats clean_stats;
  ASSERT_TRUE(router.StatsFor("carpark", &faulty_stats).ok());
  ASSERT_TRUE(router.StatsFor("metr", &clean_stats).ok());
  EXPECT_EQ(faulty_stats.engine.nonfinite,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(clean_stats.engine.nonfinite, 0);
}

TEST_F(TenantTest, SlowBatchFaultTimesOutOnlyQualifiedTenant) {
  const core::SagdfnConfig config = TinyConfig();
  const std::vector<RequestData> requests = MakeRequests(config, 4, 97);

  TenantRouter router;
  TenantConfig serial;
  serial.engine.num_workers = 1;
  serial.engine.max_batch = 1;
  serial.engine.max_wait_us = 0;
  ASSERT_TRUE(router.AddTenant("london2000", FreshModel(config, 51), serial)
                  .ok());
  ASSERT_TRUE(router.AddTenant("newyork2000", FreshModel(config, 52), serial)
                  .ok());

  // Every london batch stalls 30 ms; its queued requests carry 5 ms
  // deadlines and expire behind the stall. newyork runs the same load
  // without deadlines (a 5 ms deadline there only measures how loaded
  // the machine is), unstalled.
  constexpr auto kStall = std::chrono::milliseconds(30);
  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("slow_batch@us=30000@tenant=london2000")
                  .ok());
  const auto deadline = std::chrono::microseconds(5000);
  std::vector<std::future<Forecast>> slow;
  for (const RequestData& r : requests) {
    slow.push_back(router.Submit("london2000", r.x, r.future_tod, deadline));
  }
  int64_t expired = 0;
  for (auto& future : slow) {
    const Forecast forecast = future.get();
    if (forecast.status.code() == utils::StatusCode::kDeadlineExceeded) {
      ++expired;
    }
  }
  EXPECT_GT(expired, 0) << "the stalled tenant should expire queued work";

  // One-sided proof the stall was not inherited: an inherited stall
  // sleeps at least kStall per serial request, so the four together would
  // take at least 4 x kStall. An unstalled tiny-model forecast takes well
  // under a millisecond, which leaves the bound ample room for load.
  const auto ny_start = std::chrono::steady_clock::now();
  for (const RequestData& r : requests) {
    Forecast forecast = router.Submit("newyork2000", r.x, r.future_tod).get();
    EXPECT_TRUE(forecast.status.ok()) << forecast.status.ToString();
  }
  const auto ny_elapsed = std::chrono::steady_clock::now() - ny_start;
  utils::FaultInjector::Global().Reset();
  EXPECT_LT(ny_elapsed, static_cast<int64_t>(requests.size()) * kStall)
      << "newyork forecasts took as long as inherited stalls would";

  TenantStats ny_stats;
  ASSERT_TRUE(router.StatsFor("newyork2000", &ny_stats).ok());
  EXPECT_EQ(ny_stats.engine.timed_out, 0)
      << "the unqualified tenant must not inherit the stall";
}

TEST_F(TenantTest, BadCandidateFaultAndRollbackIsolatedPerTenant) {
  const core::SagdfnConfig config = TinyConfig();
  auto model_x = FreshModel(config, 61);
  auto model_y = FreshModel(config, 62);
  const std::string cand_x = TempPath("tenant_cand_x.ckpt");
  const std::string cand_y = TempPath("tenant_cand_y.ckpt");
  SaveCandidate(config, 63, cand_x);
  SaveCandidate(config, 64, cand_y);

  TenantRouter router;
  TenantConfig serial;
  serial.engine.num_workers = 1;
  serial.engine.max_batch = 1;
  serial.engine.max_wait_us = 0;
  serial.registry.health_window = 16;
  serial.registry.max_nonfinite = 0;
  serial.registry.p99_regression_factor = 0.0;
  ASSERT_TRUE(router.AddTenant("newyork2000", model_x, serial).ok());
  ASSERT_TRUE(router.AddTenant("london2000", model_y, serial).ok());

  // Gate: the qualified tenant's publish fails; the neighbor's succeeds.
  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("bad_candidate@tenant=newyork2000")
                  .ok());
  const FrozenModel* x_before = router.live("newyork2000").get();
  EXPECT_EQ(router.Publish("newyork2000", cand_x).code(),
            utils::StatusCode::kInternal);
  EXPECT_EQ(router.live("newyork2000").get(), x_before)
      << "a rejected candidate must never move the live pointer";
  EXPECT_TRUE(router.Publish("london2000", cand_y).ok())
      << "the unqualified tenant's publish must not trip the fault";
  EXPECT_NE(router.live("london2000").get(), model_y.get());
  utils::FaultInjector::Global().Reset();

  TenantStats x_stats;
  TenantStats y_stats;
  ASSERT_TRUE(router.StatsFor("newyork2000", &x_stats).ok());
  ASSERT_TRUE(router.StatsFor("london2000", &y_stats).ok());
  EXPECT_EQ(x_stats.registry.rejected, 1);
  EXPECT_EQ(x_stats.registry.published, 0);
  EXPECT_EQ(y_stats.registry.published, 1);

  // Probation: publish to the faulted tenant cleanly, then poison only
  // its forecasts. It must roll back alone; the neighbor's live pointer
  // and probation stay untouched.
  ASSERT_TRUE(router.Publish("newyork2000", cand_x).ok());
  const FrozenModel* x_published = router.live("newyork2000").get();
  ASSERT_NE(x_published, x_before);
  ASSERT_TRUE(router.on_probation("newyork2000"));
  const FrozenModel* y_live = router.live("london2000").get();

  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("nan_forecast@prob=1@tenant=newyork2000")
                  .ok());
  const std::vector<RequestData> requests = MakeRequests(config, 20, 101);
  for (int64_t i = 0; i < 16; ++i) {
    Forecast forecast =
        router.Submit("newyork2000", requests[i].x, requests[i].future_tod)
            .get();
    EXPECT_EQ(forecast.status.code(), utils::StatusCode::kInternal);
    ASSERT_TRUE(router.StatsFor("newyork2000", &x_stats).ok());
    if (x_stats.engine.rollbacks > 0) break;
  }
  utils::FaultInjector::Global().Reset();

  ASSERT_TRUE(router.StatsFor("newyork2000", &x_stats).ok());
  ASSERT_TRUE(router.StatsFor("london2000", &y_stats).ok());
  EXPECT_EQ(x_stats.engine.rollbacks, 1)
      << "NaN probe did not roll the faulting tenant back";
  EXPECT_EQ(router.live("newyork2000").get(), x_before)
      << "rollback must restore the faulting tenant's previous snapshot";
  EXPECT_EQ(y_stats.engine.rollbacks, 0);
  EXPECT_EQ(router.live("london2000").get(), y_live)
      << "the neighbor's live pointer moved during another tenant's "
         "rollback";
  std::remove(cand_x.c_str());
  std::remove(cand_y.c_str());
}

// ---------------------------------------------------------------------------
// Online continual learning
// ---------------------------------------------------------------------------

TEST_F(TenantTest, FineTunedCandidatePassesGateAndImprovesDriftedMae) {
  // Deployment: a model trained on the base distribution, serving in the
  // base scaler's space.
  const int64_t kNodes = 10;
  const int64_t kStepsPerDay = 24;
  const data::TimeSeries base = MakeBaseSeries(kNodes, 7, kStepsPerDay, 404);
  const data::WindowSpec spec{4, 3};
  const data::ForecastDataset base_dataset(base, spec);

  core::SagdfnConfig config = TinyConfig();
  config.num_nodes = kNodes;
  config.history = spec.history;
  config.horizon = spec.horizon;
  auto deployed = std::make_unique<core::SagdfnModel>(config);
  core::TrainOptions pretrain;
  pretrain.epochs = 4;
  pretrain.batch_size = 8;
  pretrain.learning_rate = 0.01;
  core::Trainer trainer(deployed.get(), &base_dataset, pretrain);
  ASSERT_TRUE(trainer.Train().status.ok());
  auto live = std::shared_ptr<const FrozenModel>(
      FrozenModel::Freeze(std::move(deployed)));

  // The world drifts. Held-out windows come from the drifted test split,
  // scaled with the DEPLOYMENT's scaler (the serving space).
  const data::TimeSeries drifted = data::ApplyDrift(base, data::DriftOptions{});
  const data::ForecastDataset drift_dataset(drifted, spec,
                                            base_dataset.scaler());
  const data::Batch eval =
      drift_dataset.GetBatch(data::Split::kTest, 0, 8);

  TenantRouter router;
  TenantConfig tenant_config;
  tenant_config.registry.eval_x = eval.x;
  tenant_config.registry.eval_tod = eval.future_tod;
  tenant_config.registry.eval_y = eval.y_scaled;
  tenant_config.registry.max_mae_regression = 0.05;
  tenant_config.registry.health_window = 0;  // isolate the gate
  ASSERT_TRUE(router.AddTenant("metr-la-sim", live, tenant_config).ok());

  OnlineTrainerOptions online;
  online.candidate_dir = FreshDir("online_drift");
  online.train.epochs = 12;
  online.train.batch_size = 8;
  online.train.learning_rate = 0.01;
  OnlineTrainer online_trainer(&router, online);
  ASSERT_TRUE(online_trainer
                  .Track("metr-la-sim", base_dataset.scaler(), spec,
                         kStepsPerDay)
                  .ok());

  // Fresh drifted ticks arrive (the drifted train region, raw units).
  const int64_t fresh_frames = drift_dataset.TrainEndStep();
  for (int64_t t = 0; t < fresh_frames; ++t) {
    Tensor frame(Shape({kNodes}));
    std::memcpy(frame.data(), drifted.values.data() + t * kNodes,
                kNodes * sizeof(float));
    ASSERT_TRUE(online_trainer.Observe("metr-la-sim", frame).ok());
  }
  EXPECT_GE(online_trainer.BufferedFrames("metr-la-sim"),
            10 * (spec.history + spec.horizon) + 10);

  // One fine-tune round: clone live -> train on the buffer -> candidate
  // -> registry gate. It must pass and go live for this tenant.
  const double live_mae =
      Mae(live->Predict(eval.x, eval.future_tod), eval.y_scaled);
  utils::Status round = online_trainer.FineTuneOnce("metr-la-sim");
  ASSERT_TRUE(round.ok()) << round.ToString();
  EXPECT_EQ(online_trainer.stats("metr-la-sim").published, 1);
  auto tuned = router.live("metr-la-sim");
  ASSERT_NE(tuned.get(), live.get()) << "the fine-tuned candidate did not "
                                        "go live";

  // The differential: fine-tuning on drifted ticks must IMPROVE held-out
  // MAE on the drifted distribution, not merely pass the <= 1.05x gate.
  const double tuned_mae =
      Mae(tuned->Predict(eval.x, eval.future_tod), eval.y_scaled);
  EXPECT_LT(tuned_mae, live_mae)
      << "fine-tuned MAE " << tuned_mae << " vs frozen " << live_mae;
  std::cout << "[ drift    ] frozen MAE " << live_mae << " -> fine-tuned MAE "
            << tuned_mae << " (scaled units, drifted held-out)\n";

  // And the tenant keeps serving after the swap.
  const std::vector<RequestData> requests = MakeRequests(config, 1, 107);
  Forecast forecast =
      router.Submit("metr-la-sim", requests[0].x, requests[0].future_tod)
          .get();
  EXPECT_TRUE(forecast.status.ok()) << forecast.status.ToString();
}

TEST_F(TenantTest, PoisonedCandidatesNeverMoveAnyLivePointer) {
  const core::SagdfnConfig config = TinyConfig();
  auto model_a = FreshModel(config, 81);
  auto model_b = FreshModel(config, 82);

  TenantRouter router;
  TenantConfig gated;
  FillEvalWindows(*model_a, &gated.registry);
  gated.registry.max_mae_regression = 0.05;
  ASSERT_TRUE(router.AddTenant("gated", model_a, gated).ok());
  ASSERT_TRUE(router.AddTenant("bystander", model_b, TenantConfig{}).ok());
  const FrozenModel* a_live = router.live("gated").get();
  const FrozenModel* b_live = router.live("bystander").get();

  // Poison 1: NaN weights.
  const std::string nan_path = TempPath("poison_nan.ckpt");
  {
    core::SagdfnModel model(config);
    auto params = model.NamedParameters();
    ASSERT_FALSE(params.empty());
    params[0].second.mutable_value().data()[0] =
        std::numeric_limits<float>::quiet_NaN();
    ASSERT_TRUE(nn::SaveModule(model, nan_path).ok());
  }
  EXPECT_EQ(router.Publish("gated", nan_path).code(),
            utils::StatusCode::kFailedPrecondition);

  // Poison 2: honest weights, regressed held-out MAE.
  const std::string worse_path = TempPath("poison_worse.ckpt");
  SaveCandidate(config, 99, worse_path);
  EXPECT_EQ(router.Publish("gated", worse_path).code(),
            utils::StatusCode::kFailedPrecondition);

  // Poison 3: torn candidate file (atomic intake).
  const std::string torn_path = TempPath("poison_torn.ckpt");
  SaveCandidate(config, 98, torn_path);
  {
    std::ifstream in(torn_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(router.Publish("gated", torn_path).ok());

  // Poison 4: injected bad_candidate for this tenant.
  const std::string fault_path = TempPath("poison_fault.ckpt");
  SaveCandidate(config, 97, fault_path);
  ASSERT_TRUE(utils::FaultInjector::Global()
                  .Configure("bad_candidate@tenant=gated")
                  .ok());
  EXPECT_EQ(router.Publish("gated", fault_path).code(),
            utils::StatusCode::kInternal);
  utils::FaultInjector::Global().Reset();

  // No live pointer moved — not the gated tenant's, not anyone's.
  EXPECT_EQ(router.live("gated").get(), a_live);
  EXPECT_EQ(router.live("bystander").get(), b_live);
  TenantStats stats;
  ASSERT_TRUE(router.StatsFor("gated", &stats).ok());
  EXPECT_EQ(stats.registry.rejected, 4);
  EXPECT_EQ(stats.registry.published, 0);
  EXPECT_EQ(stats.engine.swaps, 0);
  for (const std::string& path :
       {nan_path, worse_path, torn_path, fault_path}) {
    std::remove(path.c_str());
  }
}

TEST_F(TenantTest, FineTuneRoundKilledMidSaveRetriesCleanly) {
  const int64_t kNodes = 10;
  const int64_t kStepsPerDay = 24;
  const data::TimeSeries base = MakeBaseSeries(kNodes, 5, kStepsPerDay, 505);
  const data::WindowSpec spec{4, 3};
  const data::ForecastDataset base_dataset(base, spec);

  core::SagdfnConfig config = TinyConfig();
  config.num_nodes = kNodes;
  config.history = spec.history;
  config.horizon = spec.horizon;
  auto live = FreshModel(config, 515);

  TenantRouter router;
  ASSERT_TRUE(router.AddTenant("carpark", live, TenantConfig{}).ok());

  OnlineTrainerOptions online;
  online.candidate_dir = FreshDir("online_kill");
  online.train.epochs = 2;
  online.train.batch_size = 8;
  OnlineTrainer online_trainer(&router, online);
  ASSERT_TRUE(
      online_trainer.Track("carpark", base_dataset.scaler(), spec,
                           kStepsPerDay)
          .ok());
  const int64_t frames = 4 * kStepsPerDay;  // above the 10x-window floor
  for (int64_t t = 0; t < frames; ++t) {
    Tensor frame(Shape({kNodes}));
    std::memcpy(frame.data(), base.values.data() + t * kNodes,
                kNodes * sizeof(float));
    ASSERT_TRUE(online_trainer.Observe("carpark", frame).ok());
  }

  // Kill 1: the candidate write itself fails.
  ASSERT_TRUE(utils::FaultInjector::Global().Configure("io_fail@save=1").ok());
  EXPECT_FALSE(online_trainer.FineTuneOnce("carpark").ok());
  utils::FaultInjector::Global().Reset();
  EXPECT_EQ(router.live("carpark").get(), live.get());
  EXPECT_EQ(online_trainer.stats("carpark").errors, 1);
  EXPECT_EQ(online_trainer.BufferedFrames("carpark"), frames)
      << "a failed round must keep the tick buffer for the retry";

  // Kill 2: the write is torn mid-flight. The checkpoint writer's
  // verify-before-publish catches it — the torn temp never becomes a
  // candidate, so the registry's intake never sees torn bytes.
  ASSERT_TRUE(utils::FaultInjector::Global().Configure("truncate_ckpt").ok());
  EXPECT_FALSE(online_trainer.FineTuneOnce("carpark").ok());
  utils::FaultInjector::Global().Reset();
  EXPECT_EQ(router.live("carpark").get(), live.get());
  EXPECT_EQ(online_trainer.stats("carpark").errors, 2);
  for (const auto& entry :
       std::filesystem::directory_iterator(online.candidate_dir)) {
    EXPECT_TRUE(entry.path().extension() != ".ckpt")
        << "a killed round left a published candidate: " << entry.path();
  }

  // Resume: the same buffer, no faults — the round completes and the
  // candidate goes live through the gate.
  utils::Status retry = online_trainer.FineTuneOnce("carpark");
  EXPECT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(online_trainer.stats("carpark").published, 1);
  EXPECT_NE(router.live("carpark").get(), live.get());
  std::filesystem::remove_all(online.candidate_dir);
}

TEST_F(TenantTest, BackgroundSweepClosesTheLoopWithStreaming) {
  const int64_t kNodes = 10;
  const int64_t kStepsPerDay = 24;
  const data::TimeSeries base = MakeBaseSeries(kNodes, 5, kStepsPerDay, 606);
  const data::WindowSpec spec{4, 3};
  const data::ForecastDataset base_dataset(base, spec);

  core::SagdfnConfig config = TinyConfig();
  config.num_nodes = kNodes;
  config.history = spec.history;
  config.horizon = spec.horizon;
  auto live = FreshModel(config, 616);

  TenantRouter router;
  TenantConfig streaming;
  streaming.enable_streaming = true;
  ASSERT_TRUE(router.AddTenant("carpark", live, streaming).ok());

  OnlineTrainerOptions online;
  online.candidate_dir = FreshDir("online_sweep");
  online.train.epochs = 2;
  online.train.batch_size = 8;
  online.interval_ms = 20;
  OnlineTrainer online_trainer(&router, online);
  ASSERT_TRUE(
      online_trainer.Track("carpark", base_dataset.scaler(), spec,
                           kStepsPerDay)
          .ok());
  online_trainer.Start();

  // Live ticks flow into BOTH the streamer (forecast path) and the
  // online buffer (learning path) — the production wiring.
  const tensor::Tensor& scaled = base_dataset.scaled_values();
  int64_t ticks = 0;
  for (int64_t t = 0; t < 4 * kStepsPerDay; ++t) {
    Tensor frame(Shape({kNodes}));
    std::memcpy(frame.data(), base.values.data() + t * kNodes,
                kNodes * sizeof(float));
    ASSERT_TRUE(online_trainer.Observe("carpark", frame).ok());

    Tensor stream_frame(Shape({kNodes, config.input_dim}));
    const float tod = static_cast<float>(base.TimeOfDay(t));
    for (int64_t n = 0; n < kNodes; ++n) {
      stream_frame.data()[n * config.input_dim] =
          scaled.data()[t * kNodes + n];
      stream_frame.data()[n * config.input_dim + 1] = tod;
    }
    Tensor future_tod(Shape({spec.horizon}));
    for (int64_t f = 0; f < spec.horizon; ++f) {
      future_tod.data()[f] =
          static_cast<float>(base.TimeOfDay(t + 1 + f));
    }
    if (router.OnTick("carpark", stream_frame, future_tod) != nullptr) {
      ++ticks;
    }
  }
  EXPECT_GT(ticks, 0) << "the streaming path never produced a forecast";

  // The sweep thread must publish a fine-tuned candidate on its own.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (online_trainer.stats("carpark").published == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  online_trainer.Stop();
  EXPECT_GE(online_trainer.stats("carpark").published, 1)
      << "the background sweep never closed the loop";
  EXPECT_NE(router.live("carpark").get(), live.get());

  // The streaming cache survived the swap: the next tick republishes on
  // the NEW live snapshot.
  {
    const int64_t t = 4 * kStepsPerDay;
    Tensor stream_frame(Shape({kNodes, config.input_dim}));
    const float tod = static_cast<float>(base.TimeOfDay(t));
    for (int64_t n = 0; n < kNodes; ++n) {
      stream_frame.data()[n * config.input_dim] =
          scaled.data()[t * kNodes + n];
      stream_frame.data()[n * config.input_dim + 1] = tod;
    }
    Tensor future_tod(Shape({spec.horizon}));
    for (int64_t f = 0; f < spec.horizon; ++f) {
      future_tod.data()[f] =
          static_cast<float>(base.TimeOfDay(t + 1 + f));
    }
    auto forecast = router.OnTick("carpark", stream_frame, future_tod);
    ASSERT_NE(forecast, nullptr);
    EXPECT_EQ(forecast->model.get(), router.live("carpark").get())
        << "the post-swap tick forecast must come from the new snapshot";
    EXPECT_EQ(router.ReadCached("carpark").get(), forecast.get());
  }
  std::filesystem::remove_all(online.candidate_dir);
}

}  // namespace
}  // namespace sagdfn::serve
