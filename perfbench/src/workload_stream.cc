// stream-100k: one 100k-node scenario served as a tick stream. A writer
// feeds TickStreamer::OnTick on an open-loop schedule (one frame every
// kTickPeriodS, due times fixed in advance) and swaps between two mmap'd
// SAGM snapshots every kSwapEvery ticks, which invalidates the cache and
// forces a full re-encode. One reader thread issues ForecastCache::Read
// on a fixed-rate schedule beside it. No engine queue, no batching.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "core/rollout_plan.h"
#include "core/sagdfn.h"
#include "data/registry.h"
#include "data/window_dataset.h"
#include "obs/telemetry.h"
#include "serve/forecast_cache.h"
#include "serve/frozen_model.h"
#include "trace.h"
#include "utils/arena.h"
#include "utils/memory_info.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "workloads.h"

namespace sagdfn::perfbench {
namespace {

constexpr int64_t kNodes = 100000;
constexpr double kTickPeriodS = 0.3;
constexpr int64_t kSwapEvery = 20;
constexpr int kSetupRepeats = 9;
constexpr double kSetupWarmupSeconds = 0.5;
constexpr double kReadPeriodS = 0.002;
constexpr int kReadsPerBlock = 64;
// Weights of the two snapshots the stream swaps between. They belong to
// the deployment, not to the inputs: only the frames depend on the seed.
constexpr uint64_t kSnapshotSeeds[2] = {99, 100};
// Standard deviation of the seeded sensor noise, in scaled units.
constexpr double kSensorNoise = 0.1;

// bench_table4_graphsize --scaling's model config at N = 100k.
core::SagdfnConfig StreamModelConfig(uint64_t seed) {
  core::SagdfnConfig config;
  config.num_nodes = kNodes;
  config.embedding_dim = 8;
  config.m = 16;
  config.k = 12;
  config.hidden_dim = 8;
  config.heads = 2;
  config.ffn_hidden = 4;
  config.diffusion_steps = 2;
  config.history = 6;
  config.horizon = 3;
  config.convergence_iters = 2;
  config.seed = seed;
  return config;
}

std::string FramesPath(const RunOptions& o) { return o.work_dir + "/frames.bin"; }
std::string SnapshotPath(const RunOptions& o, int which) {
  return o.work_dir + (which == 0 ? "/stream_a.sagm" : "/stream_b.sagm");
}

/// Every step of the scenario's train split as frames [N, C] (scaled
/// reading plus time of day) with seeded sensor noise on the reading; the
/// stream wraps around at the end. The seed changes the noise, not the
/// period of the day the stream covers, so forecast error stays
/// comparable across seeds.
struct Frames {
  int64_t count = 0;
  int64_t n = 0;
  int64_t c = 0;
  std::vector<float> data;
  const float* frame(int64_t t) const {
    return data.data() + (t % count) * n * c;
  }
};

bool ReadFrames(const std::string& path, Frames* frames) {
  std::ifstream in(path, std::ios::binary);
  int64_t header[3] = {0, 0, 0};
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header))) return false;
  if (header[0] <= 0 || header[1] != kNodes || header[2] <= 1 ||
      header[2] > 8) {
    return false;
  }
  frames->count = header[0];
  frames->n = header[1];
  frames->c = header[2];
  frames->data.resize(frames->count * frames->n * frames->c);
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(frames->data.data()),
              frames->data.size() * sizeof(float)));
}

/// Frames first..last as a [1, last - first + 1, N, C] input, and the
/// time of day of the f steps after `last`.
void WindowAt(const Frames& frames, int64_t first, int64_t last, int64_t f,
              tensor::Tensor* x, tensor::Tensor* tod) {
  const int64_t nc = frames.n * frames.c;
  const int64_t len = last - first + 1;
  *x = tensor::Tensor(tensor::Shape({1, len, frames.n, frames.c}));
  for (int64_t i = 0; i < len; ++i) {
    std::memcpy(x->data() + i * nc, frames.frame(first + i),
                nc * sizeof(float));
  }
  *tod = tensor::Tensor(tensor::Shape({1, f}));
  for (int64_t j = 0; j < f; ++j) {
    tod->data()[j] = frames.frame(last + 1 + j)[1];  // node 0, channel 1
  }
}

tensor::Tensor FrameTensor(const Frames& frames, int64_t t) {
  tensor::Tensor out(tensor::Shape({frames.n, frames.c}));
  std::memcpy(out.data(), frames.frame(t),
              frames.n * frames.c * sizeof(float));
  return out;
}

tensor::Tensor FutureTod(const Frames& frames, int64_t last, int64_t f) {
  tensor::Tensor tod(tensor::Shape({f}));
  for (int64_t j = 0; j < f; ++j) tod.data()[j] = frames.frame(last + 1 + j)[1];
  return tod;
}

struct Tick {
  int64_t last_frame = 0;
  Clock::time_point due;
  double start_lag_s = 0.0;
  double service_s = 0.0;
  double latency_s = 0.0;
  /// Process CPU of the tick's SetModel and OnTick calls, less the
  /// reader thread's CPU over the same interval.
  double cpu_s = 0.0;
  bool incremental = false;
  bool published = false;
  int model = 0;  // which snapshot served it
  /// First frame of the sequence the carried state encodes: a full tick
  /// encodes its h-frame window; an incremental tick extends the last
  /// full one by one frame each.
  int64_t encoded_from = 0;
  uint64_t digest = 0;
  double abs_err = 0.0;
  int64_t err_count = 0;
  tensor::Tensor kept;  // prediction, kept for the post-run check
};

struct StreamPhase {
  Clock::time_point start;
  std::vector<Tick> ticks;
  std::vector<double> read_us;  // per-read time of each block
  int64_t reads = 0;
  int64_t hits = 0;
  int64_t swaps = 0;
};

StreamPhase RunStreamPhase(
    serve::TickStreamer& streamer, const serve::ForecastCache& cache,
    const std::shared_ptr<const serve::FrozenModel> models[2], int* current,
    const Frames& frames, int64_t* next_frame, int64_t* encoded_from,
    double seconds) {
  const core::SagdfnConfig& cfg = models[0]->config();
  StreamPhase phase;
  const int64_t count = static_cast<int64_t>(std::floor(seconds / kTickPeriodS));
  phase.ticks.resize(count);
  phase.start = Clock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kTickPeriodS));

  // The reader runs until the writer is done, so its CPU clock can be
  // read at every tick.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    const auto read_period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kReadPeriodS));
    for (int64_t b = 0;; ++b) {
      const auto due = phase.start + b * read_period;
      if (stop.load()) break;
      SleepUntil(due);
      ScopedSpan span("serve.forecast_cache.Read.block");
      int hits = 0;
      const auto t0 = Clock::now();
      for (int r = 0; r < kReadsPerBlock; ++r) {
        hits += cache.Read() != nullptr ? 1 : 0;
      }
      const double block_s = SecondsBetween(t0, Clock::now());
      phase.read_us.push_back(block_s * 1e6 / kReadsPerBlock);
      phase.reads += kReadsPerBlock;
      phase.hits += hits;
    }
  });
  // Program CPU so far: the process's less the reader thread's.
  auto program_cpu = [&] {
    return ProcessCpuSeconds() - ThreadCpuSeconds(reader);
  };

  for (int64_t k = 0; k < count; ++k) {
    Tick& tick = phase.ticks[k];
    tick.due = phase.start + k * period;
    tick.last_frame = (*next_frame)++;
    const tensor::Tensor frame = FrameTensor(frames, tick.last_frame);
    const tensor::Tensor tod = FutureTod(frames, tick.last_frame, cfg.horizon);
    SleepUntil(tick.due);
    const auto t0 = Clock::now();
    const double cpu0 = program_cpu();
    if (k > 0 && k % kSwapEvery == 0) {
      ScopedSpan span("serve.forecast_cache.TickStreamer.SetModel");
      *current = 1 - *current;
      streamer.SetModel(models[*current]);
      ++phase.swaps;
    }
    std::shared_ptr<const serve::TickForecast> forecast;
    {
      ScopedSpan span("serve.forecast_cache.TickStreamer.OnTick", k);
      forecast = streamer.OnTick(frame, tod);
    }
    tick.cpu_s = program_cpu() - cpu0;
    const auto t1 = Clock::now();
    tick.start_lag_s = SecondsBetween(tick.due, t0);
    tick.service_s = SecondsBetween(t0, t1);
    tick.latency_s = SecondsBetween(tick.due, t1);
    tick.model = *current;
    if (forecast != nullptr) {
      tick.published = true;
      tick.incremental = forecast->incremental;
      if (!tick.incremental) *encoded_from = tick.last_frame - cfg.history + 1;
      tick.encoded_from = *encoded_from;
      const tensor::Tensor& pred = forecast->prediction;
      tick.digest = Fnv1a(pred.data(), pred.size() * sizeof(float));
      // Keep each swap's full re-encode and the incremental tick after it.
      if (k > 0 && (k % kSwapEvery == 0 || k % kSwapEvery == 1)) {
        tick.kept = pred;
      }
      // Forecast of steps last+1..last+f against the realised readings.
      const int64_t n = cfg.num_nodes;
      for (int64_t j = 0; j < cfg.horizon; ++j) {
        const float* truth = frames.frame(tick.last_frame + 1 + j);
        const float* p = pred.data() + j * n;
        for (int64_t i = 0; i < n; ++i) {
          tick.abs_err += std::fabs(p[i] - truth[i * frames.c]);
        }
        tick.err_count += n;
      }
    }
  }
  stop.store(true);
  reader.join();
  return phase;
}

}  // namespace

int PrepareStream(const RunOptions& options) {
  data::TimeSeries series =
      data::MakeScaleDataset("traffic100k-sim", data::DatasetScale::kQuick);
  const core::SagdfnConfig config = StreamModelConfig(kSnapshotSeeds[0]);
  data::WindowSpec spec;
  spec.history = config.history;
  spec.horizon = config.horizon;
  data::ForecastDataset dataset(std::move(series), spec);
  const int64_t available = dataset.NumSamples(data::Split::kTrain);
  std::ofstream out(FramesPath(options), std::ios::binary);
  const int64_t c = dataset.num_input_channels();
  const int64_t header[3] = {available, kNodes, c};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  utils::Rng rng(options.seed);
  std::vector<float> frame(kNodes * c);
  for (int64_t t = 0; t < available; ++t) {
    // Frame 0 of the window starting at step t, plus seeded sensor noise
    // on the reading channel.
    data::Batch batch = dataset.GetBatchAt(data::Split::kTrain, {t});
    std::memcpy(frame.data(), batch.x.data(), frame.size() * sizeof(float));
    for (int64_t i = 0; i < kNodes; ++i) {
      frame[i * c] += static_cast<float>(rng.Normal() * kSensorNoise);
    }
    out.write(reinterpret_cast<const char*>(frame.data()),
              frame.size() * sizeof(float));
  }
  if (!out) {
    std::fprintf(stderr, "stream: cannot write frames\n");
    return 1;
  }
  for (int which = 0; which < 2; ++which) {
    core::SagdfnConfig snapshot_config =
        StreamModelConfig(kSnapshotSeeds[which]);
    snapshot_config.input_dim = c;
    auto frozen = serve::FrozenModel::Freeze(
        std::make_unique<core::SagdfnModel>(snapshot_config));
    const utils::Status status = frozen->Save(SnapshotPath(options, which));
    if (!status.ok()) {
      std::fprintf(stderr, "stream: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

RunResult RunStream(const RunOptions& options) {
  RunResult result;
  utils::SetNumThreads(kKernelThreads);
  Frames frames;
  if (!ReadFrames(FramesPath(options), &frames)) {
    result.Fail("stream inputs missing; run the prepare step first");
    return result;
  }
  core::SagdfnConfig configs[2] = {StreamModelConfig(kSnapshotSeeds[0]),
                                   StreamModelConfig(kSnapshotSeeds[1])};
  for (auto& c : configs) c.input_dim = frames.c;
  const int64_t h = configs[0].history;
  const int64_t f = configs[0].horizon;

  // ---- Set-up: LoadMapped -> streamer -> first forecast published. -----
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> load_ms;
  std::vector<double> first_full_ms;
  std::vector<double> first_inc_ms;
  std::shared_ptr<const serve::FrozenModel> models[2];
  std::unique_ptr<serve::ForecastCache> cache;
  std::unique_ptr<serve::TickStreamer> streamer;
  std::string setup_error;
  const bool set_up = WarmThenRepeat(kSetupWarmupSeconds, kSetupRepeats,
                                     [&](bool timed) {
    streamer.reset();
    cache.reset();
    models[0].reset();
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    std::unique_ptr<serve::FrozenModel> mapped;
    const utils::Status status = serve::FrozenModel::LoadMapped(
        configs[0], SnapshotPath(options, 0), &mapped);
    if (!status.ok()) {
      setup_error = "LoadMapped failed: " + status.ToString();
      return false;
    }
    const double load = SecondsBetween(t0, Clock::now()) * 1e3;
    models[0] = std::move(mapped);
    cache = std::make_unique<serve::ForecastCache>();
    streamer = std::make_unique<serve::TickStreamer>(models[0], cache.get());
    std::shared_ptr<const serve::TickForecast> first;
    Clock::time_point before_first;
    for (int64_t t = 0; t < h; ++t) {
      before_first = Clock::now();
      first = streamer->OnTick(FrameTensor(frames, t), FutureTod(frames, t, f));
    }
    const auto t1 = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    if (first == nullptr || first->incremental) {
      setup_error = "the first forecast after warm-up was not a full encode";
      return false;
    }
    const auto t2 = Clock::now();
    const auto second = streamer->OnTick(FrameTensor(frames, h),
                                         FutureTod(frames, h, f));
    if (timed) {
      setup_s.push_back(SecondsBetween(t0, t1));
      setup_cpu_s.push_back(cpu1 - cpu0);
      load_ms.push_back(load);
      first_full_ms.push_back(SecondsBetween(before_first, t1) * 1e3);
      first_inc_ms.push_back(SecondsBetween(t2, Clock::now()) * 1e3);
    }
    if (second == nullptr || !second->incremental) {
      setup_error = "the tick after the first forecast was not incremental";
      return false;
    }
    return true;
  });
  if (!set_up) {
    result.Fail(setup_error);
    return result;
  }
  {
    std::unique_ptr<serve::FrozenModel> mapped;
    const utils::Status status = serve::FrozenModel::LoadMapped(
        configs[1], SnapshotPath(options, 1), &mapped);
    if (!status.ok()) {
      result.Fail("LoadMapped failed: " + status.ToString());
      return result;
    }
    models[1] = std::move(mapped);
  }

  // ---- Measured phase(s). ----------------------------------------------
  int current = 0;
  int64_t next_frame = h + 1;
  int64_t encoded_from = 0;  // set-up's full encode covered frames 0..h-1
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  StreamPhase main = RunStreamPhase(*streamer, *cache, models, &current,
                                    frames, &next_frame, &encoded_from,
                                    phase_s);
  StreamPhase traced;
  const serve::ForecastCache::Stats cache_before = cache->stats();
  if (options.trace) {
    obs::Telemetry::Global().ResetRegistry();
    obs::Telemetry::SetCollectionEnabled(true);
    Tracer::SetEnabled(true);
    traced = RunStreamPhase(*streamer, *cache, models, &current, frames,
                            &next_frame, &encoded_from, phase_s);
    Tracer::SetEnabled(false);
    obs::Telemetry::SetCollectionEnabled(false);
  }
  const serve::ForecastCache::Stats cache_after = cache->stats();

  // ---- Output checks (after timing). ------------------------------------
  int64_t checked = 0;
  int64_t mismatched = 0;
  int64_t unpublished = 0;
  uint64_t digest = Fnv1a(nullptr, 0);
  double abs_err = 0.0;
  int64_t err_count = 0;
  for (const Tick& tick : main.ticks) {
    if (!tick.published) {
      ++unpublished;
      continue;
    }
    digest = Fnv1a(&tick.digest, sizeof(tick.digest), digest);
    abs_err += tick.abs_err;
    err_count += tick.err_count;
    if (tick.kept.size() == 0) continue;
    // A full re-encode must equal the plan replay of its h-frame window;
    // an incremental tick must equal the eager encode of every frame its
    // carried state has seen (the streamer's carry contract).
    tensor::Tensor x;
    tensor::Tensor tod;
    WindowAt(frames, tick.encoded_from, tick.last_frame, f, &x, &tod);
    const serve::FrozenModel& model = *models[tick.model];
    const tensor::Tensor want =
        tick.incremental ? model.PredictEager(x, tod) : model.Predict(x, tod);
    ++checked;
    if (want.size() != tick.kept.size() ||
        std::memcmp(want.data(), tick.kept.data(),
                    want.size() * sizeof(float)) != 0) {
      ++mismatched;
    }
  }
  if (checked == 0) result.Fail("no tick was checked against Predict");
  if (mismatched > 0) {
    result.Fail(std::to_string(mismatched) + " of " + std::to_string(checked) +
                " checked ticks differ from their reference");
  }
  if (unpublished > 0) {
    result.Fail(std::to_string(unpublished) + " ticks published nothing");
  }
  std::string message;
  if (!CheckDigestAcrossRuns(options.digest_file, DigestKey(options),
                             HexDigest(digest), &message)) {
    result.Fail(message);
  } else {
    result.Note(message);
  }
  result.attempted = static_cast<int64_t>(main.ticks.size());
  result.failed = unpublished + mismatched;

  // ---- End-to-end metrics. -------------------------------------------
  std::vector<double> latency_ms;
  std::vector<double> service_ms;
  std::vector<double> inc_cpu_ms;
  std::vector<double> full_cpu_ms;
  double service_s = 0.0;
  double tick_cpu_s = 0.0;
  for (const Tick& t : main.ticks) {
    latency_ms.push_back(t.latency_s * 1e3);
    service_ms.push_back(t.service_s * 1e3);
    service_s += t.service_s;
    tick_cpu_s += t.cpu_s;
    (t.incremental ? inc_cpu_ms : full_cpu_ms).push_back(t.cpu_s * 1e3);
  }
  const Summary tick = Summarize(latency_ms, 90.0);
  const Summary service = Summarize(service_ms, 90.0);
  const Summary reads = Summarize(main.read_us, 99.0);
  // The rate the streamer could sustain: published ticks over the time
  // OnTick spent on them (the schedule's idle gaps left out).
  const double sustainable_per_s =
      static_cast<double>(main.ticks.size() - unpublished) /
      std::max(1e-9, service_s);
  result.EndToEnd("setup_s", Median(setup_cpu_s), "s");
  result.EndToEnd("peak_rss_mb",
                  static_cast<double>(utils::PeakRssBytes()) / (1 << 20),
                  "MiB");
  const size_t ticks = std::max<size_t>(1, main.ticks.size());
  result.EndToEnd("cpu_ms_per_item",
                  tick_cpu_s * 1e3 / static_cast<double>(ticks), "ms");
  result.EndToEnd("forecast_mae",
                  err_count > 0 ? abs_err / static_cast<double>(err_count)
                                : 0.0,
                  "units");

  char line[512];
  std::snprintf(line, sizeof(line),
                "stream-100k: %lld ticks every %.0f ms open-loop, swap every "
                "%lld ticks (%lld swaps); tick latency from due time: "
                "tick_p50_ms %.3f ms, tick_p90_ms %.3f ms (as p%.1f of "
                "n=%lld), max %.3f ms; OnTick service time p50 %.3f ms, "
                "p%.1f %.3f ms; sustainable %.3f ticks/s (offered %.3f); "
                "CPU per tick p50 %.3f ms incremental (n=%lld), %.3f ms full "
                "(n=%lld)",
                static_cast<long long>(main.ticks.size()), kTickPeriodS * 1e3,
                static_cast<long long>(kSwapEvery),
                static_cast<long long>(main.swaps), tick.p50, tick.tail,
                tick.tail_pct, static_cast<long long>(tick.count), tick.max,
                service.p50, service.tail_pct, service.tail, sustainable_per_s,
                1.0 / kTickPeriodS, Median(inc_cpu_ms),
                static_cast<long long>(inc_cpu_ms.size()), Median(full_cpu_ms),
                static_cast<long long>(full_cpu_ms.size()));
  result.Note(line);
  std::snprintf(line, sizeof(line),
                "stream-100k: cached read (blocks of %d) p50 %.4f us, "
                "read_p99_us %.4f us (as p%.1f of n=%lld blocks); set-up "
                "(LoadMapped -> first forecast) median %.4f s wall, %.4f s "
                "CPU of %d; %lld checked ticks memcmp-equal to their "
                "reference",
                kReadsPerBlock, reads.p50, reads.tail, reads.tail_pct,
                static_cast<long long>(reads.count), Median(setup_s),
                Median(setup_cpu_s), kSetupRepeats,
                static_cast<long long>(checked - mismatched));
  result.Note(line);

  if (!options.trace) return result;

  // ---- Per-layer metrics (traced half). -------------------------------
  const std::vector<Span> spans = Tracer::Collect();
  std::vector<double> inc_ms;
  std::vector<double> full_ms;
  std::vector<double> lag_ms;
  std::vector<double> traced_latency;
  for (const Tick& t : traced.ticks) {
    (t.incremental ? inc_ms : full_ms).push_back(t.service_s * 1e3);
    lag_ms.push_back(t.start_lag_s * 1e3);
    traced_latency.push_back(t.latency_s * 1e3);
  }
  const Summary inc = Summarize(inc_ms, 90.0);
  const Summary full = Summarize(full_ms, 90.0);
  const Summary lag = Summarize(lag_ms, 90.0);
  const Summary traced_tick = Summarize(traced_latency, 90.0);
  const Summary traced_reads = Summarize(traced.read_us, 99.0);
  const serve::FrozenModel& live = *models[current];
  const core::AdjacencySnapshot& snap = live.snapshot();
  const auto inc_plan = live.PlanFor(1, core::PlanKind::kIncremental);
  // Bytes an incremental tick must at least touch, from tensor sizes:
  // every parameter, the slim adjacency (dense a_s and its CSR), inverse
  // degrees, the carried state read and written, one input frame and the
  // f-step output.
  double param_bytes = 0.0;
  for (const auto& [name, p] : live.model().NamedParameters()) {
    param_bytes += static_cast<double>(p.value().size()) * sizeof(float);
  }
  const graph::CsrMatrix& csr = *snap.csr;
  const double csr_bytes =
      static_cast<double>(csr.nnz()) * (sizeof(float) + sizeof(int32_t)) +
      static_cast<double>(csr.row_ptr.size()) * sizeof(int64_t);
  const double bytes_per_tick =
      param_bytes + static_cast<double>(snap.a_s.size()) * sizeof(float) +
      csr_bytes + static_cast<double>(snap.inv_deg.size()) * sizeof(float) +
      2.0 * static_cast<double>(inc_plan->state_floats()) * sizeof(float) +
      static_cast<double>(frames.n * frames.c + f * frames.n) * sizeof(float);

  result.Layer("serve.forecast_cache.tick_ms.p50", traced_tick.p50, "ms");
  result.Layer("serve.forecast_cache.tick_ms.tail", traced_tick.tail, "ms");
  result.Layer("serve.forecast_cache.tick_inc_ms.p50", inc.p50, "ms");
  result.Layer("serve.forecast_cache.tick_inc_ms.tail", inc.tail, "ms");
  result.Layer("serve.forecast_cache.tick_full_ms.p50", full.p50, "ms");
  result.Layer("serve.forecast_cache.full_share",
               traced.ticks.empty()
                   ? 0.0
                   : static_cast<double>(full_ms.size()) /
                         static_cast<double>(traced.ticks.size()),
               "ratio");
  result.Layer("serve.forecast_cache.start_lag_ms.tail", lag.tail, "ms");
  result.Layer("serve.forecast_cache.read_us.p50", traced_reads.p50, "us");
  result.Layer("serve.forecast_cache.read_us.tail", traced_reads.tail, "us");
  result.Layer("serve.forecast_cache.hit_ratio",
               cache_after.reads > cache_before.reads
                   ? static_cast<double>(cache_after.hits - cache_before.hits) /
                         static_cast<double>(cache_after.reads -
                                             cache_before.reads)
                   : 0.0,
               "ratio");
  result.Layer("serve.forecast_cache.invalidations",
               static_cast<double>(cache_after.invalidations -
                                   cache_before.invalidations),
               "count");
  result.Layer("nn.serialization.load_mapped_ms", Median(load_ms), "ms");
  result.Layer("core.rollout_plan.first_tick_ms.full", Median(first_full_ms),
               "ms");
  result.Layer("core.rollout_plan.first_tick_ms.incremental",
               Median(first_inc_ms), "ms");
  result.Layer("graph.csr.nnz", static_cast<double>(csr.nnz()), "count");
  result.Layer("core.rollout_plan.bytes_per_tick", bytes_per_tick, "bytes");
  result.Layer("core.rollout_plan.instructions.incremental",
               static_cast<double>(inc_plan->num_instructions()), "count");
  result.Layer("utils.arena.high_water_bytes",
               static_cast<double>(utils::ScratchArena::ProcessHighWater()), "bytes");
  result.Layer("utils.parallel.threads",
               static_cast<double>(utils::GetNumThreads()), "count");
  result.Layer("bench.trace_overhead_ms", traced_tick.p50 - tick.p50, "ms");
  result.Layer("bench.spans", static_cast<double>(spans.size()), "count");

  std::snprintf(line, sizeof(line),
                "stream-100k traced half: tick p50 %.3f ms (untraced half "
                "%.3f ms); incremental p50 %.3f ms, full p50 %.3f ms; "
                "bytes_per_tick %.0f is computed from tensor sizes",
                traced_tick.p50, tick.p50, inc.p50, full.p50, bytes_per_tick);
  result.Note(line);
  Tracer::Write(spans, options.work_dir + "/spans.jsonl");
  return result;
}

}  // namespace sagdfn::perfbench
