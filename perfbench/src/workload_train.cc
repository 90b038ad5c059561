// train-2000: Trainer::Train on london2000-sim at full scale (2000 nodes)
// with bench_common's quick model sizing, batch 8, a fixed number of
// train batches per epoch, two epochs, a small validation cap and
// checkpoints written each epoch. The only workload that runs SNS, SSMA,
// entmax, autograd backward and Adam.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

#include "autograd/ops.h"
#include "bench_common.h"
#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/registry.h"
#include "data/window_dataset.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "optim/optimizer.h"
#include "trace.h"
#include "utils/arena.h"
#include "utils/memory_info.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "workloads.h"

namespace sagdfn::perfbench {
namespace {

constexpr int64_t kBatch = 8;
constexpr int64_t kEpochs = 2;
constexpr int64_t kEvalBatches = 2;
constexpr int kSetupRepeats = 9;
constexpr double kWarmupSeconds = 1.0;
constexpr double kLearningRate = 0.01;

// bench_common's quick sizing with its default seed: the initial weights
// are the same for every run; the seed orders the training windows.
core::SagdfnConfig TrainModelConfig(const data::ForecastDataset& dataset) {
  const bench::BenchConfig quick;
  const baselines::ModelSizing sizing = bench::MakeModelSizing(quick);
  core::SagdfnConfig config;
  config.num_nodes = dataset.num_nodes();
  config.embedding_dim = sizing.sagdfn_embedding;
  config.m = std::min<int64_t>(sizing.sagdfn_m, dataset.num_nodes());
  config.k = std::min<int64_t>(sizing.sagdfn_k, config.m);
  config.hidden_dim = sizing.hidden;
  config.heads = sizing.sagdfn_heads;
  config.ffn_hidden = sizing.sagdfn_ffn_hidden;
  config.diffusion_steps = sizing.diffusion_steps;
  config.alpha = sizing.alpha;
  config.history = dataset.spec().history;
  config.horizon = dataset.spec().horizon;
  config.input_dim = dataset.num_input_channels();
  config.convergence_iters = sizing.convergence_iters;
  config.seed = sizing.seed;
  return config;
}

/// Forwards every SeqModel call to the wrapped SAGDFN model and stamps
/// the start of each Forward, so the benchmark can time training steps
/// from outside Trainer::Train: a step runs from one training-mode
/// Forward to the next Forward of any mode.
class StepClock : public core::SeqModel {
 public:
  explicit StepClock(core::SagdfnModel* inner) : inner_(inner) {
    RegisterModule("sagdfn", inner_);
  }

  autograd::Variable Forward(const tensor::Tensor& x,
                             const tensor::Tensor& future_tod,
                             int64_t iteration, const tensor::Tensor* teacher,
                             double teacher_prob) override {
    const auto now = Clock::now();
    if (last_was_training_) {
      step_ms_.push_back(SecondsBetween(last_start_, now) * 1e3);
    }
    last_start_ = now;
    last_was_training_ = training();
    return inner_->Forward(x, future_tod, iteration, teacher, teacher_prob);
  }
  std::string name() const override { return inner_->name(); }
  int64_t horizon() const override { return inner_->horizon(); }
  void OnTrainingPlan(int64_t total) override { inner_->OnTrainingPlan(total); }
  void OnStateLoaded() override { inner_->OnStateLoaded(); }
  std::vector<std::pair<std::string, std::vector<uint64_t>>>
  ExportRuntimeState() const override {
    return inner_->ExportRuntimeState();
  }
  utils::Status ImportRuntimeState(
      const std::vector<std::pair<std::string, std::vector<uint64_t>>>& state)
      override {
    return inner_->ImportRuntimeState(state);
  }

  const std::vector<double>& step_ms() const { return step_ms_; }

 private:
  core::SagdfnModel* inner_;
  Clock::time_point last_start_;
  bool last_was_training_ = false;
  std::vector<double> step_ms_;
};

int64_t TrainBatchesPerEpoch(double seconds) {
  // About 1.6 s per batch-8 step at 2000 nodes with the 2-thread pool:
  // two epochs of seconds / 3 batches fill the run. Derived from
  // --seconds only, so every commit trains the same plan.
  return std::max<int64_t>(2, static_cast<int64_t>(seconds / 3.0));
}

uint64_t ParameterDigest(const nn::Module& module) {
  uint64_t digest = Fnv1a(nullptr, 0);
  for (const auto& [name, p] : module.NamedParameters()) {
    digest = Fnv1a(p.value().data(), p.value().size() * sizeof(float), digest);
  }
  return digest;
}

/// Sums of the program's own obs timers (seconds) under `names`.
std::map<std::string, double> TimerTotals(const std::vector<std::string>& names) {
  std::map<std::string, double> out;
  for (const std::string& n : names) {
    out[n] = obs::Telemetry::Global().timer(n).total_seconds;
  }
  return out;
}

/// The traced run's training loop: the public calls Trainer makes for
/// one step, each inside a span. Returns per-step wall times (ms).
std::vector<double> ManualEpoch(core::SagdfnModel& model, optim::Adam& adam,
                                const data::ForecastDataset& dataset,
                                utils::Rng& rng, int64_t batches,
                                int64_t* iteration, double decay,
                                int64_t* skipped) {
  model.SetTraining(true);
  const std::vector<int64_t> order = dataset.ShuffledTrainOrder(rng);
  batches = std::min<int64_t>(batches, order.size() / kBatch);
  std::vector<double> step_ms;
  for (int64_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    ScopedSpan step("core.trainer.step", *iteration);
    std::vector<int64_t> offsets(order.begin() + b * kBatch,
                                 order.begin() + (b + 1) * kBatch);
    data::Batch batch;
    {
      ScopedSpan span("data.GetBatchAt");
      batch = dataset.GetBatchAt(data::Split::kTrain, offsets);
    }
    const double teacher_prob =
        decay / (decay + std::exp(static_cast<double>(*iteration) / decay));
    autograd::Variable pred;
    {
      ScopedSpan span("core.sagdfn.Forward");
      pred = model.Forward(batch.x, batch.future_tod, *iteration,
                           &batch.y_scaled, teacher_prob);
    }
    autograd::Variable loss;
    {
      ScopedSpan span("autograd.L1Loss");
      loss = autograd::L1Loss(pred, autograd::Variable(batch.y_scaled));
    }
    if (!std::isfinite(loss.value().Item())) {
      ++*skipped;
    } else {
      {
        ScopedSpan span("autograd.Backward");
        model.ZeroGrad();
        loss.Backward();
      }
      double norm = 0.0;
      {
        ScopedSpan span("optim.ClipGradNorm");
        norm = optim::ClipGradNorm(adam.params(), 5.0);
      }
      if (std::isfinite(norm)) {
        ScopedSpan span("optim.Adam.Step");
        adam.Step();
      } else {
        ++*skipped;
      }
    }
    ++*iteration;
    step_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  return step_ms;
}

}  // namespace

RunResult RunTrain(const RunOptions& options) {
  RunResult result;
  utils::SetNumThreads(kKernelThreads);
  namespace fs = std::filesystem;
  const std::string name = "london2000-sim";
  const data::TimeSeries series =
      data::MakeDataset(name, data::DatasetScale::kFull);
  const int64_t batches = TrainBatchesPerEpoch(options.seconds);

  core::TrainOptions train;
  train.epochs = kEpochs;
  train.batch_size = kBatch;
  train.learning_rate = kLearningRate;
  train.max_train_batches_per_epoch = batches;
  train.max_eval_batches = kEvalBatches;
  train.seed = options.seed;
  train.checkpoint_dir = options.work_dir + "/ckpt";
  fs::create_directories(train.checkpoint_dir);

  // ---- Set-up: windowed dataset + model + trainer, repeated. ----------
  std::unique_ptr<data::ForecastDataset> dataset;
  std::unique_ptr<core::SagdfnModel> model;
  std::unique_ptr<StepClock> clock;
  std::unique_ptr<core::Trainer> trainer;
  const Timings setup =
      TimeRepeated(kWarmupSeconds, kSetupRepeats, [&] {
        trainer.reset();
        clock.reset();
        model.reset();
        dataset.reset();
        dataset = std::make_unique<data::ForecastDataset>(
            series, data::DefaultWindowSpec(name));
        model = std::make_unique<core::SagdfnModel>(TrainModelConfig(*dataset));
        clock = std::make_unique<StepClock>(model.get());
        trainer =
            std::make_unique<core::Trainer>(clock.get(), dataset.get(), train);
        return true;
      });

  std::vector<double> untraced_steps;
  std::vector<double> traced_steps;
  std::map<std::string, double> timer_s;
  int64_t traced_skipped = 0;
  int64_t traced_batches = 0;
  double val_ms = 0.0;
  double ckpt_ms = 0.0;
  core::TrainResult trained;
  double wall = 0.0;
  double train_cpu_s = 0.0;

  if (!options.trace) {
    // ---- Measured: one Trainer::Train. -----------------------------------
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    trained = trainer->Train();
    wall = SecondsBetween(t0, Clock::now());
    train_cpu_s = ProcessCpuSeconds() - cpu0;
  } else {
    // ---- Traced: the same steps through the public calls Trainer makes;
    // epoch 1 untraced, epoch 2 traced with obs collection on. -----------
    const std::vector<std::string> timers = {
        "sns.sample",      "sagdfn.adjacency", "ssma.forward",
        "sagdfn.encoder",  "sagdfn.decoder",   "gconv.forward"};
    optim::Adam adam(model->Parameters(), kLearningRate);
    utils::Rng rng(options.seed);
    int64_t iteration = 0;
    const double decay =
        std::max(1.0, static_cast<double>(kEpochs * batches) / 4.0);
    model->OnTrainingPlan(kEpochs * batches);
    untraced_steps = ManualEpoch(*model, adam, *dataset, rng, batches,
                                 &iteration, decay, &traced_skipped);
    obs::Telemetry::Global().ResetRegistry();
    obs::Telemetry::SetCollectionEnabled(true);
    Tracer::SetEnabled(true);
    traced_steps = ManualEpoch(*model, adam, *dataset, rng, batches,
                               &iteration, decay, &traced_skipped);
    traced_batches = static_cast<int64_t>(traced_steps.size());
    timer_s = TimerTotals(timers);
    {
      const auto t0 = Clock::now();
      ScopedSpan span("core.trainer.Predict");
      trainer->Predict(data::Split::kValidation);
      val_ms = SecondsBetween(t0, Clock::now()) * 1e3;
    }
    {
      const auto t0 = Clock::now();
      ScopedSpan span("nn.serialization.SaveModule");
      if (!nn::SaveModule(*model, options.work_dir + "/traced.ckpt").ok()) {
        result.Fail("SaveModule failed in the traced run");
      }
      ckpt_ms = SecondsBetween(t0, Clock::now()) * 1e3;
    }
    Tracer::SetEnabled(false);
    obs::Telemetry::SetCollectionEnabled(false);
  }

  // ---- Output checks. -------------------------------------------------
  const int64_t planned = kEpochs * batches;
  int64_t skipped = 0;
  double val_mae = 0.0;
  if (!options.trace) {
    if (!trained.status.ok()) result.Fail("Train: " + trained.status.ToString());
    if (trained.epochs_run != kEpochs) {
      result.Fail("Train ran " + std::to_string(trained.epochs_run) +
                  " epochs, not " + std::to_string(kEpochs));
    }
    skipped = trained.skipped_batches;
    val_mae = trained.epoch_val_mae.empty() ? 0.0 : trained.epoch_val_mae.back();
    if (!std::isfinite(val_mae) || val_mae <= 0.0) {
      result.Fail("final validation MAE is not a positive number");
    }
  } else {
    skipped = traced_skipped;
  }
  if (skipped > 0) result.Fail(std::to_string(skipped) + " batches skipped");
  uint64_t digest = ParameterDigest(*model);
  digest = Fnv1a(&val_mae, sizeof(val_mae), digest);
  std::string message;
  if (!CheckDigestAcrossRuns(options.digest_file, DigestKey(options),
                             HexDigest(digest), &message)) {
    result.Fail(message);
  } else {
    result.Note(message);
  }
  result.attempted = planned;
  result.failed = skipped + (result.correct ? 0 : 1);

  char line[512];
  if (!options.trace) {
    const Summary steps = Summarize(clock->step_ms(), 90.0);
    result.EndToEnd("setup_s", Median(setup.cpu_s), "s");
    result.EndToEnd("peak_rss_mb",
                    static_cast<double>(utils::PeakRssBytes()) / (1 << 20),
                    "MiB");
    result.EndToEnd("cpu_ms_per_item",
                    train_cpu_s * 1e3 / static_cast<double>(planned * kBatch),
                    "ms");
    result.EndToEnd("forecast_mae", val_mae, "units");
    std::snprintf(line, sizeof(line),
                  "train-2000: Trainer::Train %lld epochs x %lld batches of "
                  "%lld on %lld nodes in %.3f s: train_windows_per_s %.3f "
                  "(validation and checkpoints included); step p50 %.3f ms "
                  "(n=%lld), max %.3f ms; val_mae %.6f; set-up median %.4f s "
                  "wall, %.4f s CPU of %d",
                  static_cast<long long>(kEpochs),
                  static_cast<long long>(batches),
                  static_cast<long long>(kBatch),
                  static_cast<long long>(dataset->num_nodes()), wall,
                  static_cast<double>(planned * kBatch) / wall, steps.p50,
                  static_cast<long long>(steps.count), steps.max, val_mae,
                  Median(setup.wall_s), Median(setup.cpu_s), kSetupRepeats);
    result.Note(line);
    return result;
  }

  // ---- Per-layer metrics (traced epoch). -------------------------------
  const std::vector<Span> spans = Tracer::Collect();
  const std::map<std::string, SpanTotals> totals = Tracer::Totals(spans);
  const double steps = static_cast<double>(std::max<int64_t>(1, traced_batches));
  auto self_ms = [&](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.self_s * 1e3 / steps;
  };
  auto timer_ms = [&](const char* timer) { return timer_s[timer] * 1e3 / steps; };
  result.Layer("data.batch_ms", self_ms("data.GetBatchAt"), "ms");
  result.Layer("core.sagdfn.forward_ms", self_ms("core.sagdfn.Forward"), "ms");
  result.Layer("core.sns.sample_ms", timer_ms("sns.sample"), "ms");
  result.Layer("core.sagdfn.adjacency_ms", timer_ms("sagdfn.adjacency"), "ms");
  result.Layer("core.ssma.forward_ms", timer_ms("ssma.forward"), "ms");
  result.Layer("core.sagdfn.encoder_ms", timer_ms("sagdfn.encoder"), "ms");
  result.Layer("core.sagdfn.decoder_ms", timer_ms("sagdfn.decoder"), "ms");
  result.Layer("core.fast_gconv.forward_ms", timer_ms("gconv.forward"), "ms");
  result.Layer("autograd.loss_ms", self_ms("autograd.L1Loss"), "ms");
  result.Layer("autograd.backward_ms", self_ms("autograd.Backward"), "ms");
  result.Layer("optim.clip_ms", self_ms("optim.ClipGradNorm"), "ms");
  result.Layer("optim.step_ms", self_ms("optim.Adam.Step"), "ms");
  result.Layer("core.trainer.step_self_ms", self_ms("core.trainer.step"), "ms");
  result.Layer("core.trainer.val_ms", val_ms, "ms");
  result.Layer("core.trainer.ckpt_save_ms", ckpt_ms, "ms");
  result.Layer("core.trainer.skipped_batches", static_cast<double>(skipped),
               "count");
  result.Layer("utils.arena.high_water_bytes",
               static_cast<double>(utils::ScratchArena::ProcessHighWater()), "bytes");
  result.Layer("utils.parallel.threads",
               static_cast<double>(utils::GetNumThreads()), "count");
  result.Layer("bench.trace_overhead_ms",
               Median(traced_steps) - Median(untraced_steps), "ms");
  result.Layer("bench.spans", static_cast<double>(spans.size()), "count");
  std::snprintf(line, sizeof(line),
                "train-2000 traced epoch: step p50 %.3f ms (untraced epoch "
                "%.3f ms) over %lld steps; per-step self times from spans, "
                "sub-layer times from the program's obs timers",
                Median(traced_steps), Median(untraced_steps),
                static_cast<long long>(traced_batches));
  result.Note(line);
  Tracer::Write(spans, options.work_dir + "/spans.jsonl");
  return result;
}

}  // namespace sagdfn::perfbench
