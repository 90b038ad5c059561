#ifndef SAGDFN_BENCH_BENCH_COMMON_H_
#define SAGDFN_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "baselines/forecaster.h"
#include "baselines/registry.h"
#include "data/registry.h"
#include "metrics/metrics.h"
#include "obs/telemetry.h"
#include "utils/cli.h"
#include "utils/percentile.h"
#include "utils/string_util.h"
#include "utils/table_printer.h"

namespace sagdfn::bench {

/// The shared R-7 percentile (utils/percentile.h). Callers sort once per
/// scenario and query as many percentiles as they need.
using utils::PercentileSorted;

/// Scoped bench telemetry: enables obs collection for the process (so the
/// sns/ssma/gconv scoped timers and the per-model fit/inference records
/// all land in the shared registry) and, on destruction, writes the
/// registry as a machine-readable `BENCH_<name>.json` cost breakdown —
/// the Table 10 analogue for whatever the bench ran. An event stream
/// (SAGDFN_TELEMETRY=path) composes with this: events go to the JSONL
/// sink, the aggregate still goes to BENCH_<name>.json.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(const std::string& name);
  ~BenchTelemetry();

  BenchTelemetry(const BenchTelemetry&) = delete;
  BenchTelemetry& operator=(const BenchTelemetry&) = delete;

 private:
  std::string name_;
};

/// Scale/effort knobs shared by every bench binary. Default is the CPU
/// "quick" profile (seconds per model); `--full` requests paper-scale
/// datasets and longer training (hours on CPU — intended for overnight
/// runs, same code path).
struct BenchConfig {
  bool full = false;
  /// Cap on nodes taken from the generated dataset (0 = all).
  int64_t max_nodes = 0;
  int64_t epochs = 0;          // 0 = profile default
  int64_t batch_size = 8;
  int64_t max_train_batches = 0;  // 0 = profile default
  int64_t max_eval_batches = 0;   // 0 = profile default
  double learning_rate = 0.02;
  uint64_t seed = 5;
  /// GPU budget used for OOM predictions (paper: 32 GB V100).
  double oom_budget_bytes = 32.0 * (1ull << 30);

  data::DatasetScale scale() const {
    return full ? data::DatasetScale::kFull : data::DatasetScale::kQuick;
  }
};

/// Parses --full, --max-nodes, --epochs, --batch, --train-batches,
/// --eval-batches, --lr, --seed.
BenchConfig ParseBenchConfig(int argc, char** argv);

/// Fit options derived from the bench config (quick profile defaults).
baselines::FitOptions MakeFitOptions(const BenchConfig& config);

/// Model sizing derived from the bench config. Quick: small dims; full:
/// the paper's configuration (d=100, M=100, K=80, 8 heads, hidden 64,
/// J=3).
baselines::ModelSizing MakeModelSizing(const BenchConfig& config);

/// Builds a named dataset at bench scale, sliced to max_nodes when set.
data::ForecastDataset LoadDataset(const std::string& name,
                                  const BenchConfig& config);

/// Result of one model on one dataset.
struct ModelRun {
  std::string name;
  bool oom = false;
  std::vector<metrics::Scores> horizon_scores;  // per requested horizon
  int64_t parameter_count = 0;
  double fit_seconds = 0.0;
  double inference_seconds = 0.0;
};

/// Trains and evaluates `model` (by registry name) on `dataset`, scoring
/// the given 1-based horizons on the test split.
ModelRun RunModel(const std::string& name,
                  const data::ForecastDataset& dataset,
                  const BenchConfig& config,
                  const std::vector<int64_t>& horizons);

/// Like RunModel but for a pre-built forecaster (ablation variants).
ModelRun RunForecaster(baselines::Forecaster& forecaster,
                       const data::ForecastDataset& dataset,
                       const BenchConfig& config,
                       const std::vector<int64_t>& horizons);

/// Predicts whether `name` (an STGNN family) would exceed the GPU budget
/// at the paper's full-scale node count for the dataset. Classical
/// baselines never OOM.
bool PredictsOom(const std::string& name, int64_t full_scale_nodes,
                 const BenchConfig& config);

/// Appends a Table III-style row: model, then MAE/RMSE/MAPE per horizon
/// (or "x" cells when the run is marked OOM).
void AddScoreRow(utils::TablePrinter& table, const ModelRun& run,
                 int64_t num_horizons);

/// Prints a standard bench header naming the paper artifact reproduced.
void PrintHeader(const std::string& title, const BenchConfig& config);

/// Shared driver for paper Tables V / VI / VII: every baseline plus
/// SAGDFN on a large dataset, with models whose memory class exceeds the
/// GPU budget at `paper_full_nodes` marked 'x' instead of trained (they
/// could not run on the paper's hardware; training their quick-scale
/// variants would fabricate numbers the paper doesn't have).
int RunLargeDatasetTable(const std::string& dataset_name,
                         int64_t paper_full_nodes, const std::string& title,
                         int argc, char** argv);

}  // namespace sagdfn::bench

#endif  // SAGDFN_BENCH_BENCH_COMMON_H_
