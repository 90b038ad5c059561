#ifndef SAGDFN_SERVE_FROZEN_MODEL_H_
#define SAGDFN_SERVE_FROZEN_MODEL_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/rollout_plan.h"
#include "core/sagdfn.h"
#include "utils/status.h"

namespace sagdfn::serve {

/// An immutable model snapshot prepared for serving: a SagdfnModel in
/// eval mode (dropout off, SNS exploration disabled) plus the frozen
/// adjacency snapshot (slim A_s + inverse degrees + index set) computed
/// exactly once. After Freeze()/Load() nothing in here mutates, so one
/// FrozenModel is shared read-only by every InferenceEngine worker.
class FrozenModel {
 public:
  /// Bound on the per-model rollout-plan cache: plans (and their
  /// pre-sized arena slabs) are built per distinct (batch size, plan
  /// kind), and a client sweeping batch sizes must not grow the map
  /// without limit. Least-recently-used entries are evicted past the cap
  /// (in-flight replays keep their plan alive through the returned
  /// shared_ptr).
  static constexpr int64_t kPlanCacheCapacity = 16;

  /// Takes ownership of an already-built (trained or restored) model,
  /// switches it to eval mode, and freezes the adjacency.
  static std::unique_ptr<FrozenModel> Freeze(
      std::unique_ptr<core::SagdfnModel> model);

  /// Builds a model from `config`, restores it from a v2 checkpoint
  /// written by nn::SaveModule (parameters, buffers, and the trained
  /// index set), and freezes it. Fails cleanly — never returns a
  /// partially populated model — on any checkpoint mismatch.
  static utils::Status Load(const core::SagdfnConfig& config,
                            const std::string& checkpoint_path,
                            std::unique_ptr<FrozenModel>* out);

  /// Writes this frozen model as a memory-mapped weight file (the "SAGM"
  /// format, nn::SaveMappedCheckpoint): all parameters and buffers plus
  /// the frozen adjacency snapshot (a_s, inverse degrees, index set) and
  /// a config fingerprint. Written atomically (verify-before-publish).
  utils::Status Save(const std::string& path) const;

  /// Opens a weight file written by Save() via mmap and builds a frozen
  /// model around it with ZERO parameter copies: parameter storage and
  /// the adjacency snapshot alias the mapped pages (read-only; shared
  /// physically with every other process serving the same file), so load
  /// time is O(index + CSR build) — milliseconds at N=100k — instead of
  /// the heap Load() path's full-checkpoint copy plus attention/entmax
  /// snapshot recomputation. Forecasts are memcmp-identical to Load().
  /// Fails cleanly on a corrupt file or a config mismatch.
  static utils::Status LoadMapped(const core::SagdfnConfig& config,
                                  const std::string& path,
                                  std::unique_ptr<FrozenModel>* out);

  /// Thread-safe batched inference: `x` [B, h, N, C], `future_tod`
  /// [B, f] -> scaled predictions [B, f, N]. Per batch row the result is
  /// bit-identical however the rows are batched. Replays the precompiled
  /// rollout plan for the request's batch size (built lazily on first
  /// sight of a batch size, then cached); bit-identical to PredictEager.
  tensor::Tensor Predict(const tensor::Tensor& x,
                         const tensor::Tensor& future_tod) const;

  /// The original autograd-walking eval path (SagdfnModel::Predict with
  /// no plan). Kept for differential tests and benchmarks against the
  /// plan replay.
  tensor::Tensor PredictEager(const tensor::Tensor& x,
                              const tensor::Tensor& future_tod) const;

  /// The cached full-rollout execution plan for `batch`-sized requests,
  /// building it if this batch size has not been seen yet. Thread-safe;
  /// the returned plan is immutable and replayable concurrently.
  std::shared_ptr<const core::RolloutPlan> PlanFor(int64_t batch) const;

  /// Same cache, explicit plan kind: kIncremental plans power the
  /// streaming tick path (see serve::TickStreamer). Each (batch, kind)
  /// pair is one cache entry.
  std::shared_ptr<const core::RolloutPlan> PlanFor(
      int64_t batch, core::PlanKind kind) const;

  /// Current number of cached plans (≤ kPlanCacheCapacity). Also
  /// exported as the `serve.plan_cache_size` telemetry gauge on every
  /// insert/evict.
  int64_t plan_cache_size() const;
  /// Plans evicted over this model's lifetime (LRU past the cap).
  int64_t plan_cache_evictions() const;

  const core::SagdfnModel& model() const { return *model_; }
  const core::AdjacencySnapshot& snapshot() const { return snapshot_; }
  const core::SagdfnConfig& config() const { return model_->config(); }

 private:
  using PlanKey = std::pair<int64_t, core::PlanKind>;

  FrozenModel(std::unique_ptr<core::SagdfnModel> model,
              core::AdjacencySnapshot snapshot);

  std::unique_ptr<core::SagdfnModel> model_;
  core::AdjacencySnapshot snapshot_;
  /// Bounded LRU over (batch, kind) → plan. Serving sees a handful of
  /// batch sizes (bounded by the engine's max_batch); the cap defends
  /// against unbounded sweeps. lru_ is most-recent-first; each map
  /// value carries its list position for O(log n) touch. Guarded by
  /// plans_mu_.
  mutable std::mutex plans_mu_;
  mutable std::list<PlanKey> lru_;
  mutable std::map<PlanKey,
                   std::pair<std::shared_ptr<const core::RolloutPlan>,
                             std::list<PlanKey>::iterator>>
      plans_;
  mutable int64_t plan_evictions_ = 0;
};

}  // namespace sagdfn::serve

#endif  // SAGDFN_SERVE_FROZEN_MODEL_H_
