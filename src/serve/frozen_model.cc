#include "serve/frozen_model.h"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "utils/check.h"

namespace sagdfn::serve {

namespace {

// Weight-file entry names for the frozen snapshot. The "__frozen:" prefix
// cannot collide with module state: parameter names are dot-qualified and
// buffers are stored under "buffer:".
constexpr char kFrozenAs[] = "__frozen:a_s";
constexpr char kFrozenInvDeg[] = "__frozen:inv_deg";
constexpr char kFrozenIndexSet[] = "__frozen:index_set";
constexpr char kFrozenConfig[] = "__frozen:config";

// Shape-determining config fields; a weight file only loads against a
// config that agrees on all of them.
std::vector<uint64_t> ConfigFingerprint(const core::SagdfnConfig& c) {
  return {static_cast<uint64_t>(c.num_nodes),
          static_cast<uint64_t>(c.embedding_dim),
          static_cast<uint64_t>(c.m),
          static_cast<uint64_t>(c.k),
          static_cast<uint64_t>(c.hidden_dim),
          static_cast<uint64_t>(c.heads),
          static_cast<uint64_t>(c.ffn_hidden),
          static_cast<uint64_t>(c.diffusion_steps),
          static_cast<uint64_t>(c.num_layers),
          static_cast<uint64_t>(c.history),
          static_cast<uint64_t>(c.horizon),
          static_cast<uint64_t>(c.input_dim)};
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

FrozenModel::FrozenModel(std::unique_ptr<core::SagdfnModel> model,
                         core::AdjacencySnapshot snapshot)
    : model_(std::move(model)), snapshot_(std::move(snapshot)) {}

std::unique_ptr<FrozenModel> FrozenModel::Freeze(
    std::unique_ptr<core::SagdfnModel> model) {
  SAGDFN_CHECK(model != nullptr);
  model->SetTraining(false);
  core::AdjacencySnapshot snapshot = model->Snapshot();
  return std::unique_ptr<FrozenModel>(
      new FrozenModel(std::move(model), std::move(snapshot)));
}

utils::Status FrozenModel::Load(const core::SagdfnConfig& config,
                                const std::string& checkpoint_path,
                                std::unique_ptr<FrozenModel>* out) {
  auto model = std::make_unique<core::SagdfnModel>(config);
  SAGDFN_RETURN_IF_ERROR(nn::LoadModule(model.get(), checkpoint_path));
  *out = Freeze(std::move(model));
  return utils::Status::Ok();
}

utils::Status FrozenModel::Save(const std::string& path) const {
  nn::Checkpoint checkpoint;
  for (const auto& [name, var] : model_->NamedParameters()) {
    checkpoint.tensors.emplace_back(name, var.value());
  }
  for (const auto& [name, buffer] : model_->NamedBuffers()) {
    checkpoint.tensors.emplace_back("buffer:" + name, buffer);
  }
  checkpoint.tensors.emplace_back(kFrozenAs, snapshot_.a_s);
  checkpoint.tensors.emplace_back(kFrozenInvDeg, snapshot_.inv_deg);
  checkpoint.meta.emplace_back(
      kFrozenIndexSet,
      std::vector<uint64_t>(snapshot_.index_set.begin(),
                            snapshot_.index_set.end()));
  checkpoint.meta.emplace_back(kFrozenConfig, ConfigFingerprint(config()));
  return nn::SaveMappedCheckpoint(checkpoint, path);
}

utils::Status FrozenModel::LoadMapped(const core::SagdfnConfig& config,
                                      const std::string& path,
                                      std::unique_ptr<FrozenModel>* out) {
  nn::MappedCheckpoint mapped;
  SAGDFN_RETURN_IF_ERROR(nn::OpenMappedCheckpoint(&mapped, path));

  const std::vector<uint64_t>* fingerprint = mapped.FindMeta(kFrozenConfig);
  if (fingerprint == nullptr) {
    return utils::Status::InvalidArgument(
        "not a frozen-model weight file (no config fingerprint): " + path);
  }
  if (*fingerprint != ConfigFingerprint(config)) {
    return utils::Status::InvalidArgument(
        "weight file was written for a different model configuration: " +
        path);
  }

  auto model = std::make_unique<core::SagdfnModel>(config);
  auto params = model->NamedParameters();
  auto buffers = model->NamedBuffers();
  std::map<std::string, autograd::Variable*> param_by_name;
  for (auto& [name, var] : params) param_by_name.emplace(name, &var);
  std::map<std::string, tensor::Tensor> buffer_by_name;
  for (auto& [name, buffer] : buffers) {
    buffer_by_name.emplace("buffer:" + name, buffer);
  }

  // Two passes so a bad file never leaves a half-bound model: validate
  // every entry against the module first, then bind/copy.
  std::vector<std::pair<autograd::Variable*, const tensor::Tensor*>> binds;
  std::vector<std::pair<tensor::Tensor*, const tensor::Tensor*>> copies;
  std::set<std::string> seen;
  for (const auto& [name, view] : mapped.tensors) {
    if (HasPrefix(name, "__frozen:")) continue;
    if (!seen.insert(name).second) {
      return utils::Status::InvalidArgument(
          "duplicate entry in weight file: " + name);
    }
    if (auto it = buffer_by_name.find(name); it != buffer_by_name.end()) {
      if (!(view.shape() == it->second.shape())) {
        return utils::Status::InvalidArgument(
            "shape mismatch for " + name + ": file " +
            view.shape().ToString() + " vs module " +
            it->second.shape().ToString());
      }
      copies.emplace_back(&it->second, &view);
      continue;
    }
    auto it = param_by_name.find(name);
    if (it == param_by_name.end()) {
      return utils::Status::NotFound("unknown entry in weight file: " +
                                     name);
    }
    if (!(view.shape() == it->second->shape())) {
      return utils::Status::InvalidArgument(
          "shape mismatch for " + name + ": file " +
          view.shape().ToString() + " vs module " +
          it->second->shape().ToString());
    }
    binds.emplace_back(it->second, &view);
  }
  if (seen.size() != param_by_name.size() + buffer_by_name.size()) {
    return utils::Status::InvalidArgument(
        "state count mismatch: weight file has " +
        std::to_string(seen.size()) + " module entries, module has " +
        std::to_string(param_by_name.size() + buffer_by_name.size()));
  }

  const tensor::Tensor* a_s = mapped.FindTensor(kFrozenAs);
  const tensor::Tensor* inv_deg = mapped.FindTensor(kFrozenInvDeg);
  const std::vector<uint64_t>* ids = mapped.FindMeta(kFrozenIndexSet);
  if (a_s == nullptr || inv_deg == nullptr || ids == nullptr) {
    return utils::Status::InvalidArgument(
        "weight file is missing the frozen adjacency snapshot: " + path);
  }
  const int64_t n = config.num_nodes;
  if (a_s->ndim() != 2 || a_s->dim(0) != n || a_s->dim(1) != config.m ||
      inv_deg->size() != n ||
      static_cast<int64_t>(ids->size()) != config.m) {
    return utils::Status::InvalidArgument(
        "frozen snapshot shapes disagree with the configuration: " + path);
  }
  core::AdjacencySnapshot snapshot;
  snapshot.index_set.reserve(ids->size());
  for (uint64_t id : *ids) {
    if (id >= static_cast<uint64_t>(n)) {
      return utils::Status::InvalidArgument(
          "frozen index set references node " + std::to_string(id) +
          " outside [0, " + std::to_string(n) + "): " + path);
    }
    snapshot.index_set.push_back(static_cast<int64_t>(id));
  }

  // Bind: parameters alias the mapping (zero copy — the Variables' nodes
  // rebind their storage to the mapped pages); buffers are tiny mutable
  // state and are copied onto the heap.
  for (auto& [var, view] : binds) var->mutable_value() = *view;
  for (auto& [dst, view] : copies) dst->CopyFrom(*view);
  model->OnStateLoaded();
  model->SetTraining(false);

  // The snapshot tensors alias the mapping too; only the CSR arrays are
  // rebuilt (an O(N*M) scan of mapped a_s — the expensive attention /
  // entmax recomputation the heap path pays is skipped entirely).
  snapshot.a_s = *a_s;
  snapshot.inv_deg = *inv_deg;
  snapshot.csr = std::make_shared<const graph::CsrMatrix>(
      graph::CsrFromDense(snapshot.a_s));

  *out = std::unique_ptr<FrozenModel>(
      new FrozenModel(std::move(model), std::move(snapshot)));
  return utils::Status::Ok();
}

tensor::Tensor FrozenModel::Predict(const tensor::Tensor& x,
                                    const tensor::Tensor& future_tod) const {
  return PlanFor(x.dim(0))->Run(x, future_tod);
}

tensor::Tensor FrozenModel::PredictEager(
    const tensor::Tensor& x, const tensor::Tensor& future_tod) const {
  return model_->Predict(x, future_tod, snapshot_);
}

std::shared_ptr<const core::RolloutPlan> FrozenModel::PlanFor(
    int64_t batch) const {
  return PlanFor(batch, core::PlanKind::kFull);
}

std::shared_ptr<const core::RolloutPlan> FrozenModel::PlanFor(
    int64_t batch, core::PlanKind kind) const {
  // Plan construction (instruction build + dry run) happens under the
  // lock: concurrent first requests for one (batch, kind) build it once,
  // and replays through already-cached plans only pay the map lookup.
  std::lock_guard<std::mutex> lock(plans_mu_);
  const PlanKey key{batch, kind};
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return it->second.first;
  }
  auto plan =
      std::make_shared<const core::RolloutPlan>(*model_, snapshot_, batch,
                                                kind);
  lru_.push_front(key);
  plans_.emplace(key, std::make_pair(plan, lru_.begin()));
  while (static_cast<int64_t>(plans_.size()) > kPlanCacheCapacity) {
    // Evict the least-recently-used entry. Replays already holding the
    // shared_ptr keep the evicted plan alive until they finish.
    plans_.erase(lru_.back());
    lru_.pop_back();
    ++plan_evictions_;
  }
  obs::Telemetry::Global().SetGauge("serve.plan_cache_size",
                                    static_cast<double>(plans_.size()));
  return plan;
}

int64_t FrozenModel::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(plans_mu_);
  return static_cast<int64_t>(plans_.size());
}

int64_t FrozenModel::plan_cache_evictions() const {
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plan_evictions_;
}

}  // namespace sagdfn::serve
