#include "optim/optimizer.h"

#include <cmath>

#include "tensor/simd.h"
#include "utils/block_reduce.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace sagdfn::optim {

Optimizer::Optimizer(std::vector<autograd::Variable> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  SAGDFN_CHECK(!params_.empty()) << "optimizer needs parameters";
  for (const auto& p : params_) {
    SAGDFN_CHECK(p.requires_grad()) << "optimizer over non-trainable var";
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<autograd::Variable> params, double lr, double momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) {
    velocity_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void Sgd::Step() {
  const float lr = static_cast<float>(lr_);
  const float mu = static_cast<float>(momentum_);
  for (size_t i = 0; i < params_.size(); ++i) {
    tensor::Tensor grad = params_[i].grad();
    float* w = params_[i].mutable_value().data();
    float* v = velocity_[i].data();
    const float* g = grad.data();
    const int64_t n = grad.size();
    for (int64_t e = 0; e < n; ++e) {
      v[e] = mu * v[e] + g[e];
      w[e] -= lr * v[e];
    }
  }
}

Adam::Adam(std::vector<autograd::Variable> params, double lr, double beta1,
           double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(tensor::Tensor::Zeros(p.shape()));
    v_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void Adam::Step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, step_count_);
  const double bias2 = 1.0 - std::pow(beta2_, step_count_);
  const float lr = static_cast<float>(lr_);
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);
  const float eps = static_cast<float>(eps_);
  const float wd = static_cast<float>(weight_decay_);
  const float inv_bias1 = static_cast<float>(1.0 / bias1);
  const float inv_bias2 = static_cast<float>(1.0 / bias2);

  for (size_t i = 0; i < params_.size(); ++i) {
    tensor::Tensor grad = params_[i].grad();
    float* w = params_[i].mutable_value().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const float* g = grad.data();
    const int64_t n = grad.size();
    for (int64_t e = 0; e < n; ++e) {
      const float ge = g[e] + wd * w[e];
      m[e] = b1 * m[e] + (1.0f - b1) * ge;
      v[e] = b2 * v[e] + (1.0f - b2) * ge * ge;
      const float m_hat = m[e] * inv_bias1;
      const float v_hat = v[e] * inv_bias2;
      w[e] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
}

void Adam::set_step_count(int64_t step_count) {
  SAGDFN_CHECK_GE(step_count, 0);
  step_count_ = step_count;
}

double ClipGradNorm(const std::vector<autograd::Variable>& params,
                    double max_norm) {
  SAGDFN_CHECK_GT(max_norm, 0.0);
  // Per-parameter squared norms use the same fixed-block reduction as
  // SumAll and the masked metrics (utils/block_reduce.h): previously this
  // was a hand-rolled sequential sum with its own grouping, which could
  // drift from the other reductions when the kernel layer changed.
  const auto dot = tensor::simd::K().dot;
  double sq = 0.0;
  for (const auto& p : params) {
    tensor::Tensor g = p.grad();
    const float* pg = g.data();
    sq += utils::DeterministicBlockReduce<double>(
        g.size(), 0.0,
        [&](int64_t lo, int64_t hi) { return dot(pg + lo, pg + lo, hi - lo); },
        [](double& acc, double partial) { acc += partial; });
  }
  const double norm = std::sqrt(sq);
  // A NaN/Inf norm means some gradient is non-finite; rescaling would
  // spread NaN (or zeros, for max_norm/Inf) into every parameter. Leave
  // the gradients as-is and report the norm for the caller's guard.
  if (!std::isfinite(norm)) return norm;
  if (norm > max_norm) {
    // norm > max_norm > 0, so the division is well-conditioned.
    const float scale = static_cast<float>(max_norm / norm);
    const auto scale_k = tensor::simd::K().scale;
    for (const auto& p : params) {
      // grad() returns a handle to the stored gradient, made private to
      // this parameter first, so scaling through it updates the
      // optimizer-visible gradient and no other node's.
      tensor::Tensor g = p.grad();
      float* pg = g.data();
      utils::ParallelFor(0, g.size(), utils::kElementwiseGrain,
                         [&](int64_t i0, int64_t i1) {
                           scale_k(pg + i0, scale, i1 - i0);
                         });
    }
  }
  return norm;
}

}  // namespace sagdfn::optim
