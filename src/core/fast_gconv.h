#ifndef SAGDFN_CORE_FAST_GCONV_H_
#define SAGDFN_CORE_FAST_GCONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "graph/csr.h"
#include "nn/module.h"

namespace sagdfn::core {

/// Fast graph convolution over the slim adjacency (paper Eq. 9):
///
///   W *_{A_s} X = sum_{j=0}^{J-1} W_j [ (D + I)^{-1} (A_s X_I + X) ]^(j)
///
/// where X is [B, N, C], X_I gathers the M significant-node rows, D is the
/// degree matrix of A_s, and the bracket is applied j times (j = 0 is X
/// itself). Both compute and memory are O(N M) instead of O(N^2).
///
/// Degrees use |A_s| row sums: A_s comes out of a linear head combination
/// and can carry negative entries, and absolute degrees keep (D + I)^{-1}
/// positive and bounded.
class FastGraphConv : public nn::Module {
 public:
  /// `diffusion_steps` is J >= 1 (J = 1 degenerates to a plain linear map).
  FastGraphConv(int64_t in_dim, int64_t out_dim, int64_t diffusion_steps,
                utils::Rng& rng);

  /// `a_s`: [N, M] slim adjacency; `index_set`: the M column node ids;
  /// `x`: [B, N, in_dim]. Returns [B, N, out_dim].
  ///
  /// `inv_deg` optionally supplies the precomputed InverseDegree(a_s)
  /// column; it depends only on `a_s`, so callers that apply several
  /// convolutions (or timesteps) against one adjacency should compute it
  /// once and pass it through instead of paying the reduction per call.
  ///
  /// `csr` optionally supplies graph::CsrFromDense(a_s.value()), the view
  /// every diffusion step walks (core::OneStepFastGConv); when null it is
  /// built here from `a_s`. Like `inv_deg` it depends only on `a_s`, so
  /// callers applying several convolutions against one adjacency build it
  /// once. A shared `csr` must describe this `a_s`.
  autograd::Variable Forward(const autograd::Variable& a_s,
                             const std::vector<int64_t>& index_set,
                             const autograd::Variable& x,
                             const autograd::Variable* inv_deg = nullptr,
                             const std::shared_ptr<const graph::CsrMatrix>&
                                 csr = nullptr) const;

  /// (D + I)^{-1} with D_ii = sum_j |A_s[i, j]|: [N, 1], broadcasts over
  /// batch and channels. Differentiable through `a_s`.
  static autograd::Variable InverseDegree(const autograd::Variable& a_s);

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }
  int64_t diffusion_steps() const { return diffusion_steps_; }

  /// The J diffusion weight matrices [in, out] and the bias [out]; read
  /// by the eval-mode rollout plan (core/rollout_plan) to replay the
  /// convolution without autograd.
  const std::vector<autograd::Variable>& weights() const { return weights_; }
  const autograd::Variable& bias() const { return bias_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  int64_t diffusion_steps_;
  std::vector<autograd::Variable> weights_;  // J matrices [in, out]
  autograd::Variable bias_;                  // [out]
};

/// OneStepFastGConv (paper Eq. 10): a GRU cell whose gate transforms are
/// fast graph convolutions over the slim adjacency:
///
///   R_t = sigmoid(W_r *_{A_s} (X_t ++ H_{t-1}) + b_r)
///   Z_t = sigmoid(W_z *_{A_s} (X_t ++ H_{t-1}) + b_z)
///   Htil = tanh(W_h *_{A_s} (X_t ++ R_t . H_{t-1}) + b_h)
///   H_t = Z_t . H_{t-1} + (1 - Z_t) . Htil
///
/// States are [B, N, hidden]; inputs [B, N, in_dim].
class GConvGruCell : public nn::Module {
 public:
  GConvGruCell(int64_t in_dim, int64_t hidden_dim, int64_t diffusion_steps,
               utils::Rng& rng);

  /// `inv_deg` optionally supplies FastGraphConv::InverseDegree(a_s),
  /// shared by the gate and candidate convolutions; when null it is
  /// computed once per call (still amortized across the two convs).
  /// `csr` optionally supplies graph::CsrFromDense(a_s.value()) the same
  /// way, shared by both convolutions (see FastGraphConv::Forward).
  autograd::Variable Forward(const autograd::Variable& a_s,
                             const std::vector<int64_t>& index_set,
                             const autograd::Variable& x,
                             const autograd::Variable& h,
                             const autograd::Variable* inv_deg = nullptr,
                             const std::shared_ptr<const graph::CsrMatrix>&
                                 csr = nullptr) const;

  /// Zero hidden state [B, N, hidden].
  autograd::Variable InitialState(int64_t batch, int64_t num_nodes) const;

  int64_t hidden_dim() const { return hidden_dim_; }
  int64_t in_dim() const { return in_dim_; }

  /// Gate / candidate convolutions, read by the eval-mode rollout plan.
  const FastGraphConv& gate_conv() const { return *gate_conv_; }
  const FastGraphConv& candidate_conv() const { return *candidate_conv_; }

 private:
  int64_t in_dim_;
  int64_t hidden_dim_;
  std::unique_ptr<FastGraphConv> gate_conv_;       // -> 2H (r | z)
  std::unique_ptr<FastGraphConv> candidate_conv_;  // -> H
};

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_FAST_GCONV_H_
