#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "autograd/variable.h"
#include "optim/optimizer.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn::autograd {
namespace {

using tensor::AllClose;
using tensor::Shape;
using tensor::Tensor;

Tensor T(std::vector<float> v, std::initializer_list<int64_t> dims) {
  return Tensor::FromVector(std::move(v), Shape(dims));
}

TEST(AutogradTest, AddBackward) {
  Variable a(T({1, 2}, {2}), true);
  Variable b(T({3, 4}, {2}), true);
  Variable loss = SumAll(Add(a, b));
  loss.Backward();
  EXPECT_TRUE(AllClose(a.grad(), Tensor::Ones(Shape({2}))));
  EXPECT_TRUE(AllClose(b.grad(), Tensor::Ones(Shape({2}))));
}

TEST(AutogradTest, MulBackwardUsesOtherValue) {
  Variable a(T({2, 3}, {2}), true);
  Variable b(T({5, 7}, {2}), true);
  SumAll(Mul(a, b)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({5, 7}, {2})));
  EXPECT_TRUE(AllClose(b.grad(), T({2, 3}, {2})));
}

TEST(AutogradTest, BroadcastBackwardReduces) {
  Variable a(T({1, 2, 3, 4, 5, 6}, {2, 3}), true);
  Variable b(T({10, 20, 30}, {3}), true);
  SumAll(Add(a, b)).Backward();
  EXPECT_EQ(b.grad().shape(), Shape({3}));
  EXPECT_TRUE(AllClose(b.grad(), T({2, 2, 2}, {3})));
}

TEST(AutogradTest, ChainRuleThroughReuse) {
  // y = x * x => dy/dx = 2x (same variable used twice).
  Variable x(T({3}, {1}), true);
  SumAll(Mul(x, x)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // z = (x + x) + (x * x); dz/dx = 2 + 2x = 8 at x=3.
  Variable x(T({3}, {1}), true);
  Variable z = Add(Add(x, x), Mul(x, x));
  SumAll(z).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
}

TEST(AutogradTest, MatMulBackward) {
  Variable a(T({1, 2, 3, 4}, {2, 2}), true);
  Variable b(T({1, 0, 0, 1}, {2, 2}), true);
  SumAll(MatMul(a, b)).Backward();
  // d/dA sum(AB) = ones @ B^T.
  EXPECT_TRUE(AllClose(a.grad(), T({1, 1, 1, 1}, {2, 2})));
  // d/dB sum(AB) = A^T @ ones.
  EXPECT_TRUE(AllClose(b.grad(), T({4, 4, 6, 6}, {2, 2})));
}

TEST(AutogradTest, NoGradWhenNotRequired) {
  Variable a(T({1, 2}, {2}), false);
  Variable b(T({3, 4}, {2}), true);
  Variable out = Mul(a, b);
  SumAll(out).Backward();
  EXPECT_TRUE(AllClose(a.grad(), Tensor::Zeros(Shape({2}))));
  EXPECT_TRUE(AllClose(b.grad(), T({1, 2}, {2})));
}

TEST(AutogradTest, NoGradGuardDisablesTape) {
  Variable a(T({1, 2}, {2}), true);
  Variable out;
  {
    NoGradGuard guard;
    out = Mul(a, a);
  }
  EXPECT_FALSE(out.requires_grad());
}

TEST(AutogradTest, DetachStopsGradient) {
  Variable a(T({2}, {1}), true);
  Variable d = Mul(a, a).Detach();
  Variable out = Mul(d, a);  // only the direct factor contributes
  SumAll(out).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);  // d = 4 constant, d*(da)=4
}

TEST(AutogradTest, ZeroGradClears) {
  Variable a(T({1}, {1}), true);
  SumAll(Mul(a, a)).Backward();
  EXPECT_NE(a.grad()[0], 0.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwards) {
  Variable a(T({1}, {1}), true);
  SumAll(Mul(a, a)).Backward();
  const float g1 = a.grad()[0];
  SumAll(Mul(a, a)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2 * g1);
}

TEST(AutogradTest, SliceConcatRoundTrip) {
  Variable a(T({1, 2, 3, 4}, {4}), true);
  Variable left = Slice(a, 0, 0, 2);
  Variable right = Slice(a, 0, 2, 4);
  Variable back = Concat({right, left}, 0);  // swapped halves
  SumAll(Mul(back, back)).Backward();
  // d/dx sum(x^2) = 2x regardless of the permutation.
  EXPECT_TRUE(AllClose(a.grad(), T({2, 4, 6, 8}, {4})));
}

TEST(AutogradTest, IndexSelectBackwardScatters) {
  Variable a(T({1, 2, 3}, {3}), true);
  Variable s = IndexSelect(a, 0, {0, 0, 2});
  SumAll(s).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({2, 0, 1}, {3})));
}

TEST(AutogradTest, SoftmaxGradientSumsToZero) {
  utils::Rng rng(4);
  Variable a(Tensor::Normal(Shape({5}), rng), true);
  Variable s = Softmax(a, 0);
  // d/dz sum_i w_i p_i has zero sum (softmax Jacobian rows sum to 0).
  Variable w(Tensor::Normal(Shape({5}), rng), false);
  SumAll(Mul(s, w)).Backward();
  float total = 0.0f;
  for (int64_t i = 0; i < 5; ++i) total += a.grad()[i];
  EXPECT_NEAR(total, 0.0f, 1e-5f);
}

TEST(AutogradTest, L1LossValueAndGrad) {
  Variable pred(T({1, 4}, {2}), true);
  Variable target(T({2, 2}, {2}), false);
  Variable loss = L1Loss(pred, target);
  EXPECT_FLOAT_EQ(loss.value().Item(), 1.5f);  // (1 + 2) / 2
  loss.Backward();
  EXPECT_TRUE(AllClose(pred.grad(), T({-0.5f, 0.5f}, {2})));
}

TEST(AutogradTest, MseLossValue) {
  Variable pred(T({1, 4}, {2}), true);
  Variable target(T({2, 2}, {2}), false);
  EXPECT_FLOAT_EQ(MseLoss(pred, target).value().Item(), 2.5f);  // (1+4)/2
}

TEST(AutogradTest, MaskedL1IgnoresMaskedEntries) {
  Variable pred(T({1, 100}, {2}), true);
  Variable target(T({2, 0}, {2}), false);
  tensor::Tensor mask = T({1, 0}, {2});
  Variable loss = MaskedL1Loss(pred, target, mask);
  EXPECT_FLOAT_EQ(loss.value().Item(), 1.0f);
  loss.Backward();
  EXPECT_FLOAT_EQ(pred.grad()[1], 0.0f);
}

TEST(AutogradTest, ExpandBackwardReduces) {
  Variable a(T({1, 2}, {2}), true);
  Variable e = Expand(a, Shape({3, 2}));
  EXPECT_EQ(e.shape(), Shape({3, 2}));
  SumAll(e).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({3, 3}, {2})));
}

TEST(AutogradTest, MaxBackwardRoutesToArgmax) {
  Variable a(T({1, 5, 3}, {3}), true);
  SumAll(Max(a, 0)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({0, 1, 0}, {3})));
}

TEST(AutogradTest, TransposeReshapeBackward) {
  Variable a(T({1, 2, 3, 4, 5, 6}, {2, 3}), true);
  Variable t = Transpose(a, 0, 1);           // [3, 2]
  Variable r = Reshape(t, {6});
  Variable w(T({1, 2, 3, 4, 5, 6}, {6}), false);
  SumAll(Mul(r, w)).Backward();
  // r = [a00,a10,a01,a11,a02,a12]; grads land back transposed.
  EXPECT_TRUE(AllClose(a.grad(), T({1, 3, 5, 2, 4, 6}, {2, 3})));
}

TEST(AutogradTest, StackBackwardSplits) {
  Variable a(T({1, 2}, {2}), true);
  Variable b(T({3, 4}, {2}), true);
  Variable s = Stack({a, b}, 0);  // [2, 2]
  Variable w(T({1, 10, 100, 1000}, {2, 2}), false);
  SumAll(Mul(s, w)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), T({1, 10}, {2})));
  EXPECT_TRUE(AllClose(b.grad(), T({100, 1000}, {2})));
}

// -- Gradient buffer ownership ---------------------------------------------
//
// A pass-through op (same-shape Add, AddScalar, Reshape) hands its own
// gradient to its inputs, so several nodes can hold one buffer. These
// tests pin that no write, in Backward() or through grad(), ever reaches
// another node's gradient.

TEST(AutogradTest, ClipScalesEachAliasedLeafOnce) {
  Variable a(T({1, 2, 3}, {3}), true);
  Variable b(T({4, 5, 6}, {3}), true);
  Variable loss = SumAll(Add(a, b));  // a, b and the Add node share one grad
  loss.Backward();
  const double norm = std::sqrt(6.0);
  const double max_norm = 0.1;
  EXPECT_DOUBLE_EQ(optim::ClipGradNorm({a, b}, max_norm), norm);
  const float scale = static_cast<float>(max_norm / norm);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.grad()[i], 1.0f * scale) << i;
    EXPECT_EQ(b.grad()[i], 1.0f * scale) << i;
  }
}

TEST(AutogradTest, WriteThroughGradStaysPrivate) {
  Variable a(T({1, 2}, {2}), true);
  Variable b(T({3, 4}, {2}), true);
  Variable s = Add(a, b);
  Variable loss = SumAll(s);
  loss.Backward();
  Tensor ga = a.grad();
  ga[0] = 42.0f;
  EXPECT_EQ(a.grad()[0], 42.0f);
  EXPECT_EQ(b.grad()[0], 1.0f);
  EXPECT_EQ(s.grad()[0], 1.0f);
}

TEST(AutogradTest, SecondBackwardOverAliasedGradsDoubles) {
  Variable a(T({1, 2, 3}, {3}), true);
  Variable b(T({4, 5, 6}, {3}), true);
  const Tensor w = T({0.5f, -1.25f, 3.0f}, {3});
  // Both graphs stay alive, so a, b and s1 share one gradient buffer when
  // the second pass starts.
  Variable s1 = Add(a, b);
  Variable loss1 = SumAll(Mul(s1, Variable(w)));
  loss1.Backward();
  Variable s2 = Add(a, b);
  Variable loss2 = SumAll(Mul(s2, Variable(w)));
  loss2.Backward();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.grad()[i], 2.0f * w[i]) << i;
    EXPECT_EQ(b.grad()[i], 2.0f * w[i]) << i;
    EXPECT_EQ(s1.grad()[i], w[i]) << i;
  }
}

TEST(AutogradTest, PassThroughChildKeepsItsGradBytes) {
  // Tape order: Sum's backward reaches x through s = Add(r, c) and
  // r = Reshape(x) first, so x, r and s share one buffer; the Mul
  // branch's contribution then lands on x alone.
  Variable x(T({1, 2, 3, 4, 5, 6}, {2, 3}), true);
  const Tensor w = T({0.25f, -2, 7, 0.5f, -0.0f, 1e-3f}, {2, 3});
  Variable r = Reshape(x, {6});
  Variable s = Add(r, Variable(Tensor::Full(Shape({6}), 3.0f)));
  Variable loss = Add(SumAll(Mul(x, Variable(w))), Sum(s, 0));
  loss.Backward();
  const Tensor ones = Tensor::Ones(Shape({6}));
  EXPECT_EQ(std::memcmp(r.grad().data(), ones.data(), 6 * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(s.grad().data(), ones.data(), 6 * sizeof(float)), 0);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(x.grad()[i], 1.0f + w[i]) << i;
}

/// Pins the dispatch level and the pool size, restoring both afterwards.
class KernelScope {
 public:
  KernelScope(tensor::simd::Level level, int64_t threads)
      : level_(tensor::simd::ActiveLevel()),
        threads_(utils::GetNumThreads()) {
    ok_ = tensor::simd::SetActiveLevel(level);
    utils::SetNumThreads(threads);
  }
  ~KernelScope() {
    tensor::simd::SetActiveLevel(level_);
    utils::SetNumThreads(threads_);
  }
  bool ok() const { return ok_; }

 private:
  tensor::simd::Level level_;
  int64_t threads_;
  bool ok_ = false;
};

/// `fan_in` rows of contributions with NaN, ±inf and ±0 sprinkled in.
/// Each column holds infinities of one sign only: inf + -inf makes a NaN
/// whose payload differs from quiet_NaN's, and which of two NaNs an add
/// returns depends on operand order, which C++ leaves to the compiler.
Tensor Contributions(int64_t fan_in, int64_t n, uint64_t seed) {
  utils::Rng rng(seed);
  Tensor w = Tensor::Normal(Shape({fan_in, n}), rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (int64_t f = 0; f < fan_in; ++f) {
    for (int64_t i = (f + 3) % 5; i < n; i += 5 + f) {
      const float specials[] = {nan, i % 2 == 0 ? inf : -inf, -0.0f, 0.0f};
      w[f * n + i] = specials[(i + f) % 4];
    }
    // A column of -0 in every row keeps -0 + -0 = -0 in play.
    if (n > 1) w[f * n + n - 1] = -0.0f;
  }
  return w;
}

/// The accumulated gradient of leaf `x` after `fan_in` contributions, one
/// per row of `w`: loss = SumAll(w * combine(x, ..., x)), so each
/// contribution is exactly a row of `w`.
Tensor AccumulatedGrad(const Tensor& w, bool stack) {
  const int64_t fan_in = w.dim(0);
  const int64_t n = w.dim(1);
  Variable x(Tensor::Zeros(Shape({n})), true);
  std::vector<Variable> parts(fan_in, x);
  Variable combined = stack ? Stack(parts, 0) : Concat(parts, 0);
  Tensor weights = stack ? w : w.Reshape({fan_in * n});
  SumAll(Mul(combined, Variable(weights))).Backward();
  return x.grad();
}

TEST(AutogradTest, AccumulatedGradMatchesCloneThenAddBytewise) {
  const std::vector<int64_t> lengths = {
      1,    7,    8,    9,    15, 16, 17, 33,
      utils::kElementwiseGrain - 1, utils::kElementwiseGrain,
      utils::kElementwiseGrain + 9, 2 * utils::kElementwiseGrain + 5};
  for (const tensor::simd::Level level :
       {tensor::simd::Level::kScalar, tensor::simd::Level::kAvx2}) {
    for (const int64_t threads : {1, 2, 8}) {
      KernelScope scope(level, threads);
      if (!scope.ok()) continue;  // AVX2 unavailable on this machine
      for (const int64_t fan_in : {1, 2, 3, 13}) {
        for (const int64_t n : lengths) {
          const Tensor w = Contributions(fan_in, n, 100 + fan_in * 7 + n);
          // Concat hands x fresh slices in row order: every later
          // contribution adds in place. Stack routes each row through a
          // Reshape node, last row first: x's first gradient is shared,
          // so the second contribution adds into a fresh buffer.
          for (const bool stack : {false, true}) {
            const int64_t first = stack ? fan_in - 1 : 0;
            Tensor ref =  // Slice copies: the reference's own buffer
                tensor::Slice(w, 0, first, first + 1).Reshape({n});
            for (int64_t step = 1; step < fan_in; ++step) {
              const int64_t row = stack ? fan_in - 1 - step : step;
              const float* src = w.data() + row * n;
              for (int64_t i = 0; i < n; ++i) ref[i] += src[i];
            }
            const Tensor got = AccumulatedGrad(w, stack);
            ASSERT_EQ(got.size(), n);
            EXPECT_EQ(std::memcmp(got.data(), ref.data(), n * sizeof(float)),
                      0)
                << tensor::simd::LevelName(level) << " threads=" << threads
                << " fan_in=" << fan_in << " n=" << n
                << (stack ? " stack" : " concat");
          }
        }
      }
    }
  }
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Variable a(T({1, 2}, {2}), true);
  EXPECT_DEATH(Add(a, a).Backward(), "scalar");
}

TEST(AutogradTest, SetRequiresGradOnNonLeafDies) {
  Variable a(T({1}, {1}), true);
  Variable b = Mul(a, a);
  EXPECT_DEATH(b.set_requires_grad(false), "non-leaf");
}

}  // namespace
}  // namespace sagdfn::autograd
