#include "core/entmax.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "graph/adjacency.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::core {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

void ExpectSimplex(const Tensor& p, int64_t axis) {
  Tensor sums = tensor::Sum(p, axis);
  for (int64_t i = 0; i < sums.size(); ++i) {
    EXPECT_NEAR(sums[i], 1.0f, 1e-4f);
  }
  EXPECT_GE(tensor::MinAll(p), 0.0f);
}

TEST(EntmaxTest, Alpha1MatchesSoftmax) {
  utils::Rng rng(1);
  Tensor z = Tensor::Normal(Shape({3, 7}), rng);
  Tensor p = EntmaxForward(z, 1.0f, 1);
  EXPECT_TRUE(tensor::AllClose(p, tensor::Softmax(z, 1), 1e-5f, 1e-4f));
}

TEST(EntmaxTest, NearAlpha1ConvergesToSoftmax) {
  utils::Rng rng(2);
  Tensor z = Tensor::Normal(Shape({4, 5}), rng);
  Tensor p = EntmaxForward(z, 1.02f, 1);
  Tensor s = tensor::Softmax(z, 1);
  // Close but not necessarily identical.
  EXPECT_LT(tensor::MaxAll(tensor::Abs(tensor::Sub(p, s))), 0.05f);
}

TEST(EntmaxTest, SparsemaxClosedFormTwoElements) {
  // For alpha=2, two logits (a, b): if a - b >= 1 the output is (1, 0);
  // otherwise ((1 + a - b) / 2, (1 - a + b) / 2).
  Tensor z = Tensor::FromVector({0.6f, 0.2f}, Shape({2}));
  Tensor p = EntmaxForward(z, 2.0f, 0);
  EXPECT_NEAR(p[0], 0.7f, 1e-4f);
  EXPECT_NEAR(p[1], 0.3f, 1e-4f);

  Tensor z2 = Tensor::FromVector({2.0f, 0.0f}, Shape({2}));
  Tensor p2 = EntmaxForward(z2, 2.0f, 0);
  EXPECT_NEAR(p2[0], 1.0f, 1e-4f);
  EXPECT_NEAR(p2[1], 0.0f, 1e-4f);
}

TEST(EntmaxTest, OutputOnSimplexForAllAlphas) {
  utils::Rng rng(3);
  Tensor z = Tensor::Normal(Shape({5, 9}), rng, 0.0f, 2.0f);
  for (float alpha : {1.0f, 1.3f, 1.5f, 2.0f, 2.5f, 3.0f}) {
    Tensor p = EntmaxForward(z, alpha, 1);
    ExpectSimplex(p, 1);
  }
}

TEST(EntmaxTest, SparsityIncreasesWithAlpha) {
  utils::Rng rng(4);
  Tensor z = Tensor::Normal(Shape({20, 30}), rng, 0.0f, 2.0f);
  double prev_sparsity = -1.0;
  for (float alpha : {1.2f, 1.5f, 2.0f, 2.5f}) {
    Tensor p = EntmaxForward(z, alpha, 1);
    const double sparsity = graph::Sparsity(p);
    EXPECT_GE(sparsity, prev_sparsity);
    prev_sparsity = sparsity;
  }
  // Softmax is fully dense.
  EXPECT_DOUBLE_EQ(graph::Sparsity(EntmaxForward(z, 1.0f, 1)), 0.0);
  // Alpha=2.5 on spread logits produces real sparsity.
  EXPECT_GT(prev_sparsity, 0.3);
}

TEST(EntmaxTest, ShiftInvariance) {
  utils::Rng rng(5);
  Tensor z = Tensor::Normal(Shape({2, 6}), rng);
  Tensor shifted = tensor::AddScalar(z, 7.5f);
  for (float alpha : {1.5f, 2.0f}) {
    EXPECT_TRUE(tensor::AllClose(EntmaxForward(z, alpha, 1),
                                 EntmaxForward(shifted, alpha, 1), 1e-4f,
                                 1e-3f));
  }
}

TEST(EntmaxTest, PreservesOrdering) {
  Tensor z = Tensor::FromVector({3, 1, 2, 0}, Shape({4}));
  Tensor p = EntmaxForward(z, 1.5f, 0);
  EXPECT_GT(p[0], p[2]);
  EXPECT_GE(p[2], p[1]);
  EXPECT_GE(p[1], p[3]);
}

TEST(EntmaxTest, WinnerTakesAllForLargeGap) {
  Tensor z = Tensor::FromVector({10, 0, 0, 0}, Shape({4}));
  Tensor p = EntmaxForward(z, 2.0f, 0);
  EXPECT_NEAR(p[0], 1.0f, 1e-4f);
}

TEST(EntmaxTest, AxisSelection) {
  utils::Rng rng(6);
  Tensor z = Tensor::Normal(Shape({3, 4, 2}), rng);
  Tensor p1 = EntmaxForward(z, 1.7f, 1);
  ExpectSimplex(p1, 1);
  Tensor p2 = EntmaxForward(z, 1.7f, 2);
  ExpectSimplex(p2, 2);
  // Axis -2 aliases axis 1.
  EXPECT_TRUE(tensor::AllClose(EntmaxForward(z, 1.7f, -2), p1));
}

TEST(EntmaxTest, BackwardMatchesFiniteDifferences) {
  utils::Rng rng(7);
  for (float alpha : {1.3f, 1.5f, 2.0f}) {
    Tensor z = Tensor::Normal(Shape({3, 5}), rng, 0.0f, 0.8f);
    Tensor w = Tensor::Normal(Shape({3, 5}), rng);
    std::string error;
    EXPECT_TRUE(ag::CheckGradients(
        [&](const std::vector<ag::Variable>& v) {
          return ag::SumAll(
              ag::Mul(Entmax(v[0], alpha, 1), ag::Variable(w)));
        },
        {z}, &error))
        << "alpha=" << alpha << ": " << error;
  }
}

TEST(EntmaxTest, BackwardZeroOffSupport) {
  // Gradient w.r.t. logits of pruned entries must be zero.
  Tensor z = Tensor::FromVector({5, 0, -5}, Shape({3}));
  ag::Variable v(z, true);
  ag::Variable p = Entmax(v, 2.0f, 0);
  EXPECT_NEAR(p.value()[2], 0.0f, 1e-5f);
  ag::SumAll(ag::Mul(p, p)).Backward();
  EXPECT_FLOAT_EQ(v.grad()[2], 0.0f);
}

TEST(EntmaxTest, GradientSumsToZero) {
  // Like softmax, entmax gradients sum to zero along the normalized axis
  // (the simplex constraint).
  utils::Rng rng(8);
  Tensor z = Tensor::Normal(Shape({6}), rng);
  Tensor w = Tensor::Normal(Shape({6}), rng);
  ag::Variable v(z, true);
  ag::SumAll(ag::Mul(Entmax(v, 1.5f, 0), ag::Variable(w))).Backward();
  float total = 0.0f;
  for (int64_t i = 0; i < 6; ++i) total += v.grad()[i];
  EXPECT_NEAR(total, 0.0f, 1e-4f);
}

TEST(EntmaxTest, BackwardStridedAxis3d) {
  // axis=1 of a rank-3 tensor: the AxisView walks strided (non-contiguous)
  // vectors — the layout SSMA uses when sparsifying [N, M, 2] scores
  // along M. Covers both a mid-range alpha and one just above the
  // softmax-fallback boundary (alpha - 1 >= 1e-4, entmax.cc's
  // kSoftmaxEpsilon), where the bisection exponent 1/(alpha-1) is large.
  utils::Rng rng(9);
  for (float alpha : {1.7f, 1.01f}) {
    Tensor z = Tensor::Normal(Shape({2, 4, 3}), rng, 0.0f, 0.8f);
    Tensor w = Tensor::Normal(Shape({2, 4, 3}), rng);
    std::string error;
    EXPECT_TRUE(ag::CheckGradients(
        [&](const std::vector<ag::Variable>& v) {
          return ag::SumAll(
              ag::Mul(Entmax(v[0], alpha, 1), ag::Variable(w)));
        },
        {z}, &error))
        << "alpha=" << alpha << ": " << error;
  }
}

TEST(EntmaxTest, SoftmaxBoundaryContinuity) {
  // alpha within kSoftmaxEpsilon (1e-4) of 1.0 short-circuits to the
  // closed-form softmax; just above it the bisection solver takes over.
  // The two paths must agree at the boundary (entmax is continuous in
  // alpha) and the bisection output must still be a simplex.
  utils::Rng rng(10);
  Tensor z = Tensor::Normal(Shape({3, 4, 5}), rng);
  Tensor s = tensor::Softmax(z, 1);
  Tensor inside = EntmaxForward(z, 1.0f + 0.5e-4f, 1);  // fast path
  EXPECT_TRUE(tensor::AllClose(inside, s, 1e-6f, 1e-6f));
  Tensor above = EntmaxForward(z, 1.0f + 4e-4f, 1);  // bisection path
  ExpectSimplex(above, 1);
  EXPECT_LT(tensor::MaxAll(tensor::Abs(tensor::Sub(above, s))), 5e-3f);
}

// Property: EntmaxForward lands on the probability simplex for random
// shapes, every axis, across the alpha range — including the strided
// (axis != last) paths on rank-3/4 tensors.
TEST(EntmaxTest, SimplexOnRandomShapesAllAxes) {
  utils::Rng rng(11);
  const std::vector<Shape> shapes = {Shape({7}), Shape({4, 6}),
                                     Shape({3, 5, 4}),
                                     Shape({2, 3, 4, 3})};
  for (const Shape& shape : shapes) {
    Tensor z = Tensor::Normal(shape, rng, 0.0f, 1.5f);
    for (int64_t axis = 0; axis < shape.ndim(); ++axis) {
      for (float alpha : {1.2f, 1.5f, 2.0f, 3.0f}) {
        Tensor p = EntmaxForward(z, alpha, axis);
        ExpectSimplex(p, axis);
        EXPECT_FALSE(tensor::HasNonFinite(p));
      }
    }
  }
}

TEST(EntmaxTest, InvalidAlphaDies) {
  Tensor z = Tensor::Ones(Shape({3}));
  EXPECT_DEATH(EntmaxForward(z, 0.5f, 0), "alpha");
  EXPECT_DEATH(EntmaxForward(z, 5.0f, 0), "alpha");
}

// Property: simplex + sparsity-monotonicity across alpha / shape sweeps.
// gtest names each case after the raw bytes of its parameter, so the
// padding after `alpha` is an explicit zero field: left uninitialised it
// made the test names change from build to build.
struct EntmaxCase {
  EntmaxCase(float a, int64_t r, int64_t c) : alpha(a), rows(r), cols(c) {}
  float alpha;
  int32_t pad = 0;
  int64_t rows;
  int64_t cols;
};
static_assert(sizeof(EntmaxCase) == 24, "EntmaxCase must have no padding");

class EntmaxProperty : public ::testing::TestWithParam<EntmaxCase> {};

TEST_P(EntmaxProperty, SimplexInvariant) {
  const auto& c = GetParam();
  utils::Rng rng(17 + static_cast<uint64_t>(c.alpha * 10));
  Tensor z = Tensor::Normal(Shape({c.rows, c.cols}), rng, 0.0f, 1.5f);
  Tensor p = EntmaxForward(z, c.alpha, 1);
  ExpectSimplex(p, 1);
  EXPECT_FALSE(tensor::HasNonFinite(p));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EntmaxProperty,
    ::testing::Values(EntmaxCase{1.0f, 2, 3}, EntmaxCase{1.25f, 5, 8},
                      EntmaxCase{1.5f, 1, 20}, EntmaxCase{1.75f, 8, 2},
                      EntmaxCase{2.0f, 6, 6}, EntmaxCase{2.5f, 3, 11},
                      EntmaxCase{3.5f, 4, 4}));

}  // namespace
}  // namespace sagdfn::core
