// Differential tests: every tensor kernel is checked against a
// deliberately naive per-element reference implementation on randomized
// inputs. The production kernels use loop reordering, row decomposition
// (broadcasts and transposes walk merged rows through contiguous
// kernels), and blocked reductions; the references use nothing but index
// arithmetic, so agreement across many random shapes is strong evidence
// of correctness.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/sagdfn.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn::tensor {
namespace {

// -- References ------------------------------------------------------------

float RefAt(const Tensor& t, const std::vector<int64_t>& index) {
  const auto strides = t.shape().Strides();
  int64_t offset = 0;
  for (size_t d = 0; d < index.size(); ++d) offset += index[d] * strides[d];
  return t[offset];
}

/// Broadcast lookup: maps an output index into a (possibly
/// lower-rank / size-1-dim) input.
float RefBroadcastAt(const Tensor& t, const std::vector<int64_t>& out_index,
                     int64_t out_rank) {
  const int64_t rank = t.ndim();
  std::vector<int64_t> index(rank);
  for (int64_t d = 0; d < rank; ++d) {
    const int64_t out_d = out_rank - rank + d;
    index[d] = t.dim(d) == 1 ? 0 : out_index[out_d];
  }
  return RefAt(t, index);
}

Tensor RefBinary(const Tensor& a, const Tensor& b,
                 const std::function<float(float, float)>& op) {
  Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  Tensor out(out_shape);
  const int64_t rank = out_shape.ndim();
  std::vector<int64_t> index(rank, 0);
  for (int64_t flat = 0; flat < out.size(); ++flat) {
    int64_t rem = flat;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[d] = rem % out_shape.dims()[d];
      rem /= out_shape.dims()[d];
    }
    out[flat] = op(RefBroadcastAt(a, index, rank),
                   RefBroadcastAt(b, index, rank));
  }
  return out;
}

/// out[..., j, ..., i, ...] = a[..., i, ..., j, ...] by index arithmetic.
Tensor RefTranspose(const Tensor& a, int64_t axis0, int64_t axis1) {
  std::vector<int64_t> out_dims = a.shape().dims();
  std::swap(out_dims[axis0], out_dims[axis1]);
  Tensor out{Shape(out_dims)};
  const int64_t rank = a.ndim();
  std::vector<int64_t> index(rank, 0);
  for (int64_t flat = 0; flat < out.size(); ++flat) {
    int64_t rem = flat;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[d] = rem % out_dims[d];
      rem /= out_dims[d];
    }
    std::swap(index[axis0], index[axis1]);
    out[flat] = RefAt(a, index);
  }
  return out;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  Tensor out{Shape({m, n})};
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      out[i * n + j] = static_cast<float>(acc);
    }
  }
  return out;
}

Tensor RefSum(const Tensor& a, int64_t axis) {
  const int64_t canon = a.shape().CanonicalAxis(axis);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims.erase(out_dims.begin() + canon);
  Tensor out{Shape(out_dims)};
  const int64_t rank = a.ndim();
  std::vector<int64_t> index(rank, 0);
  for (int64_t flat = 0; flat < a.size(); ++flat) {
    int64_t rem = flat;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[d] = rem % a.shape().dims()[d];
      rem /= a.shape().dims()[d];
    }
    // Output flat index with `canon` removed.
    int64_t out_flat = 0;
    for (int64_t d = 0; d < rank; ++d) {
      if (d == canon) continue;
      out_flat = out_flat * a.shape().dims()[d] + index[d];
    }
    // Note: the multiplier skips the reduced axis dimension.
    out[out_flat] += a[flat];
  }
  return out;
}

// -- Shape generator --------------------------------------------------------

std::vector<int64_t> RandomDims(utils::Rng& rng, int64_t rank) {
  std::vector<int64_t> dims(rank);
  for (auto& d : dims) d = rng.UniformInt(1, 5);
  return dims;
}

// -- Differential suites -----------------------------------------------------

class BinaryOpDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryOpDifferential, MatchesReferenceOnRandomBroadcasts) {
  utils::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t rank = rng.UniformInt(1, 4);
    std::vector<int64_t> dims = RandomDims(rng, rank);
    // Derive a broadcastable partner: randomly drop leading dims and
    // squash random dims to 1.
    std::vector<int64_t> other = dims;
    const int64_t drop = rng.UniformInt(rank + 1);
    other.erase(other.begin(), other.begin() + drop);
    for (auto& d : other) {
      if (rng.Bernoulli(0.4)) d = 1;
    }
    if (other.empty()) other.push_back(1);

    Tensor a = Tensor::Uniform(Shape(dims), rng, 0.5f, 2.0f);
    Tensor b = Tensor::Uniform(Shape(other), rng, 0.5f, 2.0f);

    EXPECT_TRUE(AllClose(Add(a, b),
                         RefBinary(a, b, std::plus<float>()), 1e-5f, 1e-5f))
        << "Add " << a.shape().ToString() << " + " << b.shape().ToString();
    EXPECT_TRUE(AllClose(Sub(b, a),
                         RefBinary(b, a, std::minus<float>()), 1e-5f,
                         1e-5f));
    EXPECT_TRUE(AllClose(Mul(a, b),
                         RefBinary(a, b, std::multiplies<float>()), 1e-5f,
                         1e-4f));
    EXPECT_TRUE(AllClose(Div(a, b),
                         RefBinary(a, b, std::divides<float>()), 1e-5f,
                         1e-4f));
    EXPECT_TRUE(AllClose(
        Maximum(a, b),
        RefBinary(a, b, [](float x, float y) { return std::max(x, y); })));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryOpDifferential,
                         ::testing::Values(101, 102, 103, 104));

// Values that tell operand orders and rounding paths apart: ±0, ±inf,
// denormals, one quiet-NaN payload, and ordinary numbers.
const float kSpecials[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::denorm_min(),
                           -3 * std::numeric_limits<float>::denorm_min(),
                           std::numeric_limits<float>::quiet_NaN(),
                           1.0f,
                           -2.5f};

/// A size-1 operand comes back once per special value; a larger one as
/// random values with specials mixed in.
std::vector<Tensor> SpecialOperands(const Shape& shape, utils::Rng& rng) {
  std::vector<Tensor> out;
  if (shape.NumElements() == 1) {
    for (float v : kSpecials) out.push_back(Tensor::Full(shape, v));
    return out;
  }
  Tensor t = Tensor::Uniform(shape, rng, -4.0f, 4.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (rng.Bernoulli(0.5)) t[i] = kSpecials[rng.UniformInt(9)];
  }
  out.push_back(t);
  return out;
}

// Every broadcast row class, in both operand orders, equals the
// per-element reference byte for byte at both SIMD levels: add, sub, mul
// and div are one IEEE operation per element, and Maximum's row kernels
// keep std::max(a, b) order whichever side is constant along the row.
TEST(BroadcastBytewise, EveryRowClassMatchesReferenceAtBothLevels) {
  using Shapes = std::pair<std::vector<int64_t>, std::vector<int64_t>>;
  const std::vector<Shapes> cases = {
      {{3, 5, 7}, {3, 5, 7}},  // same shape: one dense row
      {{3, 5, 7}, {}},         // rank-0 scalar
      {{3, 5, 7}, {1}},        // rank-1 scalar
      {{7}, {1, 1}},           // rank-promoting [1, 1] scalar
      {{2, 9, 6}, {6}},        // trailing row, [B, N, C] + [C]
      {{9, 1}, {9, 6}},        // column
      {{4, 1, 6}, {4, 5, 6}},  // middle broadcast
      {{1, 5, 6}, {4, 5, 6}},  // leading broadcast
  };
  using Op = Tensor (*)(const Tensor&, const Tensor&);
  const std::vector<std::tuple<const char*, Op,
                               std::function<float(float, float)>>>
      ops = {
          {"Add", Add, std::plus<float>()},
          {"Sub", Sub, std::minus<float>()},
          {"Mul", Mul, std::multiplies<float>()},
          {"Div", Div, std::divides<float>()},
          {"Maximum", Maximum,
           [](float x, float y) { return std::max(x, y); }},
      };
  const simd::Level original = simd::ActiveLevel();
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (!simd::SetActiveLevel(level)) continue;  // no AVX2 here
    utils::Rng rng(601);
    for (const auto& [dims_a, dims_b] : cases) {
      const std::vector<Tensor> as = SpecialOperands(Shape(dims_a), rng);
      const std::vector<Tensor> bs = SpecialOperands(Shape(dims_b), rng);
      for (const Tensor& a : as) {
        for (const Tensor& b : bs) {
          for (const auto& [name, op, ref] : ops) {
            for (bool swap : {false, true}) {
              const Tensor& x = swap ? b : a;
              const Tensor& y = swap ? a : b;
              EXPECT_TRUE(SameBytes(op(x, y), RefBinary(x, y, ref)))
                  << simd::LevelName(level) << " " << name << " "
                  << x.shape().ToString() << " (x[0] = " << x[0] << ") , "
                  << y.shape().ToString() << " (y[0] = " << y[0] << ")";
            }
          }
        }
      }
    }
  }
  simd::SetActiveLevel(original);
}

class MatMulDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatMulDifferential, MatchesReference) {
  utils::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t m = rng.UniformInt(1, 9);
    const int64_t k = rng.UniformInt(1, 9);
    const int64_t n = rng.UniformInt(1, 9);
    Tensor a = Tensor::Normal(Shape({m, k}), rng);
    Tensor b = Tensor::Normal(Shape({k, n}), rng);
    EXPECT_TRUE(AllClose(MatMul(a, b), RefMatMul(a, b), 1e-4f, 1e-4f))
        << m << "x" << k << "x" << n;
  }
}

TEST_P(MatMulDifferential, SparseLhsFastPathCorrect) {
  // The production kernel skips zero entries of A; verify with mostly-zero
  // inputs.
  utils::Rng rng(GetParam() + 50);
  Tensor a = Tensor::Zeros(Shape({6, 7}));
  for (int64_t i = 0; i < a.size(); ++i) {
    if (rng.Bernoulli(0.2)) a[i] = static_cast<float>(rng.Normal());
  }
  Tensor b = Tensor::Normal(Shape({7, 5}), rng);
  EXPECT_TRUE(AllClose(MatMul(a, b), RefMatMul(a, b), 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulDifferential,
                         ::testing::Values(201, 202, 203));

class ReductionDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReductionDifferential, SumMatchesReferenceOnEveryAxis) {
  utils::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t rank = rng.UniformInt(1, 4);
    Tensor a = Tensor::Normal(Shape(RandomDims(rng, rank)), rng);
    for (int64_t axis = 0; axis < rank; ++axis) {
      EXPECT_TRUE(AllClose(Sum(a, axis), RefSum(a, axis), 1e-4f, 1e-4f))
          << a.shape().ToString() << " axis " << axis;
      // keepdim variant reshapes to the same data.
      Tensor kept = Sum(a, axis, true);
      EXPECT_TRUE(AllClose(
          kept.Reshape(RefSum(a, axis).shape().dims()), RefSum(a, axis),
          1e-4f, 1e-4f));
    }
  }
}

TEST_P(ReductionDifferential, MeanIsSumOverCount) {
  utils::Rng rng(GetParam() + 10);
  Tensor a = Tensor::Normal(Shape({3, 5, 2}), rng);
  for (int64_t axis = 0; axis < 3; ++axis) {
    Tensor expected =
        MulScalar(Sum(a, axis), 1.0f / static_cast<float>(a.dim(axis)));
    EXPECT_TRUE(AllClose(Mean(a, axis), expected, 1e-5f, 1e-5f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionDifferential,
                         ::testing::Values(301, 302, 303));

TEST(IndexingDifferential, GatherScatterRoundTrip) {
  utils::Rng rng(401);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = rng.UniformInt(3, 9);
    const int64_t c = rng.UniformInt(1, 4);
    Tensor a = Tensor::Normal(Shape({n, c}), rng);
    // Gather a permutation, scatter it back: identity.
    std::vector<int64_t> perm = rng.Permutation(n);
    Tensor gathered = IndexSelect(a, 0, perm);
    Tensor back = Tensor::Zeros(a.shape());
    IndexAddInto(back, 0, perm, gathered);
    EXPECT_TRUE(AllClose(back, a));
  }
}

TEST(IndexingDifferential, ConcatSliceInverse) {
  utils::Rng rng(402);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t rank = rng.UniformInt(1, 4);
    std::vector<int64_t> dims = RandomDims(rng, rank);
    Tensor a = Tensor::Normal(Shape(dims), rng);
    const int64_t axis = rng.UniformInt(rank);
    const int64_t cut = rng.UniformInt(dims[axis] + 1);
    Tensor left = Slice(a, axis, 0, cut);
    Tensor right = Slice(a, axis, cut, dims[axis]);
    if (cut == 0) {
      EXPECT_TRUE(AllClose(right, a));
    } else if (cut == dims[axis]) {
      EXPECT_TRUE(AllClose(left, a));
    } else {
      EXPECT_TRUE(AllClose(Concat({left, right}, axis), a));
    }
  }
}

TEST(TransposeDifferential, MatchesElementwiseDefinition) {
  // Every axis pair at ranks 1-4, byte for byte. Pairs that leave the
  // last axis in place walk merged contiguous rows; pairs that swap it
  // read the last output dim at its input stride.
  utils::Rng rng(403);
  const std::vector<int64_t> all_dims = {3, 4, 5, 2};
  for (int64_t rank = 1; rank <= 4; ++rank) {
    const std::vector<int64_t> dims(all_dims.begin(),
                                    all_dims.begin() + rank);
    Tensor a = Tensor::Normal(Shape(dims), rng);
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        EXPECT_TRUE(SameBytes(Transpose(a, i, j), RefTranspose(a, i, j)))
            << a.shape().ToString() << " axes (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(ScalarOpDifferential, RSubScalarMatchesSubFromConstant) {
  utils::Rng rng(404);
  Tensor a = Tensor::Normal(Shape({5, 7, 3}), rng);
  Tensor expected = Sub(Tensor::Full(a.shape(), 2.5f), a);
  Tensor got = RSubScalar(a, 2.5f);
  ASSERT_TRUE(got.shape() == expected.shape());
  for (int64_t i = 0; i < got.size(); ++i) {
    EXPECT_FLOAT_EQ(got[i], expected[i]);
  }
}

// -- Thread-count determinism ------------------------------------------------
//
// The parallel kernels promise bit-identical results for every thread
// count: disjoint-write kernels preserve the sequential per-element
// accumulation order, and full reductions use fixed-size blocks combined
// in block order. These tests run each kernel at 1, 2 and 8 threads on
// shapes large enough to engage the pool and require exact equality.

/// Restores the global pool size on scope exit.
class ThreadCountRestorer {
 public:
  ThreadCountRestorer() : previous_(utils::GetNumThreads()) {}
  ~ThreadCountRestorer() { utils::SetNumThreads(previous_); }

 private:
  int64_t previous_;
};

void ExpectBitIdentical(const Tensor& a, const Tensor& b,
                        const char* label) {
  ASSERT_TRUE(a.shape() == b.shape()) << label;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << label << ": results differ across thread counts";
}

constexpr int64_t kThreadCounts[] = {1, 2, 8};

TEST(ThreadCountDeterminism, MatMulBitIdenticalAcrossThreadCounts) {
  ThreadCountRestorer restore;
  utils::Rng rng(501);
  Tensor a = Tensor::Normal(Shape({160, 96}), rng);
  Tensor b = Tensor::Normal(Shape({96, 80}), rng);
  utils::SetNumThreads(1);
  Tensor reference = MatMul(a, b);
  EXPECT_TRUE(AllClose(reference, RefMatMul(a, b), 1e-3f, 1e-3f));
  for (int64_t t : kThreadCounts) {
    utils::SetNumThreads(t);
    ExpectBitIdentical(MatMul(a, b), reference, "MatMul");
  }
}

TEST(ThreadCountDeterminism, BatchedMatMulBitIdenticalAcrossThreadCounts) {
  ThreadCountRestorer restore;
  utils::Rng rng(502);
  Tensor a = Tensor::Normal(Shape({6, 64, 40}), rng);
  Tensor b = Tensor::Normal(Shape({6, 40, 48}), rng);
  Tensor b_shared = Tensor::Normal(Shape({40, 48}), rng);
  Tensor a_shared = Tensor::Normal(Shape({64, 40}), rng);
  utils::SetNumThreads(1);
  Tensor ref_full = BatchedMatMul(a, b);
  Tensor ref_rhs = BatchedMatMul(a, b_shared);
  Tensor ref_lhs = BatchedMatMul(a_shared, b);
  for (int64_t t : kThreadCounts) {
    utils::SetNumThreads(t);
    ExpectBitIdentical(BatchedMatMul(a, b), ref_full, "BatchedMatMul");
    ExpectBitIdentical(BatchedMatMul(a, b_shared), ref_rhs,
                       "BatchedMatMul shared rhs");
    ExpectBitIdentical(BatchedMatMul(a_shared, b), ref_lhs,
                       "BatchedMatMul shared lhs");
  }
}

TEST(ThreadCountDeterminism, ElementwiseAndReductionsBitIdentical) {
  ThreadCountRestorer restore;
  utils::Rng rng(503);
  Tensor a = Tensor::Normal(Shape({16, 96, 64}), rng);
  Tensor b = Tensor::Normal(Shape({16, 96, 64}), rng);
  Tensor col = Tensor::Normal(Shape({96, 1}), rng);  // broadcast operand
  // train-2000's bias add and BatchedMatMul-backward transpose shapes,
  // plus an odd-sized pair. Their rows (18 contiguous elements; 2000 or
  // 1999 read at stride 18) do not divide every thread count's chunk, so
  // chunks start mid-row: [8, 2000, 18] + [18] at 8 threads, the
  // [7, 1999, 18] pair at 2 and 8.
  Tensor act = Tensor::Normal(Shape({8, 2000, 18}), rng);
  Tensor bias = Tensor::Normal(Shape({18}), rng);
  Tensor odd = Tensor::Normal(Shape({7, 1999, 18}), rng);
  utils::SetNumThreads(1);
  Tensor ref_add = Add(a, b);
  Tensor ref_bcast = Mul(a, col);
  Tensor ref_exp = Exp(a);
  Tensor ref_sum0 = Sum(a, 0);
  Tensor ref_sum1 = Sum(a, 1, /*keepdim=*/true);
  Tensor ref_sum2 = Sum(a, 2);
  Tensor ref_max = Max(a, 1);
  Tensor ref_sum_all = SumAll(a);
  Tensor ref_transpose = Transpose(a, 0, 2);
  Tensor ref_bias = Add(act, bias);
  Tensor ref_act_t = Transpose(act, 1, 2);
  Tensor ref_odd_bias = Add(odd, bias);
  Tensor ref_odd_t = Transpose(odd, 1, 2);
  for (int64_t t : kThreadCounts) {
    utils::SetNumThreads(t);
    ExpectBitIdentical(Add(a, b), ref_add, "Add");
    ExpectBitIdentical(Mul(a, col), ref_bcast, "Mul broadcast");
    ExpectBitIdentical(Exp(a), ref_exp, "Exp");
    ExpectBitIdentical(Sum(a, 0), ref_sum0, "Sum axis 0");
    ExpectBitIdentical(Sum(a, 1, true), ref_sum1, "Sum axis 1 keepdim");
    ExpectBitIdentical(Sum(a, 2), ref_sum2, "Sum axis 2");
    ExpectBitIdentical(Max(a, 1), ref_max, "Max axis 1");
    ExpectBitIdentical(SumAll(a), ref_sum_all, "SumAll");
    ExpectBitIdentical(Transpose(a, 0, 2), ref_transpose, "Transpose");
    ExpectBitIdentical(Add(act, bias), ref_bias, "Add trailing row");
    ExpectBitIdentical(Transpose(act, 1, 2), ref_act_t, "Transpose (1, 2)");
    ExpectBitIdentical(Add(odd, bias), ref_odd_bias, "Add odd trailing row");
    ExpectBitIdentical(Transpose(odd, 1, 2), ref_odd_t,
                       "Transpose odd (1, 2)");
  }
}

TEST(ThreadCountDeterminism, GatherScatterBitIdentical) {
  ThreadCountRestorer restore;
  utils::Rng rng(504);
  Tensor a = Tensor::Normal(Shape({4, 512, 24}), rng);
  // Repeated indices exercise the scatter's sequential-axis ordering.
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 64; ++i) indices.push_back((i * 7) % 512);
  Tensor src = Tensor::Normal(Shape({4, 64, 24}), rng);
  utils::SetNumThreads(1);
  Tensor ref_gather = IndexSelect(a, 1, indices);
  Tensor ref_scatter = Tensor::Zeros(a.shape());
  IndexAddInto(ref_scatter, 1, indices, src);
  for (int64_t t : kThreadCounts) {
    utils::SetNumThreads(t);
    ExpectBitIdentical(IndexSelect(a, 1, indices), ref_gather,
                       "IndexSelect");
    Tensor scatter = Tensor::Zeros(a.shape());
    IndexAddInto(scatter, 1, indices, src);
    ExpectBitIdentical(scatter, ref_scatter, "IndexAddInto");
  }
}

// Full-model determinism: one SAGDFN forward + backward must produce
// bit-identical predictions and gradients at every thread count (fresh
// identically-seeded model per run; all sampling is seed-deterministic).
TEST(ThreadCountDeterminism, SagdfnForwardBackwardBitIdentical) {
  ThreadCountRestorer restore;
  core::SagdfnConfig config;
  config.num_nodes = 96;
  config.embedding_dim = 8;
  config.m = 12;
  config.k = 8;
  config.hidden_dim = 24;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.history = 4;
  config.horizon = 4;
  config.seed = 11;

  utils::Rng data_rng(505);
  Tensor x = Tensor::Normal(Shape({2, 4, 96, 2}), data_rng);
  Tensor tod = Tensor::Uniform(Shape({2, 4}), data_rng);
  Tensor target = Tensor::Normal(Shape({2, 4, 96}), data_rng);

  Tensor ref_pred;
  std::vector<std::pair<std::string, Tensor>> ref_grads;
  for (int64_t t : kThreadCounts) {
    utils::SetNumThreads(t);
    core::SagdfnModel model(config);
    autograd::Variable pred = model.Forward(x, tod, /*iteration=*/0);
    autograd::Variable loss = autograd::L1Loss(pred, autograd::Variable(target));
    loss.Backward();
    if (t == 1) {
      ref_pred = pred.value();
      for (auto& [name, param] : model.NamedParameters()) {
        ref_grads.emplace_back(name, param.grad());
      }
      continue;
    }
    ExpectBitIdentical(pred.value(), ref_pred, "SAGDFN forward");
    auto named = model.NamedParameters();
    ASSERT_EQ(named.size(), ref_grads.size());
    for (size_t i = 0; i < named.size(); ++i) {
      ASSERT_EQ(named[i].first, ref_grads[i].first);
      ExpectBitIdentical(named[i].second.grad(), ref_grads[i].second,
                         ("grad " + named[i].first).c_str());
    }
  }
}

}  // namespace
}  // namespace sagdfn::tensor
