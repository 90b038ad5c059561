// Differential coverage for the CSR diffusion path against the dense
// slim kernels: the scale-tier contract is byte equality, not closeness
// — forward outputs AND all gradients must memcmp-match the dense path
// at awkward node counts (odd, prime, shard-boundary-straddling), and
// the sparse generators must reproduce the dense generators bit for bit
// at any size where both fit.
#include "graph/csr.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/fused_ops.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace sagdfn::graph {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<int64_t> Iota(int64_t m) {
  std::vector<int64_t> v(m);
  for (int64_t i = 0; i < m; ++i) v[i] = i;
  return v;
}

// A slim-style [n, k] adjacency with ~`density` nonzero entries (the
// rest exactly 0.0f, which is what the dense kernel skips).
Tensor SparseSlim(int64_t n, int64_t k, double density, utils::Rng& rng) {
  Tensor a = Tensor::Zeros(Shape({n, k}));
  float* p = a.data();
  for (int64_t i = 0; i < n * k; ++i) {
    if (rng.Uniform() < density) {
      p[i] = static_cast<float>(rng.Uniform(0.05, 1.0));
    }
  }
  return a;
}

TEST(CsrMatrixTest, DenseRoundTrip) {
  utils::Rng rng(1);
  Tensor dense = SparseSlim(13, 7, 0.3, rng);
  CsrMatrix csr = CsrFromDense(dense);
  ValidateCsr(csr);
  EXPECT_TRUE(SameBytes(CsrToDense(csr), dense));
}

TEST(CsrMatrixTest, RowNormalizeMatchesDensePath) {
  utils::Rng rng(2);
  SpatialGraph g = RandomGeometric(60, 0.25, 0.18, rng);
  CsrMatrix a = RowNormalizeCsr(CsrFromDense(g.adjacency));
  CsrMatrix b = CsrFromDense(RowNormalize(g.adjacency));
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col, b.col);
  EXPECT_EQ(a.val, b.val);  // exact float equality is the contract
}

TEST(NodeShardsTest, PartitionInvariants) {
  for (int64_t n : {1, 7, 8, 9, 57, 101, 1000}) {
    for (int64_t target : {64, 4096, 256 * 1024}) {
      NodeShards shards = ComputeNodeShards(n, 16, target);
      ASSERT_GE(shards.count(), 1);
      EXPECT_EQ(shards.begin(0), 0);
      EXPECT_EQ(shards.end(shards.count() - 1), n);
      for (int64_t s = 0; s < shards.count(); ++s) {
        EXPECT_LT(shards.begin(s), shards.end(s));
        if (s + 1 < shards.count()) {
          EXPECT_EQ(shards.end(s), shards.begin(s + 1));
          EXPECT_EQ((shards.end(s) - shards.begin(s)) % 8, 0)
              << "non-terminal shards are multiples of 8 rows";
        }
      }
    }
  }
}

TEST(CsrKernelTest, ForwardMatchesDenseAtAwkwardSizes) {
  utils::Rng rng(3);
  // Odd, prime, and shard-straddling node counts; k likewise awkward.
  const int64_t kCases[][2] = {{7, 3}, {13, 13}, {101, 5}, {130, 17}};
  for (const auto& c : kCases) {
    const int64_t n = c[0], k = c[1], batch = 2, ch = 3;
    Tensor a = SparseSlim(n, k, 0.4, rng);
    Tensor term = Tensor::Normal(Shape({batch, n, ch}), rng);
    Tensor inv = Tensor::Uniform(Shape({n, 1}), rng);
    std::vector<int64_t> index_set(k);
    for (int64_t j = 0; j < k; ++j) index_set[j] = (j * 7 + 1) % n;

    Tensor want = Tensor::Zeros(Shape({batch, n, ch}));
    core::OneStepFastGConvInto(a.data(), term.data(), inv.data(), index_set,
                               batch, n, ch, want.data());

    CsrMatrix csr = CsrFromDense(a);
    // A tiny shard target forces many 8-row shards (the last one short),
    // exercising boundary straddling; the full-size target gives one
    // shard. Both must be bit-identical to dense.
    for (int64_t target : {64, 256 * 1024}) {
      NodeShards shards = ComputeNodeShards(
          n, ch * static_cast<int64_t>(sizeof(float)), target);
      Tensor got = Tensor::Zeros(Shape({batch, n, ch}));
      core::OneStepFastGConvCsrInto(csr, term.data(), inv.data(), index_set,
                                    shards, batch, n, ch, got.data());
      EXPECT_TRUE(SameBytes(got, want))
          << "n=" << n << " k=" << k << " target=" << target;
    }
  }
}

/// The loop the diffusion gathers replaced: copy the self row, one
/// K().axpy per nonzero a_s entry (j ascending), then the degree scale.
Tensor DiffusionAxpyReference(const Tensor& a, const Tensor& term,
                              const Tensor& inv,
                              const std::vector<int64_t>& index_set,
                              int64_t batch, int64_t n, int64_t c) {
  const auto& kern = tensor::simd::K();
  const int64_t k = static_cast<int64_t>(index_set.size());
  Tensor out = Tensor::Zeros(Shape({batch, n, c}));
  for (int64_t b = 0; b < batch; ++b) {
    const float* t_base = term.data() + b * n * c;
    for (int64_t i = 0; i < n; ++i) {
      float* row = out.data() + (b * n + i) * c;
      std::memcpy(row, t_base + i * c, sizeof(float) * c);
      for (int64_t j = 0; j < k; ++j) {
        const float av = a.data()[i * k + j];
        if (av != 0.0f) kern.axpy(av, t_base + index_set[j] * c, row, c);
      }
      kern.scale(row, inv.data()[i], c);
    }
  }
  return out;
}

// Dense and CSR diffusion run the axpy_rows macro-kernel; at every level
// both must equal the axpy loop they replaced byte for byte. k = 300
// spans two staged row-pointer chunks; c = 34 is the serve model's
// gate-conv width (input + hidden), c = 5 a tail-only width.
TEST(CsrKernelTest, DiffusionMatchesAxpyLoopBytewise) {
  namespace simd = ::sagdfn::tensor::simd;
  const simd::Level previous = simd::ActiveLevel();
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  for (simd::Level level : levels) {
    ASSERT_TRUE(simd::SetActiveLevel(level));
    for (int64_t k : {20, 300}) {
      for (int64_t c : {34, 5}) {
        const int64_t n = 41, batch = 2;
        utils::Rng rng(static_cast<uint64_t>(10 * k + c));
        Tensor a = SparseSlim(n, k, 0.5, rng);
        Tensor term = Tensor::Normal(Shape({batch, n, c}), rng);
        Tensor inv = Tensor::Uniform(Shape({n, 1}), rng);
        std::vector<int64_t> index_set(k);
        for (int64_t j = 0; j < k; ++j) index_set[j] = (j * 7 + 3) % n;
        const Tensor want =
            DiffusionAxpyReference(a, term, inv, index_set, batch, n, c);
        const std::string where = std::string(simd::LevelName(level)) +
                                  " k=" + std::to_string(k) +
                                  " c=" + std::to_string(c);

        Tensor dense = Tensor::Zeros(Shape({batch, n, c}));
        core::OneStepFastGConvInto(a.data(), term.data(), inv.data(),
                                   index_set, batch, n, c, dense.data());
        EXPECT_TRUE(SameBytes(dense, want)) << "dense " << where;

        const CsrMatrix csr = CsrFromDense(a);
        const NodeShards shards = ComputeNodeShards(
            n, c * static_cast<int64_t>(sizeof(float)), 64);
        Tensor sparse = Tensor::Zeros(Shape({batch, n, c}));
        core::OneStepFastGConvCsrInto(csr, term.data(), inv.data(), index_set,
                                      shards, batch, n, c, sparse.data());
        EXPECT_TRUE(SameBytes(sparse, want)) << "csr " << where;
      }
    }
  }
  simd::SetActiveLevel(previous);
}

TEST(CsrKernelTest, AutogradForwardAndGradientsMatchDense) {
  utils::Rng rng(4);
  const int64_t n = 29, k = 11, batch = 3, ch = 4;
  Tensor a0 = SparseSlim(n, k, 0.35, rng);
  Tensor t0 = Tensor::Normal(Shape({batch, n, ch}), rng);
  Tensor i0 = Tensor::Uniform(Shape({n, 1}), rng);
  std::vector<int64_t> index_set(k);
  for (int64_t j = 0; j < k; ++j) index_set[j] = (j * 5 + 2) % n;

  // Two independent graphs over identical values.
  ag::Variable ad(a0.Clone(), true), td(t0.Clone(), true),
      id(i0.Clone(), true);
  ag::Variable ac(a0.Clone(), true), tc(t0.Clone(), true),
      ic(i0.Clone(), true);

  ag::Variable yd = core::OneStepFastGConv(ad, td, index_set, id);
  auto csr = std::make_shared<const CsrMatrix>(CsrFromDense(a0));
  ag::Variable yc = core::OneStepFastGConvCsr(ac, csr, tc, index_set, ic);
  ASSERT_TRUE(SameBytes(yc.value(), yd.value()));

  ag::MeanAll(yd).Backward();
  ag::MeanAll(yc).Backward();
  EXPECT_TRUE(SameBytes(ac.grad(), ad.grad()));
  EXPECT_TRUE(SameBytes(tc.grad(), td.grad()));
  EXPECT_TRUE(SameBytes(ic.grad(), id.grad()));
}

TEST(SparseGeneratorTest, RandomGeometricSparseMatchesDense) {
  utils::Rng rng_dense(7), rng_sparse(7);
  SpatialGraph dense = RandomGeometric(200, 0.15, 0.1, rng_dense);
  SparseSpatialGraph sparse =
      RandomGeometricSparse(200, 0.15, 0.1, rng_sparse);
  EXPECT_EQ(sparse.x, dense.x);
  EXPECT_EQ(sparse.y, dense.y);
  CsrMatrix want = CsrFromDense(dense.adjacency);
  ValidateCsr(sparse.adjacency);
  EXPECT_EQ(sparse.adjacency.row_ptr, want.row_ptr);
  EXPECT_EQ(sparse.adjacency.col, want.col);
  EXPECT_EQ(sparse.adjacency.val, want.val);
  EXPECT_GT(sparse.adjacency.nnz(), 0);
  // The two rngs must also leave off at the same point.
  EXPECT_EQ(rng_sparse.Uniform(), rng_dense.Uniform());
}

TEST(SparseGeneratorTest, TrafficSparseMatchesDense) {
  data::TrafficOptions options;
  options.num_nodes = 80;
  options.num_days = 2;
  options.steps_per_day = 48;
  options.radius = 0.2;
  options.kernel_sigma = 0.14;
  options.seed = 9;

  SpatialGraph latent_dense;
  SparseSpatialGraph latent_sparse;
  data::TimeSeries dense = data::GenerateTraffic(options, &latent_dense);
  data::TimeSeries sparse =
      data::GenerateTrafficSparse(options, &latent_sparse);
  EXPECT_TRUE(SameBytes(sparse.values, dense.values));
  CsrMatrix want = CsrFromDense(latent_dense.adjacency);
  EXPECT_EQ(latent_sparse.adjacency.col, want.col);
  EXPECT_EQ(latent_sparse.adjacency.val, want.val);
}

TEST(TopKOverlapCsrTest, PerfectAndDisjointRecovery) {
  utils::Rng rng(11);
  SpatialGraph g = RandomGeometric(40, 0.3, 0.2, rng);
  CsrMatrix latent = CsrFromDense(g.adjacency);
  ASSERT_GT(latent.nnz(), 0);
  // The latent graph "learned" perfectly: overlap is exactly 1.
  EXPECT_DOUBLE_EQ(
      TopKOverlapCsr(latent, CsrToDense(latent), Iota(40), 5), 1.0);
  // An empty slim matrix recovers nothing on rows that have neighbors.
  const double none =
      TopKOverlapCsr(latent, Tensor::Zeros(Shape({40, 40})), Iota(40), 5);
  EXPECT_LT(none, 0.5);
}

}  // namespace
}  // namespace sagdfn::graph
