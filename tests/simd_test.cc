// The SIMD determinism contract (DESIGN.md §5f), pinned:
//   1. kernel-level scalar-vs-avx2 equivalence at awkward lengths
//      (length 1, vector-width +/- 1, odd strides through tensor views);
//   2. per-level thread-count determinism — memcmp-identical outputs for
//      1, 2, 4 threads at a FIXED dispatch level;
//   3. full-model forward+backward agreement across levels to tolerance;
//   4. fused ops (OneStepFastGConv, GruBlend) against their composed
//      reference chains, plus finite-difference gradients;
//   5. ScratchArena reuse/reset/high-water semantics;
//   6. DeterministicBlockReduce correctness and the kReduceBlock pin.
#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "core/fused_ops.h"
#include "core/sagdfn.h"
#include "tensor/tensor_ops.h"
#include "utils/arena.h"
#include "utils/block_reduce.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn {
namespace {

namespace ag = ::sagdfn::autograd;
namespace simd = ::sagdfn::tensor::simd;
using tensor::Shape;
using tensor::Tensor;

// Lengths straddling every lane boundary the AVX2 kernels care about.
const std::vector<int64_t> kAwkwardLengths = {1,  2,  3,  7,   8,    9,
                                              15, 16, 17, 31,  32,   33,
                                              100, 255, 1000, 1023, 16400};

/// RAII pin of the dispatch level (restores the previous level).
class LevelScope {
 public:
  explicit LevelScope(simd::Level level) : previous_(simd::ActiveLevel()) {
    ok_ = simd::SetActiveLevel(level);
  }
  ~LevelScope() { simd::SetActiveLevel(previous_); }
  bool ok() const { return ok_; }

 private:
  simd::Level previous_;
  bool ok_ = false;
};

class ThreadScope {
 public:
  explicit ThreadScope(int64_t n) : previous_(utils::GetNumThreads()) {
    utils::SetNumThreads(n);
  }
  ~ThreadScope() { utils::SetNumThreads(previous_); }

 private:
  int64_t previous_;
};

bool SkipWithoutAvx2() {
  if (!simd::Avx2Available()) {
    GTEST_LOG_(INFO) << "AVX2 unavailable; cross-level checks degenerate";
    return true;
  }
  return false;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed, float lo = -4.0f,
                             float hi = 4.0f) {
  utils::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = lo + (hi - lo) * rng.Uniform();
  return v;
}

void ExpectClose(const float* a, const float* b, int64_t n, double atol,
                 double rtol, const char* what) {
  for (int64_t i = 0; i < n; ++i) {
    const double diff = std::fabs(double(a[i]) - double(b[i]));
    EXPECT_LE(diff, atol + rtol * std::fabs(double(b[i])))
        << what << " at i=" << i << " n=" << n << ": " << a[i] << " vs "
        << b[i];
    if (testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// 1. Kernel-level scalar-vs-avx2 equivalence
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, DispatchReportsALevel) {
  const simd::Level level = simd::ActiveLevel();
  EXPECT_TRUE(level == simd::Level::kScalar || level == simd::Level::kAvx2);
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  // KernelsFor never returns a null entry.
  EXPECT_NE(simd::KernelsFor(level).add, nullptr);
  EXPECT_NE(simd::KernelsFor(level).masked_err, nullptr);
}

TEST(SimdKernelTest, LevelFromStringParsesOverrides) {
  EXPECT_EQ(simd::LevelFromString("off"), simd::Level::kScalar);
  EXPECT_EQ(simd::LevelFromString("scalar"), simd::Level::kScalar);
  if (simd::Avx2Available()) {
    EXPECT_EQ(simd::LevelFromString("avx2"), simd::Level::kAvx2);
  }
  // auto / unknown fall back to detection; must not crash.
  simd::LevelFromString("auto");
  simd::LevelFromString("bogus");
}

TEST(SimdKernelTest, SetActiveLevelRoundTrips) {
  const simd::Level original = simd::ActiveLevel();
  ASSERT_TRUE(simd::SetActiveLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_EQ(&simd::K(), &simd::KernelsFor(simd::Level::kScalar));
  if (simd::Avx2Available()) {
    ASSERT_TRUE(simd::SetActiveLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
  }
  simd::SetActiveLevel(original);
}

TEST(SimdKernelTest, BinaryKernelsMatchScalarExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  using BinVV = void (*)(const float*, const float*, float*, int64_t);
  const std::vector<std::pair<BinVV, BinVV>> pairs = {
      {sc.add, vx.add}, {sc.sub, vx.sub}, {sc.mul, vx.mul},
      {sc.div, vx.div}, {sc.vmax, vx.vmax}, {sc.vmin, vx.vmin},
  };
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 100 + n);
    const auto b = RandomVec(n, 200 + n, 0.5f, 4.0f);  // nonzero divisor
    std::vector<float> o1(n), o2(n);
    for (const auto& [ks, kv] : pairs) {
      ks(a.data(), b.data(), o1.data(), n);
      kv(a.data(), b.data(), o2.data(), n);
      // +,-,*,/,min,max are single IEEE operations: bit-identical.
      EXPECT_EQ(0, std::memcmp(o1.data(), o2.data(), sizeof(float) * n))
          << "binary kernel mismatch at n=" << n;
    }
  }
}

TEST(SimdKernelTest, ScalarOperandKernelsMatchExactly) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  using BinVS = void (*)(const float*, float, float*, int64_t);
  const std::vector<std::pair<BinVS, BinVS>> pairs = {
      {sc.add_s, vx.add_s},   {sc.sub_s, vx.sub_s},
      {sc.rsub_s, vx.rsub_s}, {sc.mul_s, vx.mul_s},
      {sc.div_s, vx.div_s},   {sc.rdiv_s, vx.rdiv_s},
      {sc.max_s, vx.max_s},   {sc.min_s, vx.min_s},
  };
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 300 + n, 0.5f, 4.0f);
    std::vector<float> o1(n), o2(n);
    for (const auto& [ks, kv] : pairs) {
      ks(a.data(), 1.75f, o1.data(), n);
      kv(a.data(), 1.75f, o2.data(), n);
      EXPECT_EQ(0, std::memcmp(o1.data(), o2.data(), sizeof(float) * n))
          << "scalar-operand kernel mismatch at n=" << n;
    }
  }
}

TEST(SimdKernelTest, UnaryKernelsMatchWithinTolerance) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 400 + n, -6.0f, 6.0f);
    std::vector<float> o1(n), o2(n);

    // neg/abs/relu are sign-bit games: exact.
    using UnK = void (*)(const float*, float*, int64_t);
    for (auto [ks, kv] : std::vector<std::pair<UnK, UnK>>{
             {sc.neg, vx.neg}, {sc.vabs, vx.vabs}, {sc.relu, vx.relu}}) {
      ks(a.data(), o1.data(), n);
      kv(a.data(), o2.data(), n);
      EXPECT_EQ(0, std::memcmp(o1.data(), o2.data(), sizeof(float) * n));
    }
    // sqrt is IEEE-correctly-rounded in both: exact.
    const auto pos = RandomVec(n, 500 + n, 0.0f, 10.0f);
    sc.vsqrt(pos.data(), o1.data(), n);
    vx.vsqrt(pos.data(), o2.data(), n);
    EXPECT_EQ(0, std::memcmp(o1.data(), o2.data(), sizeof(float) * n));

    // Polynomial exp vs libm: relative tolerance; sigmoid/tanh are
    // bounded, so absolute tolerance dominates.
    sc.vexp(a.data(), o1.data(), n);
    vx.vexp(a.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 3e-7, "exp");
    sc.sigmoid(a.data(), o1.data(), n);
    vx.sigmoid(a.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "sigmoid");
    sc.vtanh(a.data(), o1.data(), n);
    vx.vtanh(a.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 3e-7, 1e-6, "tanh");
  }
}

TEST(SimdKernelTest, ExpEdgeCases) {
  if (SkipWithoutAvx2()) return;
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Out-of-range inputs in every lane position.
  std::vector<float> in = {200.0f, -200.0f, inf,  -inf,
                           nan,    0.0f,    1.0f, -1.0f};
  std::vector<float> out(in.size());
  vx.vexp(in.data(), out.data(), static_cast<int64_t>(in.size()));
  EXPECT_TRUE(std::isinf(out[0]) && out[0] > 0);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_TRUE(std::isinf(out[2]) && out[2] > 0);
  EXPECT_EQ(out[3], 0.0f);
  EXPECT_TRUE(std::isnan(out[4]));
  EXPECT_EQ(out[5], 1.0f);
  // Saturated sigmoid/tanh stay exact at the rails.
  std::vector<float> big = {100.0f, -100.0f, 30.0f, -30.0f};
  std::vector<float> s(big.size()), t(big.size());
  vx.sigmoid(big.data(), s.data(), 4);
  vx.vtanh(big.data(), t.data(), 4);
  EXPECT_EQ(s[0], 1.0f);
  EXPECT_LE(s[1], 1e-40f);  // sigmoid(-100) = exp(-100), a denormal
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(t[1], -1.0f);
}

TEST(SimdKernelTest, GradAndFusedKernelsMatchWithinTolerance) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto g = RandomVec(n, 600 + n);
    const auto a = RandomVec(n, 700 + n);
    const auto b = RandomVec(n, 800 + n);
    const auto z = RandomVec(n, 900 + n, 0.0f, 1.0f);
    std::vector<float> o1(n), o2(n);

    sc.sigmoid_grad(g.data(), z.data(), o1.data(), n);
    vx.sigmoid_grad(g.data(), z.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "sigmoid_grad");

    sc.tanh_grad(g.data(), z.data(), o1.data(), n);
    vx.tanh_grad(g.data(), z.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "tanh_grad");

    sc.relu_grad(g.data(), a.data(), o1.data(), n);
    vx.relu_grad(g.data(), a.data(), o2.data(), n);
    EXPECT_EQ(0, std::memcmp(o1.data(), o2.data(), sizeof(float) * n));

    sc.mul_sub(g.data(), a.data(), b.data(), o1.data(), n);
    vx.mul_sub(g.data(), a.data(), b.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "mul_sub");

    sc.mul_one_minus(g.data(), z.data(), o1.data(), n);
    vx.mul_one_minus(g.data(), z.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "mul_one_minus");

    sc.gru_blend(z.data(), a.data(), b.data(), o1.data(), n);
    vx.gru_blend(z.data(), a.data(), b.data(), o2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "gru_blend");

    // axpy / scale: FMA contraction only.
    std::vector<float> d1 = b, d2 = b;
    sc.axpy(0.37f, a.data(), d1.data(), n);
    vx.axpy(0.37f, a.data(), d2.data(), n);
    ExpectClose(d2.data(), d1.data(), n, 1e-6, 1e-6, "axpy");
    sc.scale(d1.data(), 1.21f, n);
    vx.scale(d2.data(), 1.21f, n);
    ExpectClose(d2.data(), d1.data(), n, 1e-6, 1e-6, "scale");
  }
}

/// The levels this binary can run: scalar always, AVX2 when available.
std::vector<simd::Level> RunnableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

// axpy_rows is a macro-kernel over the loop it replaced: at each level it
// must equal, byte for byte, one call of that level's axpy per nonzero
// coefficient in ascending order — zero-skip of both signed zeros,
// denormal coefficients, NaN/inf in the rows and a -0 start included.
// Splitting the columns at an odd j must not change a byte either (the
// AVX2 body's lane/tail boundary moves with the call's start).
TEST(SimdKernelTest, AxpyRowsMatchesAxpyLoopBytewise) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  for (simd::Level level : RunnableLevels()) {
    const simd::Kernels& kern = simd::KernelsFor(level);
    for (int64_t n : {1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65, 130}) {
      for (int64_t count : {0, 1, 20, 34, 256}) {
        // Rows live in one table with a padded stride and are referenced
        // out of order (with repeats), as the diffusion gather does.
        const int64_t stride = n + 3;
        const int64_t table_rows = std::max<int64_t>(1, count);
        std::vector<float> table =
            RandomVec(table_rows * stride, 7000 + 31 * n + count);
        std::vector<float> coef = RandomVec(count, 7100 + n + count, -2, 2);
        std::vector<const float*> rows(count);
        for (int64_t e = 0; e < count; ++e) {
          rows[e] = table.data() + ((e * 7 + 3) % table_rows) * stride;
          if (e % 5 == 0) coef[e] = 0.0f;
          if (e % 7 == 1) coef[e] = -0.0f;
          if (e % 11 == 2) coef[e] = denorm;
          if (e % 13 == 3) coef[e] = -3.0f * denorm;
        }
        // Non-finite row entries in a few columns only, so most columns
        // stay finite; rows behind a zero coefficient carry them too.
        table[(5 % table_rows) * stride + n / 2] =
            std::numeric_limits<float>::quiet_NaN();
        table[(3 % table_rows) * stride + (n - 1)] = inf;
        table[(table_rows - 1) * stride] = -inf;

        std::vector<float> want(n, -0.0f);
        for (int64_t e = 0; e < count; ++e) {
          if (coef[e] != 0.0f) kern.axpy(coef[e], rows[e], want.data(), n);
        }
        std::vector<float> got(n, -0.0f);
        kern.axpy_rows(coef.data(), rows.data(), count, got.data(), n);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(), sizeof(float) * n))
            << simd::LevelName(level) << " n=" << n << " count=" << count;

        for (int64_t j : {1, 7, 9, 33}) {
          if (j >= n) continue;
          std::vector<const float*> shifted(count);
          for (int64_t e = 0; e < count; ++e) shifted[e] = rows[e] + j;
          std::vector<float> split(n, -0.0f);
          kern.axpy_rows(coef.data(), rows.data(), count, split.data(), j);
          kern.axpy_rows(coef.data(), shifted.data(), count, split.data() + j,
                         n - j);
          ASSERT_EQ(0,
                    std::memcmp(split.data(), want.data(), sizeof(float) * n))
              << simd::LevelName(level) << " n=" << n << " count=" << count
              << " split at " << j;
        }
      }
    }
  }
}

TEST(SimdKernelTest, ReductionsMatchWithinTolerance) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 1000 + n);
    const auto b = RandomVec(n, 1100 + n);
    const double rel = 1e-12 * n + 1e-10;
    EXPECT_NEAR(sc.sum(a.data(), n), vx.sum(a.data(), n),
                rel * (1.0 + std::fabs(sc.sum(a.data(), n))));
    EXPECT_NEAR(sc.dot(a.data(), b.data(), n), vx.dot(a.data(), b.data(), n),
                rel * (1.0 + std::fabs(sc.dot(a.data(), b.data(), n))));
  }
}

TEST(SimdKernelTest, MaskedErrMatchesScalarSemantics) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    auto pred = RandomVec(n, 1200 + n, 0.0f, 10.0f);
    auto truth = RandomVec(n, 1300 + n, 0.0f, 10.0f);
    // Sprinkle missing readings (exact zeros) and sub-floor magnitudes.
    for (int64_t i = 0; i < n; i += 3) truth[i] = 0.0f;
    for (int64_t i = 1; i < n; i += 5) truth[i] = 1e-4f;
    const auto s = sc.masked_err(pred.data(), truth.data(), n, 1e-3);
    const auto v = vx.masked_err(pred.data(), truth.data(), n, 1e-3);
    EXPECT_EQ(s.count, v.count) << "n=" << n;
    EXPECT_EQ(s.ape_count, v.ape_count) << "n=" << n;
    EXPECT_NEAR(s.abs, v.abs, 1e-9 * (1.0 + s.abs));
    EXPECT_NEAR(s.sq, v.sq, 1e-9 * (1.0 + s.sq));
    EXPECT_NEAR(s.ape, v.ape, 1e-9 * (1.0 + s.ape));
  }
}

TEST(SimdKernelTest, MaskedErrNanTruthFollowsScalarConvention) {
  if (SkipWithoutAvx2()) return;
  // NaN truth: included in count (NaN != 0) but excluded from MAPE —
  // exactly what the scalar branches do.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> pred = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  std::vector<float> truth = {nan, 0.0f, 2.0f, nan, 1.0f};
  const auto s = simd::KernelsFor(simd::Level::kScalar)
                     .masked_err(pred.data(), truth.data(), 5, 1e-3);
  const auto v = simd::KernelsFor(simd::Level::kAvx2)
                     .masked_err(pred.data(), truth.data(), 5, 1e-3);
  EXPECT_EQ(s.count, 4);  // the zero is skipped, NaNs are not
  EXPECT_EQ(s.ape_count, 2);
  EXPECT_EQ(v.count, s.count);
  EXPECT_EQ(v.ape_count, s.ape_count);
  EXPECT_TRUE(std::isnan(v.abs));
  EXPECT_TRUE(std::isnan(s.abs));
  EXPECT_NEAR(v.ape, s.ape, 1e-12);
}

/// Random values with NaN of both signs and ±0 sprinkled in.
std::vector<float> NanAndZeroVec(int64_t n, uint64_t seed) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan, -nan, 0.0f, -0.0f};
  auto v = RandomVec(n, seed);
  utils::Rng rng(seed + 1);
  for (auto& x : v) {
    if (rng.Bernoulli(0.5)) x = specials[rng.UniformInt(4)];
  }
  return v;
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(SimdKernelTest, MaxMinFollowStdMaxMinOnNanAndSignedZero) {
  // vmax/vmin/max_s/min_s answer std::max(a, b) / std::min(a, b) exactly,
  // at every level and wherever an element falls in the call's range —
  // the order Maximum/Minimum's general-broadcast fallback uses.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  using BinVV = void (*)(const float*, const float*, float*, int64_t);
  using BinVS = void (*)(const float*, float, float*, int64_t);
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level == simd::Level::kAvx2 && !simd::Avx2Available()) continue;
    const auto& k = simd::KernelsFor(level);
    for (int64_t n : kAwkwardLengths) {
      const auto a = NanAndZeroVec(n, 1400 + n);
      const auto b = NanAndZeroVec(n, 1500 + n);
      const int64_t split = (n / 2) | 1;  // odd, off the lane grid
      std::vector<float> o(n), parts(n);
      for (auto [kernel, is_max] :
           std::vector<std::pair<BinVV, bool>>{{k.vmax, true},
                                               {k.vmin, false}}) {
        kernel(a.data(), b.data(), o.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          const float want =
              is_max ? std::max(a[i], b[i]) : std::min(a[i], b[i]);
          ASSERT_TRUE(SameBits(o[i], want))
              << simd::LevelName(level) << (is_max ? " vmax" : " vmin")
              << " n=" << n << " i=" << i << ": " << a[i] << ", " << b[i]
              << " -> " << o[i];
        }
        kernel(a.data(), b.data(), parts.data(), split);
        kernel(a.data() + split, b.data() + split, parts.data() + split,
               n - split);
        EXPECT_EQ(0, std::memcmp(o.data(), parts.data(), sizeof(float) * n));
      }
      for (float s : {nan, -nan, 0.0f, -0.0f, 1.5f}) {
        for (auto [kernel, is_max] :
             std::vector<std::pair<BinVS, bool>>{{k.max_s, true},
                                                 {k.min_s, false}}) {
          kernel(a.data(), s, o.data(), n);
          for (int64_t i = 0; i < n; ++i) {
            const float want = is_max ? std::max(a[i], s) : std::min(a[i], s);
            ASSERT_TRUE(SameBits(o[i], want))
                << simd::LevelName(level) << (is_max ? " max_s" : " min_s")
                << " n=" << n << " i=" << i << ": " << a[i] << ", " << s
                << " -> " << o[i];
          }
          kernel(a.data(), s, parts.data(), split);
          kernel(a.data() + split, s, parts.data() + split, n - split);
          EXPECT_EQ(0,
                    std::memcmp(o.data(), parts.data(), sizeof(float) * n));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Tensor-op equivalence across levels (broadcast and odometer paths)
// ---------------------------------------------------------------------------

TEST(SimdTensorOpTest, BroadcastPathsAgreeAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  utils::Rng rng(21);
  Tensor a = Tensor::Normal(Shape({3, 5, 7}), rng);
  Tensor row = Tensor::Normal(Shape({7}), rng);        // odometer path
  Tensor col = Tensor::Normal(Shape({5, 1}), rng);     // odometer path
  Tensor scalar = Tensor::Scalar(1.5f);                // scalar fast path
  for (auto make : {+[](const Tensor& x, const Tensor& y) {
                      return tensor::Add(x, y);
                    },
                    +[](const Tensor& x, const Tensor& y) {
                      return tensor::Mul(x, y);
                    },
                    +[](const Tensor& x, const Tensor& y) {
                      return tensor::Sub(x, y);
                    }}) {
    for (const Tensor* rhs : {&row, &col, &scalar}) {
      Tensor r_scalar, r_avx2;
      {
        LevelScope scope(simd::Level::kScalar);
        r_scalar = make(a, *rhs);
      }
      {
        LevelScope scope(simd::Level::kAvx2);
        r_avx2 = make(a, *rhs);
      }
      EXPECT_EQ(0, std::memcmp(r_scalar.data(), r_avx2.data(),
                               sizeof(float) * r_scalar.size()));
    }
  }
}

TEST(SimdTensorOpTest, SlicedViewsFeedKernelsCorrectly) {
  if (SkipWithoutAvx2()) return;
  // Slice/Transpose produce odd-length, shifted-base buffers — awkward
  // alignments for 8-lane kernels.
  utils::Rng rng(22);
  Tensor a = Tensor::Normal(Shape({4, 9, 5}), rng);
  Tensor sliced = tensor::Slice(a, 1, 2, 9);     // length-7 axis
  Tensor transposed = tensor::Transpose(a, 0, 2);
  Tensor r1, r2;
  {
    LevelScope scope(simd::Level::kScalar);
    r1 = tensor::Mul(sliced, sliced);
    r2 = tensor::Sigmoid(transposed);
  }
  Tensor q1, q2;
  {
    LevelScope scope(simd::Level::kAvx2);
    q1 = tensor::Mul(sliced, sliced);
    q2 = tensor::Sigmoid(transposed);
  }
  EXPECT_EQ(0, std::memcmp(r1.data(), q1.data(), sizeof(float) * r1.size()));
  EXPECT_TRUE(tensor::AllClose(q2, r2, 1e-6f, 1e-6f));
}

TEST(SimdTensorOpTest, MatMulAgreesAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  utils::Rng rng(23);
  Tensor a = Tensor::Normal(Shape({17, 33}), rng);
  Tensor b = Tensor::Normal(Shape({33, 9}), rng);
  Tensor r1, r2;
  {
    LevelScope scope(simd::Level::kScalar);
    r1 = tensor::MatMul(a, b);
  }
  {
    LevelScope scope(simd::Level::kAvx2);
    r2 = tensor::MatMul(a, b);
  }
  EXPECT_TRUE(tensor::AllClose(r2, r1, 1e-5f, 1e-5f));
}

// ---------------------------------------------------------------------------
// 3. Thread-count determinism at a fixed level
// ---------------------------------------------------------------------------

Tensor ModelLossGrads(int64_t threads, std::vector<Tensor>* grads) {
  ThreadScope tscope(threads);
  core::SagdfnConfig config;
  config.num_nodes = 40;
  config.embedding_dim = 8;
  config.m = 10;
  config.k = 8;
  config.hidden_dim = 8;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.history = 4;
  config.horizon = 4;
  config.seed = 7;
  core::SagdfnModel model(config);
  utils::Rng rng(31);
  Tensor x = Tensor::Normal(Shape({2, 4, 40, 2}), rng);
  Tensor tod = Tensor::Uniform(Shape({2, 4}), rng);
  ag::Variable pred = model.Forward(x, tod, 0);
  ag::Variable loss = ag::MeanAll(ag::Abs(pred));
  loss.Backward();
  if (grads != nullptr) {
    grads->clear();
    for (const auto& p : model.Parameters()) grads->push_back(p.grad());
  }
  return loss.value();
}

void ExpectThreadCountDeterminism() {
  std::vector<Tensor> g1, g2, g4;
  Tensor l1 = ModelLossGrads(1, &g1);
  Tensor l2 = ModelLossGrads(2, &g2);
  Tensor l4 = ModelLossGrads(4, &g4);
  EXPECT_EQ(0, std::memcmp(l1.data(), l2.data(), sizeof(float)));
  EXPECT_EQ(0, std::memcmp(l1.data(), l4.data(), sizeof(float)));
  ASSERT_EQ(g1.size(), g2.size());
  ASSERT_EQ(g1.size(), g4.size());
  for (size_t i = 0; i < g1.size(); ++i) {
    ASSERT_EQ(g1[i].size(), g2[i].size());
    EXPECT_EQ(0, std::memcmp(g1[i].data(), g2[i].data(),
                             sizeof(float) * g1[i].size()))
        << "grad " << i << " differs between 1 and 2 threads";
    EXPECT_EQ(0, std::memcmp(g1[i].data(), g4[i].data(),
                             sizeof(float) * g1[i].size()))
        << "grad " << i << " differs between 1 and 4 threads";
  }
}

TEST(SimdDeterminismTest, ScalarLevelBitIdenticalAcrossThreadCounts) {
  LevelScope scope(simd::Level::kScalar);
  ASSERT_TRUE(scope.ok());
  ExpectThreadCountDeterminism();
}

TEST(SimdDeterminismTest, Avx2LevelBitIdenticalAcrossThreadCounts) {
  if (SkipWithoutAvx2()) return;
  LevelScope scope(simd::Level::kAvx2);
  ASSERT_TRUE(scope.ok());
  ExpectThreadCountDeterminism();
}

// ---------------------------------------------------------------------------
// 4. Full-model forward+backward agreement across levels
// ---------------------------------------------------------------------------

TEST(SimdDeterminismTest, FullModelForwardBackwardAgreesAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  std::vector<Tensor> g_scalar, g_avx2;
  Tensor l_scalar, l_avx2;
  {
    LevelScope scope(simd::Level::kScalar);
    l_scalar = ModelLossGrads(0, &g_scalar);
  }
  {
    LevelScope scope(simd::Level::kAvx2);
    l_avx2 = ModelLossGrads(0, &g_avx2);
  }
  EXPECT_NEAR(l_scalar.Item(), l_avx2.Item(),
              1e-5 * (1.0 + std::fabs(l_scalar.Item())));
  ASSERT_EQ(g_scalar.size(), g_avx2.size());
  for (size_t i = 0; i < g_scalar.size(); ++i) {
    EXPECT_TRUE(
        tensor::AllClose(g_avx2[i], g_scalar[i], 1e-4f, 1e-3f))
        << "grad " << i << " diverges across levels";
  }
}

// ---------------------------------------------------------------------------
// 5. Fused ops vs composed reference
// ---------------------------------------------------------------------------

std::vector<int64_t> ShuffledIndices(int64_t n, int64_t k, uint64_t seed) {
  utils::Rng rng(seed);
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(all[i], all[rng.UniformInt(0, i + 1)]);
  }
  all.resize(k);
  return all;
}

ag::Variable ComposedGconvStep(const ag::Variable& a_s,
                               const ag::Variable& term,
                               const std::vector<int64_t>& idx,
                               const ag::Variable& inv) {
  ag::Variable gathered = ag::IndexSelect(term, 1, idx);
  ag::Variable mixed = ag::Add(ag::BatchedMatMul(a_s, gathered), term);
  return ag::Mul(mixed, inv);
}

TEST(FusedOpsTest, OneStepFastGConvMatchesComposedChain) {
  utils::Rng rng(41);
  const int64_t n = 11, k = 5, c = 7, batch = 3;
  const auto idx = ShuffledIndices(n, k, 42);
  ag::Variable a_s(Tensor::Uniform(Shape({n, k}), rng), true);
  ag::Variable term(Tensor::Normal(Shape({batch, n, c}), rng), true);
  ag::Variable inv(Tensor::Uniform(Shape({n, 1}), rng), true);

  Tensor fused = core::OneStepFastGConv(a_s, term, idx, inv).value();
  Tensor composed = ComposedGconvStep(a_s, term, idx, inv).value();
  EXPECT_TRUE(tensor::AllClose(fused, composed, 1e-5f, 1e-5f));
}

TEST(FusedOpsTest, OneStepFastGConvBackwardMatchesComposedChain) {
  utils::Rng rng(43);
  const int64_t n = 9, k = 4, c = 5, batch = 2;
  const auto idx = ShuffledIndices(n, k, 44);
  Tensor a0 = Tensor::Uniform(Shape({n, k}), rng);
  Tensor t0 = Tensor::Normal(Shape({batch, n, c}), rng);
  Tensor i0 = Tensor::Uniform(Shape({n, 1}), rng);

  auto run = [&](bool fused) {
    ag::Variable a_s(a0.Clone(), true);
    ag::Variable term(t0.Clone(), true);
    ag::Variable inv(i0.Clone(), true);
    ag::Variable out = fused
                           ? core::OneStepFastGConv(a_s, term, idx, inv)
                           : ComposedGconvStep(a_s, term, idx, inv);
    ag::MeanAll(ag::Mul(out, out)).Backward();
    return std::vector<Tensor>{a_s.grad(), term.grad(), inv.grad()};
  };
  const auto gf = run(true);
  const auto gc = run(false);
  for (size_t i = 0; i < gf.size(); ++i) {
    EXPECT_TRUE(tensor::AllClose(gf[i], gc[i], 1e-5f, 1e-4f))
        << "fused grad " << i << " diverges from composed reference";
  }
}

TEST(FusedOpsTest, OneStepFastGConvRepeatedIndicesAccumulate) {
  // idx may hit the same node twice (sampling with replacement); the
  // scatter must accumulate, not overwrite.
  utils::Rng rng(45);
  const int64_t n = 6, c = 3, batch = 2;
  const std::vector<int64_t> idx = {2, 2, 4};
  Tensor a0 = Tensor::Uniform(Shape({n, 3}), rng);
  Tensor t0 = Tensor::Normal(Shape({batch, n, c}), rng);
  Tensor i0 = Tensor::Uniform(Shape({n, 1}), rng);
  ag::Variable a_f(a0.Clone(), true), t_f(t0.Clone(), true),
      i_f(i0.Clone(), true);
  ag::MeanAll(core::OneStepFastGConv(a_f, t_f, idx, i_f)).Backward();
  ag::Variable a_c(a0.Clone(), true), t_c(t0.Clone(), true),
      i_c(i0.Clone(), true);
  ag::MeanAll(ComposedGconvStep(a_c, t_c, idx, i_c)).Backward();
  EXPECT_TRUE(tensor::AllClose(t_f.grad(), t_c.grad(), 1e-6f, 1e-5f));
  EXPECT_TRUE(tensor::AllClose(a_f.grad(), a_c.grad(), 1e-6f, 1e-5f));
}

TEST(FusedOpsTest, OneStepFastGConvPassesGradCheck) {
  const int64_t n = 5, k = 3, c = 2, batch = 2;
  const std::vector<int64_t> idx = {4, 0, 2};
  utils::Rng rng(46);
  std::vector<Tensor> inputs = {
      Tensor::Uniform(Shape({n, k}), rng),
      Tensor::Normal(Shape({batch, n, c}), rng),
      // Keep inv away from zero: d_inv recomputes mixed as out / inv.
      tensor::AddScalar(Tensor::Uniform(Shape({n, 1}), rng), 0.5f),
  };
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [&](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(
            ag::Mul(core::OneStepFastGConv(v[0], v[1], idx, v[2]),
                    core::OneStepFastGConv(v[0], v[1], idx, v[2])));
      },
      inputs, &error))
      << error;
}

TEST(FusedOpsTest, GruBlendMatchesComposedChain) {
  utils::Rng rng(47);
  const Shape shape({2, 9, 5});
  Tensor z0 = Tensor::Uniform(shape, rng);
  Tensor h0 = Tensor::Normal(shape, rng);
  Tensor c0 = Tensor::Normal(shape, rng);

  auto run = [&](bool fused) {
    ag::Variable z(z0.Clone(), true);
    ag::Variable h(h0.Clone(), true);
    ag::Variable c(c0.Clone(), true);
    ag::Variable out =
        fused ? core::GruBlend(z, h, c)
              : ag::Add(ag::Mul(z, h),
                        ag::Mul(ag::RSubScalar(z, 1.0f), c));
    ag::MeanAll(ag::Mul(out, out)).Backward();
    return std::vector<Tensor>{out.value(), z.grad(), h.grad(), c.grad()};
  };
  const auto f = run(true);
  const auto r = run(false);
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_TRUE(tensor::AllClose(f[i], r[i], 1e-6f, 1e-5f)) << "tensor " << i;
  }
}

TEST(FusedOpsTest, GruBlendPassesGradCheck) {
  utils::Rng rng(48);
  const Shape shape({2, 3, 4});
  std::vector<Tensor> inputs = {Tensor::Uniform(shape, rng),
                                Tensor::Normal(shape, rng),
                                Tensor::Normal(shape, rng)};
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(
            ag::Mul(core::GruBlend(v[0], v[1], v[2]),
                    core::GruBlend(v[0], v[1], v[2])));
      },
      inputs, &error))
      << error;
}

TEST(SimdKernelTest, GruStepFusedKernelsMatchAcrossLevels) {
  if (SkipWithoutAvx2()) return;
  const auto& sc = simd::KernelsFor(simd::Level::kScalar);
  const auto& vx = simd::KernelsFor(simd::Level::kAvx2);
  for (int64_t n : kAwkwardLengths) {
    const auto a = RandomVec(n, 1600 + n);
    const auto b = RandomVec(n, 1700 + n);
    const auto h = RandomVec(n, 1800 + n);
    const auto g = RandomVec(n, 1900 + n);
    const auto z = RandomVec(n, 2000 + n, 0.02f, 0.98f);
    const auto t = RandomVec(n, 2100 + n, -0.98f, 0.98f);
    const auto xi = RandomVec(3 * n, 2200 + n);
    const auto hh = RandomVec(3 * n, 2300 + n);
    std::vector<float> o1(n), o2(n), r1(n), r2(n), z1(n), z2(n), t1(n),
        t2(n);

    // Forward kernels contain sigma / tanh: the AVX2 polynomials agree to
    // tolerance with libm, and the auxiliary activation outputs must too.
    sc.sigmoid_mul(a.data(), b.data(), o1.data(), r1.data(), n);
    vx.sigmoid_mul(a.data(), b.data(), o2.data(), r2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "sigmoid_mul");
    ExpectClose(r2.data(), r1.data(), n, 1e-6, 1e-6, "sigmoid_mul r_out");

    sc.gru_tail(a.data(), h.data(), b.data(), o1.data(), z1.data(),
                t1.data(), n);
    vx.gru_tail(a.data(), h.data(), b.data(), o2.data(), z2.data(),
                t2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "gru_tail");
    ExpectClose(z2.data(), z1.data(), n, 1e-6, 1e-6, "gru_tail z_out");
    ExpectClose(t2.data(), t1.data(), n, 1e-6, 1e-6, "gru_tail t_out");

    std::vector<float> s1(3 * n), s2(3 * n), w1(3 * n), w2(3 * n);
    sc.gru_step(xi.data(), hh.data(), h.data(), o1.data(), r1.data(),
                z1.data(), t1.data(), n);
    vx.gru_step(xi.data(), hh.data(), h.data(), o2.data(), r2.data(),
                z2.data(), t2.data(), n);
    ExpectClose(o2.data(), o1.data(), n, 1e-6, 1e-6, "gru_step");
    ExpectClose(r2.data(), r1.data(), n, 1e-6, 1e-6, "gru_step r_out");
    ExpectClose(z2.data(), z1.data(), n, 1e-6, 1e-6, "gru_step z_out");
    ExpectClose(t2.data(), t1.data(), n, 1e-6, 1e-6, "gru_step n_out");

    // Backward kernels are arithmetic-only; levels agree to tight
    // tolerance (the compiler may contract scalar `1 - t*t` into an fma,
    // so bitwise equality is only guaranteed WITHIN a level — see the
    // offset-independence test below).
    std::vector<float> dg1(n), dg2(n), dh1(n), dh2(n), dc1(n), dc2(n);
    sc.sigmoid_mul_grad(g.data(), z.data(), h.data(), dg1.data(),
                        dh1.data(), n);
    vx.sigmoid_mul_grad(g.data(), z.data(), h.data(), dg2.data(),
                        dh2.data(), n);
    ExpectClose(dg2.data(), dg1.data(), n, 1e-6, 1e-6, "sigmoid_mul_grad dg");
    ExpectClose(dh2.data(), dh1.data(), n, 1e-6, 1e-6, "sigmoid_mul_grad dh");

    sc.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), dg1.data(),
                     dh1.data(), dc1.data(), n);
    vx.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), dg2.data(),
                     dh2.data(), dc2.data(), n);
    ExpectClose(dg2.data(), dg1.data(), n, 1e-6, 1e-6, "gru_tail_grad dgz");
    ExpectClose(dh2.data(), dh1.data(), n, 1e-6, 1e-6, "gru_tail_grad dh");
    ExpectClose(dc2.data(), dc1.data(), n, 1e-6, 1e-6, "gru_tail_grad dc");

    const auto rr = RandomVec(n, 2400 + n, 0.02f, 0.98f);
    sc.gru_step_grad(g.data(), rr.data(), z.data(), t.data(), h.data(),
                     hh.data(), s1.data(), w1.data(), dh1.data(), n);
    vx.gru_step_grad(g.data(), rr.data(), z.data(), t.data(), h.data(),
                     hh.data(), s2.data(), w2.data(), dh2.data(), n);
    ExpectClose(s2.data(), s1.data(), 3 * n, 1e-6, 1e-6, "gru_step_grad dxi");
    ExpectClose(w2.data(), w1.data(), 3 * n, 1e-6, 1e-6, "gru_step_grad dhh");
    ExpectClose(dh2.data(), dh1.data(), n, 1e-6, 1e-6, "gru_step_grad dh");
  }
}

// The offset-independence contract (DESIGN.md §5f) for the fused GRU
// kernels: computing a buffer in two arbitrary chunks must be
// memcmp-identical to one whole-buffer call, at both dispatch levels.
// This is what lets the rollout plan's fused row segments partition rows
// freely while staying bit-identical to the eager path.
TEST(SimdKernelTest, GruFusedKernelsOffsetIndependent) {
  const int64_t n = 100;
  const auto a = RandomVec(n, 3100);
  const auto b = RandomVec(n, 3200);
  const auto h = RandomVec(n, 3300);
  const auto g = RandomVec(n, 3400);
  const auto z = RandomVec(n, 3500, 0.02f, 0.98f);
  const auto t = RandomVec(n, 3600, -0.98f, 0.98f);
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level == simd::Level::kAvx2 && !simd::Avx2Available()) continue;
    const auto& k = simd::KernelsFor(level);
    for (int64_t split : {1, 37, 64, 99}) {
      std::vector<float> whole(n), parts(n), whole2(n), parts2(n),
          whole3(n), parts3(n);

      k.sigmoid_mul(a.data(), b.data(), whole.data(), nullptr, n);
      k.sigmoid_mul(a.data(), b.data(), parts.data(), nullptr, split);
      k.sigmoid_mul(a.data() + split, b.data() + split,
                    parts.data() + split, nullptr, n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n))
          << "sigmoid_mul split=" << split;

      k.gru_tail(a.data(), h.data(), b.data(), whole.data(), nullptr,
                 nullptr, n);
      k.gru_tail(a.data(), h.data(), b.data(), parts.data(), nullptr,
                 nullptr, split);
      k.gru_tail(a.data() + split, h.data() + split, b.data() + split,
                 parts.data() + split, nullptr, nullptr, n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n))
          << "gru_tail split=" << split;

      k.sigmoid_mul_grad(g.data(), z.data(), h.data(), whole.data(),
                         whole2.data(), n);
      k.sigmoid_mul_grad(g.data(), z.data(), h.data(), parts.data(),
                         parts2.data(), split);
      k.sigmoid_mul_grad(g.data() + split, z.data() + split,
                         h.data() + split, parts.data() + split,
                         parts2.data() + split, n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n));
      EXPECT_EQ(
          0, std::memcmp(whole2.data(), parts2.data(), sizeof(float) * n));

      k.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), whole.data(),
                      whole2.data(), whole3.data(), n);
      k.gru_tail_grad(g.data(), z.data(), t.data(), h.data(), parts.data(),
                      parts2.data(), parts3.data(), split);
      k.gru_tail_grad(g.data() + split, z.data() + split, t.data() + split,
                      h.data() + split, parts.data() + split,
                      parts2.data() + split, parts3.data() + split,
                      n - split);
      EXPECT_EQ(0,
                std::memcmp(whole.data(), parts.data(), sizeof(float) * n));
      EXPECT_EQ(
          0, std::memcmp(whole2.data(), parts2.data(), sizeof(float) * n));
      EXPECT_EQ(
          0, std::memcmp(whole3.data(), parts3.data(), sizeof(float) * n));
    }
  }
}

TEST(FusedOpsTest, GruStepMatchesComposedChain) {
  utils::Rng rng(49);
  const int64_t batch = 6, hd = 5;
  Tensor xi0 = Tensor::Normal(Shape({batch, 3 * hd}), rng);
  Tensor hh0 = Tensor::Normal(Shape({batch, 3 * hd}), rng);
  Tensor h0 = Tensor::Normal(Shape({batch, hd}), rng);

  auto run = [&](bool fused) {
    ag::Variable xi(xi0.Clone(), true);
    ag::Variable hh(hh0.Clone(), true);
    ag::Variable h(h0.Clone(), true);
    ag::Variable out;
    if (fused) {
      out = ag::GruStep(xi, hh, h);
    } else {
      auto part = [&](const ag::Variable& v, int64_t j) {
        return ag::Slice(v, 1, j * hd, (j + 1) * hd);
      };
      ag::Variable r = ag::Sigmoid(ag::Add(part(xi, 0), part(hh, 0)));
      ag::Variable z = ag::Sigmoid(ag::Add(part(xi, 1), part(hh, 1)));
      ag::Variable nc =
          ag::Tanh(ag::Add(part(xi, 2), ag::Mul(r, part(hh, 2))));
      out = ag::Add(ag::Mul(z, h),
                    ag::Mul(ag::RSubScalar(z, 1.0f), nc));
    }
    ag::MeanAll(ag::Mul(out, out)).Backward();
    return std::vector<Tensor>{out.value(), xi.grad(), hh.grad(), h.grad()};
  };
  const auto f = run(true);
  const auto r = run(false);
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_TRUE(tensor::AllClose(f[i], r[i], 1e-5f, 1e-4f)) << "tensor " << i;
  }
}

TEST(FusedOpsTest, GruStepPassesGradCheck) {
  utils::Rng rng(50);
  const int64_t batch = 2, hd = 3;
  std::vector<Tensor> inputs = {
      Tensor::Normal(Shape({batch, 3 * hd}), rng),
      Tensor::Normal(Shape({batch, 3 * hd}), rng),
      Tensor::Normal(Shape({batch, hd}), rng),
  };
  std::string error;
  EXPECT_TRUE(ag::CheckGradients(
      [](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(ag::Mul(ag::GruStep(v[0], v[1], v[2]),
                                   ag::GruStep(v[0], v[1], v[2])));
      },
      inputs, &error))
      << error;
}

// ---------------------------------------------------------------------------
// 6. ScratchArena semantics
// ---------------------------------------------------------------------------

TEST(ScratchArenaTest, ScopeReusesAndResets) {
  utils::ScratchArena arena;
  void* first = nullptr;
  {
    utils::ScratchArena::Scope scope(arena);
    first = arena.Alloc(1000);
    ASSERT_NE(first, nullptr);
    EXPECT_GE(arena.bytes_in_use(), 1000);
  }
  EXPECT_EQ(arena.bytes_in_use(), 0);
  {
    utils::ScratchArena::Scope scope(arena);
    // Same chunk, same cursor: the previous allocation's storage is
    // reused, not re-reserved.
    void* second = arena.Alloc(1000);
    EXPECT_EQ(first, second);
  }
}

TEST(ScratchArenaTest, NestedScopesRestoreLifo) {
  utils::ScratchArena arena;
  utils::ScratchArena::Scope outer(arena);
  arena.Alloc(100);
  const int64_t outer_use = arena.bytes_in_use();
  {
    utils::ScratchArena::Scope inner(arena);
    arena.Alloc(5000);
    EXPECT_GT(arena.bytes_in_use(), outer_use);
  }
  EXPECT_EQ(arena.bytes_in_use(), outer_use);
}

TEST(ScratchArenaTest, GrowsAcrossChunksAndTracksHighWater) {
  utils::ScratchArena arena;
  utils::ScratchArena::Scope scope(arena);
  // Force several chunk spills; every pointer must stay valid and
  // distinct inside the scope.
  float* a = arena.AllocArray<float>(20000);
  float* b = arena.AllocArray<float>(40000);
  float* c = arena.AllocArray<float>(80000);
  a[0] = 1.0f;
  b[0] = 2.0f;
  c[0] = 3.0f;
  a[19999] = 4.0f;
  b[39999] = 5.0f;
  c[79999] = 6.0f;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 2.0f);
  EXPECT_EQ(c[0], 3.0f);
  const int64_t total = (20000 + 40000 + 80000) * sizeof(float);
  EXPECT_GE(arena.high_water(), total);
  EXPECT_GE(utils::ScratchArena::ProcessHighWater(), arena.high_water());
}

TEST(ScratchArenaTest, AlignmentIsAtLeast64) {
  utils::ScratchArena arena;
  utils::ScratchArena::Scope scope(arena);
  for (int i = 0; i < 10; ++i) {
    arena.Alloc(1);  // odd-size churn
    auto p = reinterpret_cast<uintptr_t>(arena.AllocArray<float>(3));
    EXPECT_EQ(p % 64, 0u);
  }
}

TEST(ScratchArenaTest, ThreadLocalIsPerThread) {
  utils::ScratchArena* main_arena = &utils::ScratchArena::ThreadLocal();
  utils::ScratchArena* worker_arena = nullptr;
  std::thread t(
      [&] { worker_arena = &utils::ScratchArena::ThreadLocal(); });
  t.join();
  EXPECT_NE(main_arena, worker_arena);
}

// ---------------------------------------------------------------------------
// 7. DeterministicBlockReduce
// ---------------------------------------------------------------------------

TEST(BlockReduceTest, ReduceBlockSizeIsPinned) {
  // The block size IS the determinism contract: changing it changes every
  // reduction's grouping (SumAll, metrics, ClipGradNorm) and silently
  // shifts float results. Bump this test only with a changelog entry.
  EXPECT_EQ(utils::kReduceBlock, 16384);
}

TEST(BlockReduceTest, MatchesSequentialSum) {
  const auto v = RandomVec(100000, 51);
  const auto sum_k = simd::KernelsFor(simd::Level::kScalar).sum;
  auto reduce = [&] {
    return utils::DeterministicBlockReduce<double>(
        static_cast<int64_t>(v.size()), 0.0,
        [&](int64_t lo, int64_t hi) { return sum_k(v.data() + lo, hi - lo); },
        [](double& acc, double p) { acc += p; });
  };
  const double reference = reduce();
  double plain = 0.0;
  for (float x : v) plain += x;
  EXPECT_NEAR(reference, plain, 1e-6 * (1.0 + std::fabs(plain)));
  // Bit-identical across thread counts.
  for (int64_t threads : {1, 2, 4}) {
    ThreadScope scope(threads);
    const double again = reduce();
    EXPECT_EQ(std::memcmp(&reference, &again, sizeof(double)), 0)
        << "block reduce differs at " << threads << " threads";
  }
}

TEST(BlockReduceTest, EmptyAndSingleBlockRanges) {
  auto block = [](int64_t lo, int64_t hi) {
    return static_cast<double>(hi - lo);
  };
  auto merge = [](double& acc, double p) { acc += p; };
  EXPECT_EQ(utils::DeterministicBlockReduce<double>(0, 0.0, block, merge),
            0.0);
  EXPECT_EQ(utils::DeterministicBlockReduce<double>(100, 0.0, block, merge),
            100.0);
  EXPECT_EQ(utils::DeterministicBlockReduce<double>(
                utils::kReduceBlock * 3 + 7, 0.0, block, merge),
            static_cast<double>(utils::kReduceBlock * 3 + 7));
}

}  // namespace
}  // namespace sagdfn
