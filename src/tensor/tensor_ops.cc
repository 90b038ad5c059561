#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "tensor/simd.h"
#include "utils/block_reduce.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace sagdfn::tensor {
namespace {

using utils::kElementwiseGrain;
using utils::kReduceBlock;
using utils::ParallelFor;
using utils::ParallelFor2D;

// Kernel-pointer aliases from the SIMD dispatch table (see tensor/simd.h).
using BinVV = void (*)(const float*, const float*, float*, int64_t);
using BinVS = void (*)(const float*, float, float*, int64_t);
using UnaryK = void (*)(const float*, float*, int64_t);

// Minimum multiply-accumulate count per matmul task; rows are grouped so
// each task carries at least this much work before the pool is engaged.
constexpr int64_t kMatMulGrainFlops = 1 << 16;

// Cache tile over the shared (k) dimension: one tile of B rows
// (kKTile x n floats) stays resident while a task's rows stream past it.
constexpr int64_t kKTile = 256;

// Applies one operation elementwise over broadcast inputs. The three
// contiguous fast paths run the dispatched SIMD kernels: `vv` for
// identical shapes, `vs` (o = a[i] OP s) when the rhs is a scalar, `sv`
// (o = s OP a[i]) when the lhs is. The general broadcast path walks a
// multi-index with per-input strides and stays on the scalar `op` (its
// access pattern is gather-like, not vectorizable as contiguous lanes).
// All paths parallelize over contiguous output chunks (each element is
// written by exactly one task, so results are thread-count independent).
template <typename Op>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, BinVV vv, BinVS vs,
                       BinVS sv, Op op) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, a.size(), kElementwiseGrain,
                [&](int64_t i0, int64_t i1) {
                  vv(pa + i0, pb + i0, po + i0, i1 - i0);
                });
    return out;
  }
  // Scalar fast paths apply only when the scalar operand's rank does not
  // exceed the other's (otherwise broadcasting promotes the result rank,
  // e.g. [3] op [1, 1] -> [1, 3]).
  if (b.size() == 1 && b.ndim() <= a.ndim()) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float s = b.data()[0];
    float* po = out.data();
    ParallelFor(0, a.size(), kElementwiseGrain,
                [&](int64_t i0, int64_t i1) {
                  vs(pa + i0, s, po + i0, i1 - i0);
                });
    return out;
  }
  if (a.size() == 1 && a.ndim() <= b.ndim()) {
    Tensor out(b.shape());
    const float s = a.data()[0];
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, b.size(), kElementwiseGrain,
                [&](int64_t i0, int64_t i1) {
                  sv(pb + i0, s, po + i0, i1 - i0);
                });
    return out;
  }

  Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  const int64_t rank = out_shape.ndim();
  Tensor out(out_shape);

  // Align strides to the output rank, zeroing broadcast dims.
  auto aligned_strides = [&](const Shape& s) {
    std::vector<int64_t> strides(rank, 0);
    auto own = s.Strides();
    for (int64_t i = 0; i < s.ndim(); ++i) {
      int64_t out_dim = rank - s.ndim() + i;
      strides[out_dim] = (s.dims()[i] == 1) ? 0 : own[i];
    }
    return strides;
  };
  const std::vector<int64_t> sa = aligned_strides(a.shape());
  const std::vector<int64_t> sb = aligned_strides(b.shape());

  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t total = out.size();
  // Each chunk seeds its multi-index / input offsets from its first flat
  // index, then advances odometer-style.
  ParallelFor(0, total, kElementwiseGrain, [&](int64_t flat0, int64_t flat1) {
    std::vector<int64_t> index(rank, 0);
    int64_t offset_a = 0;
    int64_t offset_b = 0;
    int64_t rem = flat0;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[d] = rem % out_shape.dims()[d];
      rem /= out_shape.dims()[d];
      offset_a += index[d] * sa[d];
      offset_b += index[d] * sb[d];
    }
    for (int64_t flat = flat0; flat < flat1; ++flat) {
      po[flat] = op(pa[offset_a], pb[offset_b]);
      // Increment the multi-index (odometer) and the two offsets.
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++index[d];
        offset_a += sa[d];
        offset_b += sb[d];
        if (index[d] < out_shape.dims()[d]) break;
        offset_a -= sa[d] * index[d];
        offset_b -= sb[d] * index[d];
        index[d] = 0;
      }
    }
  });
  return out;
}

template <typename Op>
Tensor UnaryOp(const Tensor& a, Op op) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) po[i] = op(pa[i]);
  });
  return out;
}

// Unary op routed through a dispatched contiguous kernel.
Tensor UnaryKernel(const Tensor& a, UnaryK kernel) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    kernel(pa + i0, po + i0, i1 - i0);
  });
  return out;
}

// Tensor-scalar op routed through a dispatched contiguous kernel.
Tensor ScalarKernel(const Tensor& a, float s, BinVS kernel) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    kernel(pa + i0, s, po + i0, i1 - i0);
  });
  return out;
}

// Decomposes a shape around `axis` into (outer, axis_size, inner) so
// reductions can run as three nested loops.
struct AxisSplit {
  int64_t outer;
  int64_t axis_size;
  int64_t inner;
};

AxisSplit SplitAtAxis(const Shape& shape, int64_t axis) {
  axis = shape.CanonicalAxis(axis);
  AxisSplit s{1, shape.dims()[axis], 1};
  for (int64_t i = 0; i < axis; ++i) s.outer *= shape.dims()[i];
  for (int64_t i = axis + 1; i < shape.ndim(); ++i) {
    s.inner *= shape.dims()[i];
  }
  return s;
}

Shape ReducedShape(const Shape& shape, int64_t axis, bool keepdim) {
  axis = shape.CanonicalAxis(axis);
  std::vector<int64_t> dims = shape.dims();
  if (keepdim) {
    dims[axis] = 1;
  } else {
    dims.erase(dims.begin() + axis);
  }
  return Shape(std::move(dims));
}

// Grain for axis reductions: each (outer-range x inner-range) tile owns
// its output elements outright; size tiles so a task reads at least
// ~kReduceBlock input elements.
int64_t ReduceOuterGrain(const AxisSplit& s) {
  const int64_t per_outer = s.axis_size * s.inner;
  return std::max<int64_t>(1, kReduceBlock / std::max<int64_t>(1, per_outer));
}

// Shared [rows in [i0, i1)] x [k tiles] kernel used by both MatMul and
// BatchedMatMul. Each k tile stages its B row pointers once, then every
// row takes one axpy_rows call over the tile (zero entries of A skipped:
// the slim adjacency and dropout masks are sparse in practice). The k
// tiles advance in order inside each row and each call reloads the row
// from memory, so per-row accumulation order equals the sequential
// kernel's (bit-identical output for every thread count / partition).
inline void MatMulRows(const float* pa, const float* pb, float* po,
                       int64_t i0, int64_t i1, int64_t k, int64_t n) {
  const simd::Kernels& kern = simd::K();
  const float* b_rows[kKTile];
  for (int64_t k0 = 0; k0 < k; k0 += kKTile) {
    const int64_t k1 = std::min<int64_t>(k, k0 + kKTile);
    for (int64_t kk = k0; kk < k1; ++kk) b_rows[kk - k0] = pb + kk * n;
    for (int64_t i = i0; i < i1; ++i) {
      kern.axpy_rows(pa + i * k + k0, b_rows, k1 - k0, po + i * n, n);
    }
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const simd::Kernels& k = simd::K();
  return BroadcastBinary(a, b, k.add, k.add_s, k.add_s, std::plus<float>());
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  const simd::Kernels& k = simd::K();
  return BroadcastBinary(a, b, k.sub, k.sub_s, k.rsub_s, std::minus<float>());
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const simd::Kernels& k = simd::K();
  return BroadcastBinary(a, b, k.mul, k.mul_s, k.mul_s,
                         std::multiplies<float>());
}

Tensor Div(const Tensor& a, const Tensor& b) {
  const simd::Kernels& k = simd::K();
  return BroadcastBinary(a, b, k.div, k.div_s, k.rdiv_s,
                         std::divides<float>());
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  const simd::Kernels& k = simd::K();
  return BroadcastBinary(a, b, k.vmax, k.max_s, k.max_s,
                         [](float x, float y) { return std::max(x, y); });
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  const simd::Kernels& k = simd::K();
  return BroadcastBinary(a, b, k.vmin, k.min_s, k.min_s,
                         [](float x, float y) { return std::min(x, y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return ScalarKernel(a, s, simd::K().add_s);
}

Tensor MulScalar(const Tensor& a, float s) {
  return ScalarKernel(a, s, simd::K().mul_s);
}

Tensor RSubScalar(const Tensor& a, float s) {
  return ScalarKernel(a, s, simd::K().rsub_s);
}

Tensor Neg(const Tensor& a) { return UnaryKernel(a, simd::K().neg); }

Tensor Exp(const Tensor& a) { return UnaryKernel(a, simd::K().vexp); }

Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}

Tensor Sqrt(const Tensor& a) { return UnaryKernel(a, simd::K().vsqrt); }

Tensor Abs(const Tensor& a) { return UnaryKernel(a, simd::K().vabs); }

Tensor Sign(const Tensor& a) {
  return UnaryOp(a, [](float x) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  });
}

Tensor Tanh(const Tensor& a) { return UnaryKernel(a, simd::K().vtanh); }

Tensor Sigmoid(const Tensor& a) {
  return UnaryKernel(a, simd::K().sigmoid);
}

Tensor Relu(const Tensor& a) { return UnaryKernel(a, simd::K().relu); }

Tensor Clamp(const Tensor& a, float lo, float hi) {
  SAGDFN_CHECK_LE(lo, hi);
  return UnaryOp(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor Pow(const Tensor& a, float p) {
  return UnaryOp(a, [p](float x) { return std::pow(x, p); });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  SAGDFN_CHECK_EQ(a.ndim(), 2) << "MatMul lhs must be 2-D";
  SAGDFN_CHECK_EQ(b.ndim(), 2) << "MatMul rhs must be 2-D";
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  SAGDFN_CHECK_EQ(k, b.dim(0))
      << "MatMul inner dims: " << a.shape().ToString() << " x "
      << b.shape().ToString();
  Tensor out{Shape({m, n})};
  // Freshly constructed tensors are zeroed, so the accumulate-only macro
  // kernel can run directly.
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Row-parallel, k-tiled: each task owns a contiguous block of output
  // rows; inside a row, i-k-j order streams both B and the output row.
  const int64_t row_grain =
      std::max<int64_t>(1, kMatMulGrainFlops / std::max<int64_t>(1, k * n));
  ParallelFor(0, m, row_grain, [&](int64_t i0, int64_t i1) {
    MatMulRows(pa, pb, po, i0, i1, k, n);
  });
  return out;
}

void MatMulInto(const float* a, const float* b, float* o, int64_t rows,
                int64_t k, int64_t n) {
  std::memset(o, 0, sizeof(float) * rows * n);
  const int64_t row_grain =
      std::max<int64_t>(1, kMatMulGrainFlops / std::max<int64_t>(1, k * n));
  ParallelFor(0, rows, row_grain, [&](int64_t i0, int64_t i1) {
    MatMulRows(a, b, o, i0, i1, k, n);
  });
}

void MatMulRowsInto(const float* a, const float* b, float* o, int64_t i0,
                    int64_t i1, int64_t k, int64_t n) {
  std::memset(o + i0 * n, 0, sizeof(float) * (i1 - i0) * n);
  MatMulRows(a, b, o, i0, i1, k, n);
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b) {
  SAGDFN_CHECK(a.ndim() == 3 || b.ndim() == 3)
      << "BatchedMatMul requires a 3-D operand";
  const bool broadcast_lhs = a.ndim() == 2;
  const bool broadcast_rhs = b.ndim() == 2;
  SAGDFN_CHECK(!broadcast_lhs || !broadcast_rhs);
  const int64_t batch = broadcast_lhs ? b.dim(0) : a.dim(0);
  const int64_t m = broadcast_lhs ? a.dim(0) : a.dim(1);
  const int64_t k = broadcast_lhs ? a.dim(1) : a.dim(2);
  if (!broadcast_lhs && !broadcast_rhs) SAGDFN_CHECK_EQ(b.dim(0), batch);
  const int64_t n = broadcast_rhs ? b.dim(1) : b.dim(2);
  SAGDFN_CHECK_EQ(k, broadcast_rhs ? b.dim(0) : b.dim(1))
      << "BatchedMatMul inner dims: " << a.shape().ToString() << " x "
      << b.shape().ToString();
  Tensor out{Shape({batch, m, n})};
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Parallelize over the flattened batch x row space so small-batch,
  // many-row workloads (the encoder's [B, N, C] steps) still spread over
  // all threads. A task's range may straddle batch boundaries.
  const int64_t row_grain =
      std::max<int64_t>(1, kMatMulGrainFlops / std::max<int64_t>(1, k * n));
  ParallelFor(0, batch * m, row_grain, [&](int64_t r0, int64_t r1) {
    int64_t r = r0;
    while (r < r1) {
      const int64_t bi = r / m;
      const int64_t i0 = r - bi * m;
      const int64_t i1 = std::min<int64_t>(m, i0 + (r1 - r));
      const float* a_mat = broadcast_lhs ? pa : pa + bi * m * k;
      const float* b_mat = broadcast_rhs ? pb : pb + bi * k * n;
      MatMulRows(a_mat, b_mat, po + bi * m * n, i0, i1, k, n);
      r += i1 - i0;
    }
  });
  return out;
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdim) {
  const AxisSplit s = SplitAtAxis(a.shape(), axis);
  Tensor out{ReducedShape(a.shape(), axis, keepdim)};
  const float* pa = a.data();
  float* po = out.data();
  // Tiles over (outer, inner) own disjoint output elements; the axis loop
  // stays innermost-ordered, so sums accumulate in the sequential order
  // regardless of thread count.
  const auto acc_add = simd::K().acc_add;
  ParallelFor2D(s.outer, s.inner, ReduceOuterGrain(s), kReduceBlock,
                [&](int64_t o0, int64_t o1, int64_t i0, int64_t i1) {
                  for (int64_t o = o0; o < o1; ++o) {
                    for (int64_t x = 0; x < s.axis_size; ++x) {
                      const float* src = pa + (o * s.axis_size + x) * s.inner;
                      float* dst = po + o * s.inner;
                      acc_add(dst + i0, src + i0, i1 - i0);
                    }
                  }
                });
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdim) {
  const AxisSplit s = SplitAtAxis(a.shape(), axis);
  SAGDFN_CHECK_GT(s.axis_size, 0);
  return MulScalar(Sum(a, axis, keepdim), 1.0f / s.axis_size);
}

Tensor Max(const Tensor& a, int64_t axis, bool keepdim) {
  const AxisSplit s = SplitAtAxis(a.shape(), axis);
  SAGDFN_CHECK_GT(s.axis_size, 0);
  Tensor out{ReducedShape(a.shape(), axis, keepdim)};
  out.Fill(-std::numeric_limits<float>::infinity());
  const float* pa = a.data();
  float* po = out.data();
  const auto max_into = simd::K().max_into;
  ParallelFor2D(s.outer, s.inner, ReduceOuterGrain(s), kReduceBlock,
                [&](int64_t o0, int64_t o1, int64_t i0, int64_t i1) {
                  for (int64_t o = o0; o < o1; ++o) {
                    for (int64_t x = 0; x < s.axis_size; ++x) {
                      const float* src = pa + (o * s.axis_size + x) * s.inner;
                      float* dst = po + o * s.inner;
                      max_into(dst + i0, src + i0, i1 - i0);
                    }
                  }
                });
  return out;
}

Tensor ArgMax(const Tensor& a, int64_t axis) {
  const AxisSplit s = SplitAtAxis(a.shape(), axis);
  SAGDFN_CHECK_GT(s.axis_size, 0);
  Tensor out{ReducedShape(a.shape(), axis, /*keepdim=*/false)};
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor2D(
      s.outer, s.inner, ReduceOuterGrain(s), kReduceBlock,
      [&](int64_t o0, int64_t o1, int64_t i0, int64_t i1) {
        for (int64_t o = o0; o < o1; ++o) {
          for (int64_t i = i0; i < i1; ++i) {
            float best = -std::numeric_limits<float>::infinity();
            int64_t best_idx = 0;
            for (int64_t x = 0; x < s.axis_size; ++x) {
              float v = pa[(o * s.axis_size + x) * s.inner + i];
              if (v > best) {
                best = v;
                best_idx = x;
              }
            }
            po[o * s.inner + i] = static_cast<float>(best_idx);
          }
        }
      });
  return out;
}

Tensor SumAll(const Tensor& a) {
  const float* pa = a.data();
  const auto sum = simd::K().sum;
  // Fixed-size blocks (independent of the thread count) with per-block
  // double partials merged in block order keep the result identical for
  // any pool size; see utils/block_reduce.h for the shared contract.
  const double total = utils::DeterministicBlockReduce<double>(
      a.size(), 0.0,
      [&](int64_t lo, int64_t hi) { return sum(pa + lo, hi - lo); },
      [](double& acc, double partial) { acc += partial; });
  return Tensor::Scalar(static_cast<float>(total));
}

Tensor MeanAll(const Tensor& a) {
  SAGDFN_CHECK_GT(a.size(), 0);
  return Tensor::Scalar(SumAll(a).Item() / a.size());
}

float MaxAll(const Tensor& a) {
  SAGDFN_CHECK_GT(a.size(), 0);
  float best = a.data()[0];
  for (int64_t i = 1; i < a.size(); ++i) best = std::max(best, a.data()[i]);
  return best;
}

float MinAll(const Tensor& a) {
  SAGDFN_CHECK_GT(a.size(), 0);
  float best = a.data()[0];
  for (int64_t i = 1; i < a.size(); ++i) best = std::min(best, a.data()[i]);
  return best;
}

Tensor ReduceTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  SAGDFN_CHECK(Shape::BroadcastCompatible(a.shape(), target))
      << "ReduceTo " << a.shape().ToString() << " -> " << target.ToString();
  Tensor current = a;
  // Remove extra leading dims.
  while (current.ndim() > target.ndim()) {
    current = Sum(current, 0, /*keepdim=*/false);
  }
  // Sum along axes where the target is size-1.
  for (int64_t d = 0; d < target.ndim(); ++d) {
    if (target.dims()[d] == 1 && current.dim(d) != 1) {
      current = Sum(current, d, /*keepdim=*/true);
    } else {
      SAGDFN_CHECK_EQ(current.dim(d), target.dims()[d]);
    }
  }
  return current.Reshape(target.dims());
}

Tensor Transpose(const Tensor& a, int64_t axis0, int64_t axis1) {
  axis0 = a.shape().CanonicalAxis(axis0);
  axis1 = a.shape().CanonicalAxis(axis1);
  if (axis0 == axis1) return a.Clone();
  std::vector<int64_t> out_dims = a.shape().dims();
  std::swap(out_dims[axis0], out_dims[axis1]);
  Tensor out{Shape(out_dims)};

  const auto in_strides = a.shape().Strides();
  std::vector<int64_t> out_in_strides = in_strides;
  std::swap(out_in_strides[axis0], out_in_strides[axis1]);

  const int64_t rank = a.ndim();
  const float* pa = a.data();
  float* po = out.data();
  const int64_t total = a.size();
  ParallelFor(0, total, kElementwiseGrain, [&](int64_t flat0, int64_t flat1) {
    std::vector<int64_t> index(rank, 0);
    int64_t in_offset = 0;
    int64_t rem = flat0;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[d] = rem % out_dims[d];
      rem /= out_dims[d];
      in_offset += index[d] * out_in_strides[d];
    }
    for (int64_t flat = flat0; flat < flat1; ++flat) {
      po[flat] = pa[in_offset];
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++index[d];
        in_offset += out_in_strides[d];
        if (index[d] < out_dims[d]) break;
        in_offset -= out_in_strides[d] * index[d];
        index[d] = 0;
      }
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  SAGDFN_CHECK(!parts.empty());
  const Shape& first = parts[0].shape();
  axis = first.CanonicalAxis(axis);
  int64_t axis_total = 0;
  for (const Tensor& p : parts) {
    SAGDFN_CHECK_EQ(p.ndim(), first.ndim());
    for (int64_t d = 0; d < first.ndim(); ++d) {
      if (d != axis) SAGDFN_CHECK_EQ(p.dim(d), first.dims()[d]);
    }
    axis_total += p.dim(axis);
  }
  std::vector<int64_t> out_dims = first.dims();
  out_dims[axis] = axis_total;
  Tensor out{Shape(out_dims)};

  const AxisSplit s = SplitAtAxis(out.shape(), axis);
  float* po = out.data();
  int64_t axis_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t p_axis = p.dim(axis);
    const float* pp = p.data();
    const int64_t copy_len = p_axis * s.inner;
    const int64_t outer_grain =
        std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(
                                                     1, copy_len));
    ParallelFor(0, s.outer, outer_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        const float* src = pp + o * copy_len;
        float* dst = po + (o * axis_total + axis_offset) * s.inner;
        std::copy(src, src + copy_len, dst);
      }
    });
    axis_offset += p_axis;
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts, int64_t axis) {
  SAGDFN_CHECK(!parts.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(parts.size());
  for (const Tensor& p : parts) {
    SAGDFN_CHECK(p.shape() == parts[0].shape());
    std::vector<int64_t> dims = p.shape().dims();
    int64_t ax = axis < 0 ? axis + p.ndim() + 1 : axis;
    SAGDFN_CHECK_GE(ax, 0);
    SAGDFN_CHECK_LE(ax, p.ndim());
    dims.insert(dims.begin() + ax, 1);
    expanded.push_back(p.Reshape(dims));
  }
  int64_t ax = axis < 0 ? axis + parts[0].ndim() + 1 : axis;
  return Concat(expanded, ax);
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end) {
  axis = a.shape().CanonicalAxis(axis);
  const int64_t axis_size = a.dim(axis);
  SAGDFN_CHECK_GE(start, 0);
  SAGDFN_CHECK_LE(start, end);
  SAGDFN_CHECK_LE(end, axis_size);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[axis] = end - start;
  Tensor out{Shape(out_dims)};

  const AxisSplit s = SplitAtAxis(a.shape(), axis);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t out_axis = end - start;
  const int64_t copy_len = out_axis * s.inner;
  const int64_t outer_grain = std::max<int64_t>(
      1, kElementwiseGrain / std::max<int64_t>(1, copy_len));
  ParallelFor(0, s.outer, outer_grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      const float* src = pa + (o * axis_size + start) * s.inner;
      float* dst = po + o * copy_len;
      std::copy(src, src + copy_len, dst);
    }
  });
  return out;
}

Tensor IndexSelect(const Tensor& a, int64_t axis,
                   const std::vector<int64_t>& indices) {
  axis = a.shape().CanonicalAxis(axis);
  const int64_t axis_size = a.dim(axis);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[axis] = static_cast<int64_t>(indices.size());
  Tensor out{Shape(out_dims)};

  const AxisSplit s = SplitAtAxis(a.shape(), axis);
  const int64_t k = static_cast<int64_t>(indices.size());
  for (int64_t x = 0; x < k; ++x) {
    SAGDFN_CHECK_GE(indices[x], 0);
    SAGDFN_CHECK_LT(indices[x], axis_size);
  }
  const float* pa = a.data();
  float* po = out.data();
  // Each (outer, index-slot) pair owns one disjoint output row.
  const int64_t row_grain = std::max<int64_t>(
      1, kElementwiseGrain / std::max<int64_t>(1, s.inner));
  ParallelFor(0, s.outer * k, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t o = r / k;
      const int64_t x = r - o * k;
      const float* src = pa + (o * axis_size + indices[x]) * s.inner;
      float* dst = po + r * s.inner;
      std::copy(src, src + s.inner, dst);
    }
  });
  return out;
}

void IndexAddInto(Tensor& dst, int64_t axis,
                  const std::vector<int64_t>& indices, const Tensor& src) {
  axis = dst.shape().CanonicalAxis(axis);
  const int64_t axis_size = dst.dim(axis);
  SAGDFN_CHECK_EQ(src.dim(axis), static_cast<int64_t>(indices.size()));
  SAGDFN_CHECK_EQ(src.ndim(), dst.ndim());
  for (int64_t d = 0; d < dst.ndim(); ++d) {
    if (d != axis) SAGDFN_CHECK_EQ(src.dim(d), dst.dim(d));
  }
  const AxisSplit s = SplitAtAxis(dst.shape(), axis);
  const int64_t k = static_cast<int64_t>(indices.size());
  for (int64_t x = 0; x < k; ++x) {
    SAGDFN_CHECK_GE(indices[x], 0);
    SAGDFN_CHECK_LT(indices[x], axis_size);
  }
  const float* ps = src.data();
  float* pd = dst.data();
  // Indices may repeat, so the scatter axis (x) must stay sequential;
  // (outer, inner) tiles touch disjoint destination elements and the x
  // loop runs in sequential order inside each tile, keeping accumulation
  // deterministic.
  const auto acc_add = simd::K().acc_add;
  ParallelFor2D(s.outer, s.inner, ReduceOuterGrain(s), kReduceBlock,
                [&](int64_t o0, int64_t o1, int64_t i0, int64_t i1) {
                  for (int64_t o = o0; o < o1; ++o) {
                    for (int64_t x = 0; x < k; ++x) {
                      const float* sp = ps + (o * k + x) * s.inner;
                      float* dp = pd + (o * axis_size + indices[x]) * s.inner;
                      acc_add(dp + i0, sp + i0, i1 - i0);
                    }
                  }
                });
}

Tensor Softmax(const Tensor& a, int64_t axis) {
  Tensor shifted = Sub(a, Max(a, axis, /*keepdim=*/true));
  Tensor e = Exp(shifted);
  return Div(e, Sum(e, axis, /*keepdim=*/true));
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!(a.shape() == b.shape())) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (std::isnan(diff) ||
        diff > atol + rtol * std::fabs(pb[i])) {
      return false;
    }
  }
  return true;
}

bool HasNonFinite(const Tensor& a) {
  const float* pa = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(pa[i])) return true;
  }
  return false;
}

}  // namespace sagdfn::tensor
