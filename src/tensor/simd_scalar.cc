// Portable scalar kernel table: the reference semantics every other level
// must match (to the tolerance pinned by the simd test suite). These loops
// are deliberately simple — the compiler may auto-vectorize them, but the
// accumulation orders are fixed, so results are bit-identical run to run
// and thread count to thread count.
#include <algorithm>
#include <cmath>

#include "tensor/simd_internal.h"

namespace sagdfn::tensor::simd::internal {
namespace {

void Add(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void Sub(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void Mul(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void Div(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}
void VMax(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::max(a[i], b[i]);
}
void VMin(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::min(a[i], b[i]);
}

void AddS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}
void SubS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - s;
}
void RSubS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = s - a[i];
}
void MulS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void DivS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / s;
}
void RDivS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = s / a[i];
}
void MaxS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::max(a[i], s);
}
void MinS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::min(a[i], s);
}

void AccAdd(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}
void MaxInto(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

void Neg(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = -a[i];
}
void VAbs(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::fabs(a[i]);
}
void Relu(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void VSqrt(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::sqrt(a[i]);
}
void VExp(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::exp(a[i]);
}
void Sigmoid(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float x = a[i];
    // Stable in both tails.
    if (x >= 0.0f) {
      const float z = std::exp(-x);
      o[i] = 1.0f / (1.0f + z);
    } else {
      const float z = std::exp(x);
      o[i] = z / (1.0f + z);
    }
  }
}
void VTanh(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::tanh(a[i]);
}

void SigmoidGrad(const float* g, const float* out, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * out[i] * (1.0f - out[i]);
}
void TanhGrad(const float* g, const float* out, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * (1.0f - out[i] * out[i]);
}
void ReluGrad(const float* g, const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? g[i] : 0.0f;
}
void MulSub(const float* g, const float* a, const float* b, float* o,
            int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * (a[i] - b[i]);
}
void MulOneMinus(const float* g, const float* z, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * (1.0f - z[i]);
}

void Axpy(float a, const float* x, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += a * x[i];
}
void AxpyRows(const float* coef, const float* const* rows, int64_t count,
              float* dst, int64_t n) {
  for (int64_t e = 0; e < count; ++e) {
    if (coef[e] != 0.0f) Axpy(coef[e], rows[e], dst, n);
  }
}
void Scale(float* dst, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= s;
}
double Dot(const float* a, const float* b, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}
double Sum(const float* a, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

void GruBlend(const float* z, const float* h, const float* c, float* o,
              int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = z[i] * h[i] + (1.0f - z[i]) * c[i];
}

/// The two-branch stable sigmoid as a scalar expression, shared by the
/// fused kernels so their per-element bits equal the sigmoid kernel's.
inline float SigmoidScalar(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

void SigmoidMul(const float* a, const float* b, float* o, float* r_out,
                int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float r = SigmoidScalar(a[i]);
    if (r_out != nullptr) r_out[i] = r;
    o[i] = r * b[i];
  }
}

void GruTail(const float* gz, const float* h, const float* c, float* o,
             float* z_out, float* t_out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float z = SigmoidScalar(gz[i]);
    const float t = std::tanh(c[i]);
    if (z_out != nullptr) z_out[i] = z;
    if (t_out != nullptr) t_out[i] = t;
    o[i] = z * h[i] + (1.0f - z) * t;  // same association as GruBlend
  }
}

void SigmoidMulGrad(const float* gh, const float* r, const float* h,
                    float* dg, float* dh, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dg[i] = (gh[i] * h[i]) * (r[i] * (1.0f - r[i]));
    dh[i] = gh[i] * r[i];
  }
}

void GruTailGrad(const float* g, const float* z, const float* t,
                 const float* h, float* dgz, float* dh, float* dc,
                 int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dgz[i] = (g[i] * (h[i] - t[i])) * (z[i] * (1.0f - z[i]));
    dh[i] = g[i] * z[i];
    dc[i] = (g[i] * (1.0f - z[i])) * (1.0f - t[i] * t[i]);
  }
}

void GruStep(const float* xi, const float* hh, const float* h, float* o,
             float* r_out, float* z_out, float* n_out, int64_t h_len) {
  for (int64_t i = 0; i < h_len; ++i) {
    const float r = SigmoidScalar(xi[i] + hh[i]);
    const float z = SigmoidScalar(xi[h_len + i] + hh[h_len + i]);
    const float nc = std::tanh(xi[2 * h_len + i] + r * hh[2 * h_len + i]);
    if (r_out != nullptr) r_out[i] = r;
    if (z_out != nullptr) z_out[i] = z;
    if (n_out != nullptr) n_out[i] = nc;
    o[i] = z * h[i] + (1.0f - z) * nc;
  }
}

void GruStepGrad(const float* g, const float* r, const float* z,
                 const float* nc, const float* h, const float* hh_n,
                 float* dxi, float* dhh, float* dh, int64_t h_len) {
  for (int64_t i = 0; i < h_len; ++i) {
    const float gi = g[i];
    const float zi = z[i];
    const float ri = r[i];
    const float ni = nc[i];
    const float dz_pre = (gi * (h[i] - ni)) * (zi * (1.0f - zi));
    const float dn_pre = (gi * (1.0f - zi)) * (1.0f - ni * ni);
    const float dr_pre = (dn_pre * hh_n[i]) * (ri * (1.0f - ri));
    dxi[i] = dr_pre;
    dxi[h_len + i] = dz_pre;
    dxi[2 * h_len + i] = dn_pre;
    dhh[i] = dr_pre;
    dhh[h_len + i] = dz_pre;
    dhh[2 * h_len + i] = dn_pre * ri;
    dh[i] = gi * zi;
  }
}

MaskedErrAcc MaskedErr(const float* pred, const float* truth, int64_t n,
                       double mape_floor) {
  MaskedErrAcc acc;
  for (int64_t i = 0; i < n; ++i) {
    if (truth[i] == 0.0f) continue;  // missing-reading convention
    const double truth_i = truth[i];
    const double err = static_cast<double>(pred[i]) - truth_i;
    acc.abs += std::fabs(err);
    acc.sq += err * err;
    if (std::fabs(truth_i) >= mape_floor) {
      acc.ape += std::fabs(err) / std::fabs(truth_i);
      ++acc.ape_count;
    }
    ++acc.count;
  }
  return acc;
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels table = {
      .add = Add,
      .sub = Sub,
      .mul = Mul,
      .div = Div,
      .vmax = VMax,
      .vmin = VMin,
      .add_s = AddS,
      .sub_s = SubS,
      .rsub_s = RSubS,
      .mul_s = MulS,
      .div_s = DivS,
      .rdiv_s = RDivS,
      .max_s = MaxS,
      .min_s = MinS,
      .acc_add = AccAdd,
      .max_into = MaxInto,
      .neg = Neg,
      .vabs = VAbs,
      .relu = Relu,
      .vsqrt = VSqrt,
      .vexp = VExp,
      .sigmoid = Sigmoid,
      .vtanh = VTanh,
      .sigmoid_grad = SigmoidGrad,
      .tanh_grad = TanhGrad,
      .relu_grad = ReluGrad,
      .mul_sub = MulSub,
      .mul_one_minus = MulOneMinus,
      .axpy = Axpy,
      .axpy_rows = AxpyRows,
      .scale = Scale,
      .dot = Dot,
      .sum = Sum,
      .gru_blend = GruBlend,
      .sigmoid_mul = SigmoidMul,
      .gru_tail = GruTail,
      .sigmoid_mul_grad = SigmoidMulGrad,
      .gru_tail_grad = GruTailGrad,
      .gru_step = GruStep,
      .gru_step_grad = GruStepGrad,
      .masked_err = MaskedErr,
  };
  return table;
}

}  // namespace sagdfn::tensor::simd::internal
