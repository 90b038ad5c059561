// AVX2+FMA kernel table. This translation unit is compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt) and must only be CALLED
// after runtime CPUID detection confirms support — simd.cc guarantees
// that.
//
// The table starts as a copy of the scalar table and overrides only the
// entries whose AVX2 body changes speed or bits (DESIGN.md §5f):
//   - transcendental or FMA-fused: vexp, sigmoid, vtanh, sigmoid_mul,
//     gru_tail, gru_step, gru_blend, axpy, axpy_rows (which also keeps
//     its output block in registers across rows);
//   - bits differ from scalar: sigmoid_grad (association), tanh_grad
//     (fnmadd), gru_tail_grad and gru_step_grad (GCC contracts their
//     `1 - t*t` into an FMA under -mfma, lanes and tails alike);
//   - lane-order reductions: dot, sum, masked_err.
// Every other entry is a single IEEE operation per element that the
// compiler vectorizes as well from the scalar loop, so it keeps the
// scalar function pointer and the scalar bits.
//
// Every elementwise kernel here computes each output element with the
// same instruction sequence regardless of its offset within the call's
// range: partial tails either run the lane kernel on a zero-padded
// block (exp/sigmoid/tanh, see Tail8) or a scalar expression with the
// same rounding behaviour (std::fma where the lanes fuse). That makes
// results bit-identical regardless of how callers partition the range
// across threads OR where an element lands inside a batch — batched and
// unbatched inference must agree byte-for-byte (tests/serve_engine_test
// pins this). The dot/sum reductions fix their lane accumulator layout
// per call instead, so equal (lo, hi) blocks always reduce identically.
//
// exp/sigmoid/tanh use a Cephes-style polynomial exp (~2 ulp over the
// clamped range) rather than libm, so they differ from the scalar level
// within the tolerance pinned by tests/simd_test.cc.
#include "tensor/simd_internal.h"

#if defined(SAGDFN_SIMD_AVX2_TU)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

namespace sagdfn::tensor::simd::internal {
namespace {

// ---------------------------------------------------------------------------
// Vectorized exp (Cephes expf constants, as used by avx_mathfun and the
// usual SIMD math libraries). Preserves the IEEE edge cases the model
// relies on: overflow to +inf, underflow to 0, NaN propagation.
// ---------------------------------------------------------------------------

inline __m256 ExpPs(__m256 x) {
  const __m256 exp_hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 exp_lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  // Remember the out-of-range lanes before clamping.
  const __m256 overflow = _mm256_cmp_ps(x, exp_hi, _CMP_GT_OQ);
  const __m256 underflow = _mm256_cmp_ps(x, exp_lo, _CMP_LT_OQ);
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);

  __m256 xc = _mm256_min_ps(_mm256_max_ps(x, exp_lo), exp_hi);

  // n = round(x * log2(e)); r = x - n*ln2 (split-constant Cody-Waite).
  __m256 fx = _mm256_round_ps(
      _mm256_mul_ps(xc, log2e),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fx, c1, xc);
  r = _mm256_fnmadd_ps(fx, c2, r);
  const __m256 r2 = _mm256_mul_ps(r, r);

  __m256 y = p0;
  y = _mm256_fmadd_ps(y, r, p1);
  y = _mm256_fmadd_ps(y, r, p2);
  y = _mm256_fmadd_ps(y, r, p3);
  y = _mm256_fmadd_ps(y, r, p4);
  y = _mm256_fmadd_ps(y, r, p5);
  y = _mm256_fmadd_ps(y, r2, _mm256_add_ps(r, one));

  // Scale by 2^n through the exponent bits.
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));

  y = _mm256_blendv_ps(y, _mm256_set1_ps(HUGE_VALF), overflow);
  y = _mm256_blendv_ps(y, _mm256_setzero_ps(), underflow);
  y = _mm256_blendv_ps(y, x, nan_mask);  // propagate the original NaN
  return y;
}

inline __m256 AbsPs(__m256 x) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
}

// Stable two-branch sigmoid, vectorized: z = e^{-|x|} <= 1, then
// x >= 0 -> 1/(1+z), x < 0 -> z/(1+z). NaN propagates the input.
inline __m256 SigmoidPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 z = ExpPs(_mm256_xor_ps(AbsPs(x), _mm256_set1_ps(-0.0f)));
  const __m256 denom = _mm256_add_ps(one, z);
  const __m256 nonneg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 num = _mm256_blendv_ps(z, one, nonneg);
  __m256 y = _mm256_div_ps(num, denom);
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  return _mm256_blendv_ps(y, x, nan_mask);
}

// tanh(|x|) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}), sign restored at the
// end; e^{-2|x|} <= 1 so there is no overflow anywhere.
inline __m256 TanhPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ax = AbsPs(x);
  const __m256 t = ExpPs(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0f)));
  __m256 y = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
  y = _mm256_or_ps(y, _mm256_and_ps(x, _mm256_set1_ps(-0.0f)));
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  return _mm256_blendv_ps(y, x, nan_mask);
}

// Runs a lane kernel over a partial block (rem < 8) by padding the
// input with zeros, so tail elements execute the exact instruction
// sequence a full lane would. A libm tail here would make an element's
// bits depend on its offset within the call range, which breaks the
// partition-independence contract in the header comment.
template <typename Fn>
inline void Tail8(Fn fn, const float* a, float* o, int64_t rem) {
  alignas(32) float in[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  alignas(32) float out[8];
  for (int64_t k = 0; k < rem; ++k) in[k] = a[k];
  _mm256_store_ps(out, fn(_mm256_load_ps(in)));
  for (int64_t k = 0; k < rem; ++k) o[k] = out[k];
}

void VExp(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, ExpPs(_mm256_loadu_ps(a + i)));
  }
  if (i < n) Tail8([](__m256 x) { return ExpPs(x); }, a + i, o + i, n - i);
}
void Sigmoid(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, SigmoidPs(_mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    Tail8([](__m256 x) { return SigmoidPs(x); }, a + i, o + i, n - i);
  }
}
void VTanh(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, TanhPs(_mm256_loadu_ps(a + i)));
  }
  if (i < n) Tail8([](__m256 x) { return TanhPs(x); }, a + i, o + i, n - i);
}

void SigmoidGrad(const float* g, const float* out, float* o, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s = _mm256_loadu_ps(out + i);
    const __m256 d = _mm256_mul_ps(s, _mm256_sub_ps(one, s));
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  // Same association as the lanes: g * (s * (1 - s)).
  for (; i < n; ++i) o[i] = g[i] * (out[i] * (1.0f - out[i]));
}
void TanhGrad(const float* g, const float* out, float* o, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_loadu_ps(out + i);
    const __m256 d = _mm256_fnmadd_ps(t, t, one);  // 1 - t*t
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  // std::fma mirrors the lanes' fnmadd rounding (one rounding, not two).
  for (; i < n; ++i) o[i] = g[i] * std::fma(-out[i], out[i], 1.0f);
}

void Axpy(float a, const float* x, float* dst, int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                     _mm256_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) dst[i] = std::fma(a, x[i], dst[i]);
}

/// One kLanes*8-column block of AxpyRows: dst[0, 8*kLanes) is loaded into
/// ymm accumulators once, takes one fmadd per nonzero coefficient, and is
/// stored once. Per lane that is Axpy's fmadd sequence without the
/// intermediate stores, which round nothing.
template <int kLanes>
inline void AxpyRowsBlock(const float* coef, const float* const* rows,
                          int64_t count, float* dst, int64_t col) {
  __m256 acc[kLanes];
  for (int v = 0; v < kLanes; ++v) acc[v] = _mm256_loadu_ps(dst + 8 * v);
  for (int64_t e = 0; e < count; ++e) {
    if (coef[e] == 0.0f) continue;
    const __m256 va = _mm256_set1_ps(coef[e]);
    const float* x = rows[e] + col;
    for (int v = 0; v < kLanes; ++v) {
      acc[v] = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + 8 * v), acc[v]);
    }
  }
  for (int v = 0; v < kLanes; ++v) _mm256_storeu_ps(dst + 8 * v, acc[v]);
}

void AxpyRows(const float* coef, const float* const* rows, int64_t count,
              float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    AxpyRowsBlock<8>(coef, rows, count, dst + i, i);
  }
  if (i + 32 <= n) {
    AxpyRowsBlock<4>(coef, rows, count, dst + i, i);
    i += 32;
  }
  if (i + 16 <= n) {
    AxpyRowsBlock<2>(coef, rows, count, dst + i, i);
    i += 16;
  }
  if (i + 8 <= n) {
    AxpyRowsBlock<1>(coef, rows, count, dst + i, i);
    i += 8;
  }
  // std::fma mirrors the lanes' single rounding, as in Axpy's tail.
  for (; i < n; ++i) {
    float d = dst[i];
    for (int64_t e = 0; e < count; ++e) {
      if (coef[e] != 0.0f) d = std::fma(coef[e], rows[e][i], d);
    }
    dst[i] = d;
  }
}

/// Sums the four doubles of `v` in fixed lane order.
inline double HSum4(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

double Dot(const float* a, const float* b, int64_t n) {
  // Products are widened to double BEFORE accumulating, matching the
  // scalar level's (double)a * (double)b precision; only the lane
  // interleaving differs, which stays within the cross-level tolerance.
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(va)),
        _mm256_cvtps_pd(_mm256_castps256_ps128(vb)), acc_lo);
    acc_hi = _mm256_fmadd_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
        _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)), acc_hi);
  }
  double acc = HSum4(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}
double Sum(const float* a, int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    acc_lo = _mm256_add_pd(acc_lo,
                           _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc_hi = _mm256_add_pd(acc_hi,
                           _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double acc = HSum4(_mm256_add_pd(acc_lo, acc_hi));
  for (; i < n; ++i) acc += a[i];
  return acc;
}

void GruBlend(const float* z, const float* h, const float* c, float* o,
              int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vz = _mm256_loadu_ps(z + i);
    const __m256 vh = _mm256_loadu_ps(h + i);
    const __m256 vc = _mm256_loadu_ps(c + i);
    const __m256 blended = _mm256_fmadd_ps(
        vz, vh, _mm256_mul_ps(_mm256_sub_ps(one, vz), vc));
    _mm256_storeu_ps(o + i, blended);
  }
  for (; i < n; ++i) o[i] = std::fma(z[i], h[i], (1.0f - z[i]) * c[i]);
}

/// Copies `rem` (< 8) floats into a zero-padded aligned lane block. The
/// fused sigmoid/tanh kernels run their full lane body over these pads so
/// tail elements get the exact bits a full lane would (same contract as
/// Tail8, extended to multi-input kernels).
inline __m256 PadLoad(const float* a, int64_t rem) {
  alignas(32) float in[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t k = 0; k < rem; ++k) in[k] = a[k];
  return _mm256_load_ps(in);
}

inline void PadStore(float* o, __m256 v, int64_t rem) {
  if (o == nullptr) return;
  alignas(32) float out[8];
  _mm256_store_ps(out, v);
  for (int64_t k = 0; k < rem; ++k) o[k] = out[k];
}

void SigmoidMul(const float* a, const float* b, float* o, float* r_out,
                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = SigmoidPs(_mm256_loadu_ps(a + i));
    if (r_out != nullptr) _mm256_storeu_ps(r_out + i, r);
    _mm256_storeu_ps(o + i, _mm256_mul_ps(r, _mm256_loadu_ps(b + i)));
  }
  if (i < n) {
    const int64_t rem = n - i;
    const __m256 r = SigmoidPs(PadLoad(a + i, rem));
    PadStore(r_out == nullptr ? nullptr : r_out + i, r, rem);
    PadStore(o + i, _mm256_mul_ps(r, PadLoad(b + i, rem)), rem);
  }
}

void GruTail(const float* gz, const float* h, const float* c, float* o,
             float* z_out, float* t_out, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 z = SigmoidPs(_mm256_loadu_ps(gz + i));
    const __m256 t = TanhPs(_mm256_loadu_ps(c + i));
    if (z_out != nullptr) _mm256_storeu_ps(z_out + i, z);
    if (t_out != nullptr) _mm256_storeu_ps(t_out + i, t);
    // Same blend sequence as GruBlend, so fused == unfused bit-for-bit.
    const __m256 blended = _mm256_fmadd_ps(
        z, _mm256_loadu_ps(h + i), _mm256_mul_ps(_mm256_sub_ps(one, z), t));
    _mm256_storeu_ps(o + i, blended);
  }
  if (i < n) {
    const int64_t rem = n - i;
    const __m256 z = SigmoidPs(PadLoad(gz + i, rem));
    const __m256 t = TanhPs(PadLoad(c + i, rem));
    PadStore(z_out == nullptr ? nullptr : z_out + i, z, rem);
    PadStore(t_out == nullptr ? nullptr : t_out + i, t, rem);
    const __m256 blended = _mm256_fmadd_ps(
        z, PadLoad(h + i, rem), _mm256_mul_ps(_mm256_sub_ps(one, z), t));
    PadStore(o + i, blended, rem);
  }
}

void GruTailGrad(const float* g, const float* z, const float* t,
                 const float* h, float* dgz, float* dh, float* dc,
                 int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vg = _mm256_loadu_ps(g + i);
    const __m256 vz = _mm256_loadu_ps(z + i);
    const __m256 vt = _mm256_loadu_ps(t + i);
    const __m256 dzs = _mm256_mul_ps(vz, _mm256_sub_ps(one, vz));
    _mm256_storeu_ps(
        dgz + i,
        _mm256_mul_ps(
            _mm256_mul_ps(vg, _mm256_sub_ps(_mm256_loadu_ps(h + i), vt)),
            dzs));
    _mm256_storeu_ps(dh + i, _mm256_mul_ps(vg, vz));
    _mm256_storeu_ps(
        dc + i,
        _mm256_mul_ps(_mm256_mul_ps(vg, _mm256_sub_ps(one, vz)),
                      _mm256_sub_ps(one, _mm256_mul_ps(vt, vt))));
  }
  for (; i < n; ++i) {
    dgz[i] = (g[i] * (h[i] - t[i])) * (z[i] * (1.0f - z[i]));
    dh[i] = g[i] * z[i];
    dc[i] = (g[i] * (1.0f - z[i])) * (1.0f - t[i] * t[i]);
  }
}

void GruStep(const float* xi, const float* hh, const float* h, float* o,
             float* r_out, float* z_out, float* n_out, int64_t h_len) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const float* xi_z = xi + h_len;
  const float* xi_n = xi + 2 * h_len;
  const float* hh_z = hh + h_len;
  const float* hh_n = hh + 2 * h_len;
  int64_t i = 0;
  for (; i + 8 <= h_len; i += 8) {
    const __m256 r = SigmoidPs(
        _mm256_add_ps(_mm256_loadu_ps(xi + i), _mm256_loadu_ps(hh + i)));
    const __m256 z = SigmoidPs(
        _mm256_add_ps(_mm256_loadu_ps(xi_z + i), _mm256_loadu_ps(hh_z + i)));
    const __m256 nc = TanhPs(_mm256_fmadd_ps(r, _mm256_loadu_ps(hh_n + i),
                                             _mm256_loadu_ps(xi_n + i)));
    if (r_out != nullptr) _mm256_storeu_ps(r_out + i, r);
    if (z_out != nullptr) _mm256_storeu_ps(z_out + i, z);
    if (n_out != nullptr) _mm256_storeu_ps(n_out + i, nc);
    const __m256 blended = _mm256_fmadd_ps(
        z, _mm256_loadu_ps(h + i), _mm256_mul_ps(_mm256_sub_ps(one, z), nc));
    _mm256_storeu_ps(o + i, blended);
  }
  if (i < h_len) {
    const int64_t rem = h_len - i;
    const __m256 r = SigmoidPs(
        _mm256_add_ps(PadLoad(xi + i, rem), PadLoad(hh + i, rem)));
    const __m256 z = SigmoidPs(
        _mm256_add_ps(PadLoad(xi_z + i, rem), PadLoad(hh_z + i, rem)));
    const __m256 nc =
        TanhPs(_mm256_fmadd_ps(r, PadLoad(hh_n + i, rem),
                               PadLoad(xi_n + i, rem)));
    PadStore(r_out == nullptr ? nullptr : r_out + i, r, rem);
    PadStore(z_out == nullptr ? nullptr : z_out + i, z, rem);
    PadStore(n_out == nullptr ? nullptr : n_out + i, nc, rem);
    const __m256 blended = _mm256_fmadd_ps(
        z, PadLoad(h + i, rem), _mm256_mul_ps(_mm256_sub_ps(one, z), nc));
    PadStore(o + i, blended, rem);
  }
}

void GruStepGrad(const float* g, const float* r, const float* z,
                 const float* nc, const float* h, const float* hh_n,
                 float* dxi, float* dhh, float* dh, int64_t h_len) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= h_len; i += 8) {
    const __m256 vg = _mm256_loadu_ps(g + i);
    const __m256 vz = _mm256_loadu_ps(z + i);
    const __m256 vr = _mm256_loadu_ps(r + i);
    const __m256 vn = _mm256_loadu_ps(nc + i);
    const __m256 one_minus_z = _mm256_sub_ps(one, vz);
    const __m256 dz_pre = _mm256_mul_ps(
        _mm256_mul_ps(vg, _mm256_sub_ps(_mm256_loadu_ps(h + i), vn)),
        _mm256_mul_ps(vz, one_minus_z));
    const __m256 dn_pre =
        _mm256_mul_ps(_mm256_mul_ps(vg, one_minus_z),
                      _mm256_sub_ps(one, _mm256_mul_ps(vn, vn)));
    const __m256 dr_pre = _mm256_mul_ps(
        _mm256_mul_ps(dn_pre, _mm256_loadu_ps(hh_n + i)),
        _mm256_mul_ps(vr, _mm256_sub_ps(one, vr)));
    _mm256_storeu_ps(dxi + i, dr_pre);
    _mm256_storeu_ps(dxi + h_len + i, dz_pre);
    _mm256_storeu_ps(dxi + 2 * h_len + i, dn_pre);
    _mm256_storeu_ps(dhh + i, dr_pre);
    _mm256_storeu_ps(dhh + h_len + i, dz_pre);
    _mm256_storeu_ps(dhh + 2 * h_len + i, _mm256_mul_ps(dn_pre, vr));
    _mm256_storeu_ps(dh + i, _mm256_mul_ps(vg, vz));
  }
  for (; i < h_len; ++i) {
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
  const __m256d zero_d = _mm256_setzero_pd();
  const __m256d one_d = _mm256_set1_pd(1.0);
  const __m256d floor_d = _mm256_set1_pd(mape_floor);
  const __m256d sign_d = _mm256_set1_pd(-0.0);
  __m256d abs_acc = zero_d, sq_acc = zero_d, ape_acc = zero_d;
  int64_t count = 0, ape_count = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d td = _mm256_cvtps_pd(_mm_loadu_ps(truth + i));
    const __m256d pd = _mm256_cvtps_pd(_mm_loadu_ps(pred + i));
    // truth != 0, unordered (NaN truth stays included, like the scalar
    // `truth[i] == 0.0f` skip which is false for NaN).
    const __m256d m_nz = _mm256_cmp_pd(td, zero_d, _CMP_NEQ_UQ);
    const __m256d err = _mm256_sub_pd(pd, td);
    const __m256d abs_err = _mm256_andnot_pd(sign_d, err);
    const __m256d abs_t = _mm256_andnot_pd(sign_d, td);
    abs_acc = _mm256_add_pd(abs_acc, _mm256_and_pd(abs_err, m_nz));
    const __m256d err_masked = _mm256_and_pd(err, m_nz);
    sq_acc = _mm256_fmadd_pd(err_masked, err_masked, sq_acc);
    count += _mm_popcnt_u32(
        static_cast<unsigned>(_mm256_movemask_pd(m_nz)));
    // |truth| >= floor, ordered (NaN truth drops out of MAPE, matching
    // the scalar fabs(truth) >= floor which is false for NaN).
    const __m256d m_ape = _mm256_cmp_pd(abs_t, floor_d, _CMP_GE_OQ);
    const __m256d safe_t = _mm256_blendv_pd(one_d, abs_t, m_ape);
    ape_acc = _mm256_add_pd(
        ape_acc, _mm256_and_pd(_mm256_div_pd(abs_err, safe_t), m_ape));
    ape_count += _mm_popcnt_u32(
        static_cast<unsigned>(_mm256_movemask_pd(m_ape)));
  }
  acc.abs = HSum4(abs_acc);
  acc.sq = HSum4(sq_acc);
  acc.ape = HSum4(ape_acc);
  acc.count = count;
  acc.ape_count = ape_count;
  for (; i < n; ++i) {
    if (truth[i] == 0.0f) continue;
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

bool Avx2CompiledIn() { return true; }

const Kernels& Avx2Kernels() {
  static const Kernels table = [] {
    Kernels k = ScalarKernels();
    k.vexp = VExp;
    k.sigmoid = Sigmoid;
    k.vtanh = VTanh;
    k.sigmoid_grad = SigmoidGrad;
    k.tanh_grad = TanhGrad;
    k.axpy = Axpy;
    k.axpy_rows = AxpyRows;
    k.dot = Dot;
    k.sum = Sum;
    k.gru_blend = GruBlend;
    k.sigmoid_mul = SigmoidMul;
    k.gru_tail = GruTail;
    k.gru_tail_grad = GruTailGrad;
    k.gru_step = GruStep;
    k.gru_step_grad = GruStepGrad;
    k.masked_err = MaskedErr;
    return k;
  }();
  return table;
}

}  // namespace sagdfn::tensor::simd::internal

#else  // !SAGDFN_SIMD_AVX2_TU

namespace sagdfn::tensor::simd::internal {

bool Avx2CompiledIn() { return false; }

const Kernels& Avx2Kernels() { return ScalarKernels(); }

}  // namespace sagdfn::tensor::simd::internal

#endif  // SAGDFN_SIMD_AVX2_TU
