#ifndef SAGDFN_TENSOR_SIMD_H_
#define SAGDFN_TENSOR_SIMD_H_

#include <cstdint>

namespace sagdfn::tensor::simd {

/// Instruction-set tier for the hot-path kernels.
///
/// Resolved once at startup (first kernel use): runtime CPUID detection
/// picks kAvx2 when the CPU reports AVX2+FMA, overridable with the
/// SAGDFN_SIMD environment variable:
///   SAGDFN_SIMD=off    force the portable scalar kernels
///   SAGDFN_SIMD=avx2   require AVX2 (falls back to scalar with a warning
///                      when the CPU or build lacks it)
///   SAGDFN_SIMD=auto   CPUID detection (the default)
///
/// Determinism contract (DESIGN.md §5f): for a FIXED level, every kernel
/// is bit-identical across thread counts, runs, and an element's offset
/// within the call. The kAvx2 table overrides only the 16 entries whose
/// AVX2 body changes speed or bits (vectorized exp/sigmoid/tanh and the
/// GRU fusions on them, FMA-fused axpy/gru_blend, register-resident
/// axpy_rows, four backward kernels whose rounding differs, the
/// dot/sum/masked_err reductions); the other 25 are the scalar
/// functions. Levels agree with each other to tight tolerance, which the
/// `simd`-labeled test suite pins. The scalar level is the reference
/// those tests compare against.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when this binary carries AVX2 kernels and the CPU supports them.
bool Avx2Available();

/// The level in effect (resolves env/CPUID on first call).
Level ActiveLevel();

/// Overrides the active level (tests and A/B benches). Passing kAvx2 on a
/// machine without AVX2 support keeps the scalar table and returns false.
/// Not thread-safe against in-flight kernels: call between parallel
/// regions, like SetNumThreads.
bool SetActiveLevel(Level level);

/// "scalar" or "avx2".
const char* LevelName(Level level);

/// Parses a SAGDFN_SIMD value ("off"/"scalar" -> kScalar, "avx2" -> kAvx2,
/// "auto"/"" -> detected level). Unknown values fall back to detection.
Level LevelFromString(const char* value);

/// Per-block partial for the masked error reduction behind the metrics
/// (MAE/RMSE/MAPE over non-missing entries; see metrics/metrics.cc).
struct MaskedErrAcc {
  double abs = 0.0;       // sum |pred - truth|        over truth != 0
  double sq = 0.0;        // sum (pred - truth)^2      over truth != 0
  double ape = 0.0;       // sum |err| / |truth|       over |truth| >= floor
  int64_t count = 0;      // entries with truth != 0
  int64_t ape_count = 0;  // entries with |truth| >= floor
};

/// Dispatch table of contiguous-array kernels. One table per Level; all
/// entries are non-null. Pointers operate on raw float arrays — callers
/// (tensor_ops, autograd backwards, metrics, optim) own the slicing,
/// broadcasting, and parallel partitioning. vmax/vmin/max_s/min_s compute
/// exactly std::max(a, b) / std::min(a, b), NaN and ±0 order included.
struct Kernels {
  // -- Elementwise binary: o[i] = a[i] OP b[i] ------------------------------
  void (*add)(const float* a, const float* b, float* o, int64_t n);
  void (*sub)(const float* a, const float* b, float* o, int64_t n);
  void (*mul)(const float* a, const float* b, float* o, int64_t n);
  void (*div)(const float* a, const float* b, float* o, int64_t n);
  void (*vmax)(const float* a, const float* b, float* o, int64_t n);
  void (*vmin)(const float* a, const float* b, float* o, int64_t n);

  // -- Elementwise with a broadcast scalar ----------------------------------
  void (*add_s)(const float* a, float s, float* o, int64_t n);   // a + s
  void (*sub_s)(const float* a, float s, float* o, int64_t n);   // a - s
  void (*rsub_s)(const float* a, float s, float* o, int64_t n);  // s - a
  void (*mul_s)(const float* a, float s, float* o, int64_t n);   // a * s
  void (*div_s)(const float* a, float s, float* o, int64_t n);   // a / s
  void (*rdiv_s)(const float* a, float s, float* o, int64_t n);  // s / a
  void (*max_s)(const float* a, float s, float* o, int64_t n);
  void (*min_s)(const float* a, float s, float* o, int64_t n);

  // -- In-place accumulation (reduction inner loops) ------------------------
  void (*acc_add)(float* dst, const float* src, int64_t n);   // dst += src
  void (*max_into)(float* dst, const float* src, int64_t n);  // dst=max(.,src)

  // -- Elementwise unary ----------------------------------------------------
  void (*neg)(const float* a, float* o, int64_t n);
  void (*vabs)(const float* a, float* o, int64_t n);
  void (*relu)(const float* a, float* o, int64_t n);
  void (*vsqrt)(const float* a, float* o, int64_t n);
  void (*vexp)(const float* a, float* o, int64_t n);
  void (*sigmoid)(const float* a, float* o, int64_t n);
  void (*vtanh)(const float* a, float* o, int64_t n);

  // -- Fused autograd backward kernels --------------------------------------
  /// o = g * out * (1 - out)   (sigmoid backward; `out` is the fwd value)
  void (*sigmoid_grad)(const float* g, const float* out, float* o, int64_t n);
  /// o = g * (1 - out^2)       (tanh backward)
  void (*tanh_grad)(const float* g, const float* out, float* o, int64_t n);
  /// o = x > 0 ? g : 0         (relu backward; `x` is the fwd input)
  void (*relu_grad)(const float* g, const float* x, float* o, int64_t n);
  /// o = g * (a - b)           (GRU blend backward wrt z)
  void (*mul_sub)(const float* g, const float* a, const float* b, float* o,
                  int64_t n);
  /// o = g * (1 - z)           (GRU blend backward wrt candidate)
  void (*mul_one_minus)(const float* g, const float* z, float* o, int64_t n);

  // -- Linear-algebra inner loops -------------------------------------------
  /// dst[i] += a * x[i]  (diffusion backward scatter row update)
  void (*axpy)(float a, const float* x, float* dst, int64_t n);
  /// dst[i] += sum_e coef[e] * rows[e][i], e ascending, coef[e] == 0
  /// (either sign) skipped. Per element exactly the sequence of `axpy`
  /// calls it replaces, so the bytes match that loop at every level; the
  /// AVX2 body keeps dst in registers across e instead of re-loading and
  /// re-storing it per row (matmul / diffusion-gather macro-kernel).
  void (*axpy_rows)(const float* coef, const float* const* rows,
                    int64_t count, float* dst, int64_t n);
  /// dst[i] *= s         (gradient rescale)
  void (*scale)(float* dst, float s, int64_t n);
  /// sum_i (double)a[i] * (double)b[i]; fixed intra-call order per level.
  double (*dot)(const float* a, const float* b, int64_t n);
  /// sum_i (double)a[i]; fixed intra-call order per level.
  double (*sum)(const float* a, int64_t n);

  // -- Model-specific fusions -----------------------------------------------
  /// o = z*h + (1-z)*c   (GRU state blend, one pass)
  void (*gru_blend)(const float* z, const float* h, const float* c, float* o,
                    int64_t n);
  /// o = sigmoid(a) * b; when r_out is non-null it also receives
  /// sigmoid(a) (training keeps the gate for backward, eval passes null).
  /// Per element this is the exact sigmoid-kernel value times b, so fusing
  /// it changes no bits vs the unfused Sigmoid -> Mul chain.
  void (*sigmoid_mul)(const float* a, const float* b, float* o, float* r_out,
                      int64_t n);
  /// Fused GConv-GRU tail: z = sigmoid(gz), t = tanh(c),
  /// o = z*h + (1-z)*t — the Sigmoid -> Tanh -> GruBlend chain in one
  /// pass. z_out / t_out are optional (null in eval). The blend uses the
  /// same instruction sequence as gru_blend, so bits match the unfused
  /// composition.
  void (*gru_tail)(const float* gz, const float* h, const float* c, float* o,
                   float* z_out, float* t_out, int64_t n);
  /// Backward of sigmoid_mul: dg = gh*h * (r*(1-r)), dh = gh*r, where r is
  /// the stored forward sigmoid and gh the incoming gradient.
  void (*sigmoid_mul_grad)(const float* gh, const float* r, const float* h,
                           float* dg, float* dh, int64_t n);
  /// Backward of gru_tail: dgz = g*(h-t) * (z*(1-z)); dh = g*z;
  /// dc = g*(1-z) * (1-t*t).
  void (*gru_tail_grad)(const float* g, const float* z, const float* t,
                        const float* h, float* dgz, float* dh, float* dc,
                        int64_t n);
  /// One full plain-GRU cell row (nn::GruCell), gates + candidate + blend
  /// in one pass. xi and hh are [r|z|n] triples of length h_len (the two
  /// affine projections), h the previous state:
  ///   r = sigmoid(xi_r + hh_r), z = sigmoid(xi_z + hh_z),
  ///   nc = tanh(xi_n + r*hh_n), o = z*h + (1-z)*nc.
  /// r_out/z_out/n_out are optional (training stores them for backward).
  void (*gru_step)(const float* xi, const float* hh, const float* h, float* o,
                   float* r_out, float* z_out, float* n_out, int64_t h_len);
  /// Fused backward of gru_step: given the output gradient g and the
  /// stored r/z/nc plus h and the hh candidate section hh_n, writes the
  /// [r|z|n] gradient rows dxi and dhh (length 3*h_len) and dh (h_len).
  void (*gru_step_grad)(const float* g, const float* r, const float* z,
                        const float* nc, const float* h, const float* hh_n,
                        float* dxi, float* dhh, float* dh, int64_t h_len);
  /// Masked error partials over one block (metrics reduction).
  MaskedErrAcc (*masked_err)(const float* pred, const float* truth, int64_t n,
                             double mape_floor);
};

/// The kernel table for an explicit level (kAvx2 requires Avx2Available()).
const Kernels& KernelsFor(Level level);

/// The active kernel table (one relaxed atomic load).
const Kernels& K();

}  // namespace sagdfn::tensor::simd

#endif  // SAGDFN_TENSOR_SIMD_H_
