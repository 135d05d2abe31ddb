#include "tensor/qgemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/qgemm_kernels.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define MEANET_QGEMM_SSE2 1
#endif

namespace meanet::ops {

namespace {

thread_local bool t_quantized_inference = false;

// The quantize/pack helpers below are the int8 path's real per-element
// cost (the integer GEMM itself is cheap), so on x86-64 they run on
// baseline SSE2 — no dispatch needed, and _mm_cvtps_epi32 rounds
// nearest-even exactly like lrintf, so the vector bodies and the
// scalar tails/fallbacks produce identical codes.

/// One 16-column panel group done by hand (tail panels, k tail).
void pack_group_scalar(const std::uint8_t* act, int k, int n, int jb, int nr, int g,
                       std::uint8_t* dst) {
  for (int j = 0; j < 16; ++j) {
    for (int kk = 0; kk < 4; ++kk) {
      const int p = 4 * g + kk;
      dst[j * 4 + kk] =
          (j < nr && p < k) ? act[static_cast<std::ptrdiff_t>(p) * n + (jb + j)] : 0;
    }
  }
}

/// Packs the u8 activation matrix [k, n] into 16-column panels of
/// 4-deep k groups (the vpdpbusd operand layout — see qgemm_kernels.h).
/// Zero-fills past k and past n: the matching weight bytes are
/// zero-padded too, so padded lanes contribute exact zeros.
void pack_activations(const std::uint8_t* act, int k, int n, int kgroups, std::uint8_t* pack) {
  const int full_groups = k / 4;  // groups whose four rows all exist
  for (int jb = 0; jb < n; jb += 16) {
    const int nr = std::min(16, n - jb);
    std::uint8_t* panel = pack + static_cast<std::ptrdiff_t>(jb / 16) * kgroups * 64;
#if MEANET_QGEMM_SSE2
    if (nr == 16) {
      for (int g = 0; g < full_groups; ++g) {
        // 4x16 byte transpose: rows 4g..4g+3, columns jb..jb+15.
        const std::uint8_t* row = act + static_cast<std::ptrdiff_t>(4 * g) * n + jb;
        const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
        const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + n));
        const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 2 * n));
        const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 3 * n));
        const __m128i ab_lo = _mm_unpacklo_epi8(a, b);
        const __m128i ab_hi = _mm_unpackhi_epi8(a, b);
        const __m128i cd_lo = _mm_unpacklo_epi8(c, d);
        const __m128i cd_hi = _mm_unpackhi_epi8(c, d);
        std::uint8_t* dst = panel + static_cast<std::ptrdiff_t>(g) * 64;
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm_unpacklo_epi16(ab_lo, cd_lo));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                         _mm_unpackhi_epi16(ab_lo, cd_lo));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                         _mm_unpacklo_epi16(ab_hi, cd_hi));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                         _mm_unpackhi_epi16(ab_hi, cd_hi));
      }
      for (int g = full_groups; g < kgroups; ++g) {
        pack_group_scalar(act, k, n, jb, nr, g, panel + static_cast<std::ptrdiff_t>(g) * 64);
      }
      continue;
    }
#endif
    for (int g = 0; g < kgroups; ++g) {
      pack_group_scalar(act, k, n, jb, nr, g, panel + static_cast<std::ptrdiff_t>(g) * 64);
    }
  }
}

/// max|x| over a float span (the shared scan of both quantizers).
float max_abs_span(const float* x, std::size_t n) {
  float max_abs = 0.0f;
  std::size_t i = 0;
#if MEANET_QGEMM_SSE2
  const __m128 sign_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  // Four independent accumulators hide the maxps latency chain.
  __m128 best0 = _mm_setzero_ps();
  __m128 best1 = _mm_setzero_ps();
  __m128 best2 = _mm_setzero_ps();
  __m128 best3 = _mm_setzero_ps();
  for (; i + 16 <= n; i += 16) {
    best0 = _mm_max_ps(best0, _mm_and_ps(_mm_loadu_ps(x + i), sign_mask));
    best1 = _mm_max_ps(best1, _mm_and_ps(_mm_loadu_ps(x + i + 4), sign_mask));
    best2 = _mm_max_ps(best2, _mm_and_ps(_mm_loadu_ps(x + i + 8), sign_mask));
    best3 = _mm_max_ps(best3, _mm_and_ps(_mm_loadu_ps(x + i + 12), sign_mask));
  }
  for (; i + 4 <= n; i += 4) {
    best0 = _mm_max_ps(best0, _mm_and_ps(_mm_loadu_ps(x + i), sign_mask));
  }
  const __m128 best = _mm_max_ps(_mm_max_ps(best0, best1), _mm_max_ps(best2, best3));
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, best);
  max_abs = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
#endif
  for (; i < n; ++i) max_abs = std::max(max_abs, std::fabs(x[i]));
  return max_abs;
}

/// Reference tier: same s32 accumulation and the same fused
/// multiply-add epilogue as the VNNI kernels, so results are
/// bit-identical across tiers (integer dot products are exact; the
/// only float ops are one int->float convert and one fma per output).
void qgemm_scalar(int rows, int n, int k, int k_padded, const std::int8_t* wq,
                  const float* scales, const std::int32_t* row_sums, const std::uint8_t* act,
                  float a_scale, const float* bias, float* c, int ldc) {
  for (int r = 0; r < rows; ++r) {
    const std::int8_t* w_row = wq + static_cast<std::ptrdiff_t>(r) * k_padded;
    const float cs = scales[r] * a_scale;
    const std::int32_t zpc = 128 * row_sums[r];
    const float b = bias != nullptr ? bias[r] : 0.0f;
    float* c_row = c + static_cast<std::ptrdiff_t>(r) * ldc;
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(act[static_cast<std::ptrdiff_t>(p) * n + j]) *
               static_cast<std::int32_t>(w_row[p]);
      }
      c_row[j] = std::fma(static_cast<float>(acc - zpc), cs, b);
    }
  }
}

}  // namespace

bool quantized_inference() { return t_quantized_inference; }

void set_quantized_inference(bool on) { t_quantized_inference = on; }

void quantize_weight_rows(const float* w, int rows, int cols, std::int8_t* wq, float* scales,
                          std::int32_t* row_sums) {
  const int k_padded = quantized_k_padded(cols);
  for (int r = 0; r < rows; ++r) {
    const float* src = w + static_cast<std::ptrdiff_t>(r) * cols;
    const float max_abs = max_abs_span(src, static_cast<std::size_t>(cols));
    const float scale = max_abs / 127.0f;
    const float inv = max_abs > 0.0f ? 127.0f / max_abs : 0.0f;
    std::int8_t* dst = wq + static_cast<std::ptrdiff_t>(r) * k_padded;
    std::int32_t sum = 0;
    int p = 0;
#if MEANET_QGEMM_SSE2
    const __m128 vinv = _mm_set1_ps(inv);
    const __m128i lo_bound = _mm_set1_epi16(-127);
    const __m128i hi_bound = _mm_set1_epi16(127);
    __m128i vsum = _mm_setzero_si128();
    for (; p + 8 <= cols; p += 8) {
      const __m128i q0 = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + p), vinv));
      const __m128i q1 = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + p + 4), vinv));
      const __m128i clamped =
          _mm_min_epi16(hi_bound, _mm_max_epi16(lo_bound, _mm_packs_epi32(q0, q1)));
      vsum = _mm_add_epi32(vsum, _mm_madd_epi16(clamped, _mm_set1_epi16(1)));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + p), _mm_packs_epi16(clamped, clamped));
    }
    alignas(16) std::int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vsum);
    sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
#endif
    for (; p < cols; ++p) {
      const int q = static_cast<int>(std::lrintf(src[p] * inv));
      const std::int8_t code = static_cast<std::int8_t>(std::max(-127, std::min(127, q)));
      dst[p] = code;
      sum += code;
    }
    for (p = cols; p < k_padded; ++p) dst[p] = 0;
    scales[r] = scale;
    row_sums[r] = sum;
  }
}

float activation_scale(const float* x, std::size_t n) { return max_abs_span(x, n) / 127.0f; }

void quantize_activations_u8(const float* x, std::size_t n, float scale, std::uint8_t* out) {
  if (scale <= 0.0f) {
    std::memset(out, kActivationZeroPoint, n);
    return;
  }
  const float inv = 1.0f / scale;
  std::size_t i = 0;
#if MEANET_QGEMM_SSE2
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128i vzp = _mm_set1_epi32(kActivationZeroPoint);
  for (; i + 16 <= n; i += 16) {
    const __m128i q0 =
        _mm_add_epi32(_mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i), vinv)), vzp);
    const __m128i q1 =
        _mm_add_epi32(_mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 4), vinv)), vzp);
    const __m128i q2 =
        _mm_add_epi32(_mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 8), vinv)), vzp);
    const __m128i q3 =
        _mm_add_epi32(_mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 12), vinv)), vzp);
    // packs/packus saturation IS the [0, 255] clamp.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(_mm_packs_epi32(q0, q1), _mm_packs_epi32(q2, q3)));
  }
#endif
  for (; i < n; ++i) {
    const int q = static_cast<int>(std::lrintf(x[i] * inv)) + kActivationZeroPoint;
    out[i] = static_cast<std::uint8_t>(std::max(0, std::min(255, q)));
  }
}

void qgemm_u8s8(int rows, int n, int k, int k_padded, const std::int8_t* wq, const float* scales,
                const std::int32_t* row_sums, const std::uint8_t* act, float a_scale,
                const float* bias, float* c, int ldc) {
  if (rows < 0 || n < 0 || k < 0) throw std::invalid_argument("qgemm_u8s8: negative dimension");
  if (k_padded < k || k_padded % 4 != 0) {
    throw std::invalid_argument("qgemm_u8s8: k_padded must be k rounded up to a multiple of 4");
  }
  if (rows == 0 || n == 0) return;
  if (k == 0) {
    for (int r = 0; r < rows; ++r) {
      const float b = bias != nullptr ? bias[r] : 0.0f;
      float* c_row = c + static_cast<std::ptrdiff_t>(r) * ldc;
      for (int j = 0; j < n; ++j) c_row[j] = b;
    }
    return;
  }

  const Int8Kernel kernel = int8_kernel();
#if defined(__x86_64__) || defined(_M_X64)
  if (kernel != Int8Kernel::kScalar) {
    const int kgroups = k_padded / 4;
    const int n_panels = (n + 15) / 16;
    std::uint8_t* pack = Workspace::tls().byte_buffer(
        Workspace::kQuantPack,
        static_cast<std::size_t>(n_panels) * kgroups * 64);
    pack_activations(act, k, n, kgroups, pack);
    detail::QgemmArgs args;
    args.rows = rows;
    args.n = n;
    args.kgroups = kgroups;
    args.wq = wq;
    args.scales = scales;
    args.row_sums = row_sums;
    args.pack = pack;
    args.a_scale = a_scale;
    args.bias = bias;
    args.c = c;
    args.ldc = ldc;
    if (kernel == Int8Kernel::kAvx512Vnni) {
      detail::qgemm_avx512vnni(args);
    } else {
      detail::qgemm_avxvnni(args);
    }
    return;
  }
#else
  (void)kernel;
#endif
  qgemm_scalar(rows, n, k, k_padded, wq, scales, row_sums, act, a_scale, bias, c, ldc);
}

}  // namespace meanet::ops
