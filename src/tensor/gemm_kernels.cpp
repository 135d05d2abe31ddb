// Vector float microkernels. Compiled into every build; each x86 kernel
// carries a per-function target attribute so the rest of the binary
// keeps the baseline ISA, and gemm.cpp only calls it after runtime
// dispatch (tensor/simd.h) confirmed AVX2+FMA (or AVX-512F).
#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

#include <cstddef>

namespace meanet::ops::detail {

namespace {

/// Row p of a kernel's B panel: in place at b + rows[p], packed at
/// b + 16p. Each tier's body takes `in_place` as a constant from its two
/// entry points, so each instance compiles without the other's loads.
inline const float* b_row(bool in_place, const float* b, const std::ptrdiff_t* rows, int p) {
  return in_place ? b + rows[p] : b + static_cast<std::ptrdiff_t>(p) * kNR;
}

}  // namespace

#if defined(__x86_64__) || defined(_M_X64)

namespace {

__attribute__((target("avx2,fma"), always_inline)) inline void avx2_6x16(
    bool in_place, int kc, const float* apanel, const float* b, const std::ptrdiff_t* rows,
    float* c, int ldc, int mr, int nr) {
  __m256 acc[6][2];
  for (int i = 0; i < 6; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (int p = 0; p < kc; ++p, apanel += 6) {
    const float* row = b_row(in_place, b, rows, p);
    const __m256 b0 = _mm256_loadu_ps(row);
    const __m256 b1 = _mm256_loadu_ps(row + 8);
    for (int i = 0; i < 6; ++i) {
      const __m256 a = _mm256_broadcast_ss(apanel + i);
      acc[i][0] = _mm256_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b1, acc[i][1]);
    }
  }
  if (mr == 6 && nr == 16) {
    for (int i = 0; i < 6; ++i) {
      float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
      _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc[i][0]));
      _mm256_storeu_ps(c_row + 8, _mm256_add_ps(_mm256_loadu_ps(c_row + 8), acc[i][1]));
    }
    return;
  }
  alignas(32) float tile[6][16];
  for (int i = 0; i < 6; ++i) {
    _mm256_store_ps(tile[i], acc[i][0]);
    _mm256_store_ps(tile[i] + 8, acc[i][1]);
  }
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) c_row[j] += tile[i][j];
  }
}

__attribute__((target("avx512f"), always_inline)) inline void avx512_8x16(
    bool in_place, int kc, const float* apanel, const float* b, const std::ptrdiff_t* rows,
    float* c, int ldc, int mr, int nr) {
  __m512 acc[8];
  for (int i = 0; i < 8; ++i) acc[i] = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p, apanel += 8) {
    const __m512 row = _mm512_loadu_ps(b_row(in_place, b, rows, p));
    for (int i = 0; i < 8; ++i) {
      acc[i] = _mm512_fmadd_ps(_mm512_set1_ps(apanel[i]), row, acc[i]);
    }
  }
  // The same single c += acc per element as the AVX2 tile; masked-off
  // lanes are neither read nor written.
  const __mmask16 cols = static_cast<__mmask16>((1u << nr) - 1u);
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    _mm512_mask_storeu_ps(c_row, cols, _mm512_add_ps(_mm512_maskz_loadu_ps(cols, c_row), acc[i]));
  }
}

}  // namespace

__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x16(
    int kc, const float* apanel, const float* b, const std::ptrdiff_t* rows, float* c, int ldc,
    int mr, int nr) {
  avx2_6x16(false, kc, apanel, b, rows, c, ldc, mr, nr);
}

__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x16_in_place(
    int kc, const float* apanel, const float* b, const std::ptrdiff_t* rows, float* c, int ldc,
    int mr, int nr) {
  avx2_6x16(true, kc, apanel, b, rows, c, ldc, mr, nr);
}

__attribute__((target("avx512f"))) void micro_kernel_avx512_8x16(
    int kc, const float* apanel, const float* b, const std::ptrdiff_t* rows, float* c, int ldc,
    int mr, int nr) {
  avx512_8x16(false, kc, apanel, b, rows, c, ldc, mr, nr);
}

__attribute__((target("avx512f"))) void micro_kernel_avx512_8x16_in_place(
    int kc, const float* apanel, const float* b, const std::ptrdiff_t* rows, float* c, int ldc,
    int mr, int nr) {
  avx512_8x16(true, kc, apanel, b, rows, c, ldc, mr, nr);
}

#endif  // x86-64

#if defined(__aarch64__)

namespace {

inline void neon_6x16(bool in_place, int kc, const float* apanel, const float* b,
                      const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr) {
  float32x4_t acc[6][4];
  for (int i = 0; i < 6; ++i) {
    for (int q = 0; q < 4; ++q) acc[i][q] = vdupq_n_f32(0.0f);
  }
  for (int p = 0; p < kc; ++p, apanel += 6) {
    const float* row = b_row(in_place, b, rows, p);
    const float32x4_t b0 = vld1q_f32(row);
    const float32x4_t b1 = vld1q_f32(row + 4);
    const float32x4_t b2 = vld1q_f32(row + 8);
    const float32x4_t b3 = vld1q_f32(row + 12);
    for (int i = 0; i < 6; ++i) {
      const float32x4_t a = vdupq_n_f32(apanel[i]);
      acc[i][0] = vfmaq_f32(acc[i][0], a, b0);
      acc[i][1] = vfmaq_f32(acc[i][1], a, b1);
      acc[i][2] = vfmaq_f32(acc[i][2], a, b2);
      acc[i][3] = vfmaq_f32(acc[i][3], a, b3);
    }
  }
  if (mr == 6 && nr == 16) {
    for (int i = 0; i < 6; ++i) {
      float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
      for (int q = 0; q < 4; ++q) {
        vst1q_f32(c_row + 4 * q, vaddq_f32(vld1q_f32(c_row + 4 * q), acc[i][q]));
      }
    }
    return;
  }
  float tile[6][16];
  for (int i = 0; i < 6; ++i) {
    for (int q = 0; q < 4; ++q) vst1q_f32(tile[i] + 4 * q, acc[i][q]);
  }
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) c_row[j] += tile[i][j];
  }
}

}  // namespace

void micro_kernel_neon_6x16(int kc, const float* apanel, const float* b,
                            const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr) {
  neon_6x16(false, kc, apanel, b, rows, c, ldc, mr, nr);
}

void micro_kernel_neon_6x16_in_place(int kc, const float* apanel, const float* b,
                                     const std::ptrdiff_t* rows, float* c, int ldc, int mr,
                                     int nr) {
  neon_6x16(true, kc, apanel, b, rows, c, ldc, mr, nr);
}

#endif  // aarch64

}  // namespace meanet::ops::detail
