// Float microkernels and conv panel packers, every tier. Compiled into
// every build; each x86 function carries a per-function target
// attribute so the rest of the binary keeps the baseline ISA, and
// gemm.cpp only calls it after runtime dispatch (tensor/simd.h)
// confirmed AVX2+FMA (or AVX-512F).
#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace meanet::ops::detail {

namespace {

/// dst[i] = row[i] (lanes null) or row[lanes[i]], +0.0f where bit i of
/// `mask` is clear: a branch-free AND of the bits.
inline void masked_row(const float* row, const std::int32_t* lanes, std::uint32_t mask,
                       float* dst) {
  for (int i = 0; i < kNR; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, row + (lanes != nullptr ? lanes[i] : i), sizeof bits);
    bits &= 0u - ((mask >> i) & 1u);
    std::memcpy(dst + i, &bits, sizeof bits);
  }
}

/// The portable 4x16 tile over a packed B panel at b, or (kPack) over
/// the consecutive conv panel `read`, whose rows it stores at b on the
/// way (b is written only then). The accumulator covers the full
/// MR x NR tile; only the valid mr x nr region is written back. 4 x 16
/// keeps it within the vector register budget of any SSE2+ target
/// while giving -O3 full unroll + vectorize freedom.
template <bool kPack>
void portable_4x16(int kc, const float* apanel, float* b, const PanelRead* read, float* c,
                   int ldc, int mr, int nr) {
  constexpr int kMR = 4;
  float acc[kMR][kNR] = {};
  for (int p = 0; p < kc; ++p, apanel += kMR, b += kNR) {
    if (kPack) masked_row(read->first + read->taps[p], nullptr, read->masks[read->kws[p]], b);
    for (int i = 0; i < kMR; ++i) {
      const float a = apanel[i];
      for (int j = 0; j < kNR; ++j) acc[i][j] += a * b[j];
    }
  }
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) c_row[j] += acc[i][j];
  }
}

}  // namespace

void micro_kernel_portable_4x16(int kc, const float* apanel, const float* b, float* c, int ldc,
                                int mr, int nr) {
  portable_4x16<false>(kc, apanel, const_cast<float*>(b), nullptr, c, ldc, mr, nr);
}

void packing_kernel_portable_4x16(const float* apanel, PanelRead read, float* b, float* c,
                                  int ldc, int mr, int nr) {
  portable_4x16<true>(read.kc, apanel, b, &read, c, ldc, mr, nr);
}

void gather_panel_portable(PanelRead read, float* dst) {
  for (int p = 0; p < read.kc; ++p, dst += kNR) {
    masked_row(read.first + read.taps[p], read.lanes, read.masks[read.kws[p]], dst);
  }
}

void transposed_panel_portable(const PanelRead* pixels, int kc, int tap, int nr, float* dst) {
  for (int p0 = 0; p0 < kc; p0 += kNR, ++pixels) {
    // The forward's k rows tap..tap+15 over these pixels; a row past nr
    // reads the first one under an empty mask.
    float rows[kNR][kNR];
    for (int r = 0; r < kNR; ++r) {
      const int t = tap + (r < nr ? r : 0);
      masked_row(pixels->first + pixels->taps[t], pixels->lanes,
                 r < nr ? pixels->masks[pixels->kws[t]] : 0u, rows[r]);
    }
    for (int i = 0, count = std::min(kNR, kc - p0); i < count; ++i, dst += kNR) {
      for (int r = 0; r < kNR; ++r) dst[r] = rows[r][i];
    }
  }
}

#if defined(__x86_64__) || defined(_M_X64)

namespace {

/// Lanes [8h, 8h+8) of a 16-bit lane mask as AVX2 lane masks (all ones
/// where the bit is set); `select` holds bits 8h..8h+7, one per lane.
__attribute__((target("avx2"), always_inline)) inline __m256 lane_mask_avx2(std::uint32_t mask,
                                                                            __m256i select) {
  const __m256i bits = _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(mask)), select);
  return _mm256_castsi256_ps(_mm256_cmpeq_epi32(bits, select));
}

/// Transposes the 8 x 8 tile held as rows r[0..7] in place.
__attribute__((target("avx2"), always_inline)) inline void transpose_8x8_avx2(__m256* r) {
  __m256 t[8], s[8];
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    t[2 * k] = _mm256_unpacklo_ps(r[2 * k], r[2 * k + 1]);
    t[2 * k + 1] = _mm256_unpackhi_ps(r[2 * k], r[2 * k + 1]);
  }
  // s[4g + j], 128-bit lane L: column 4L + j of rows 4g..4g+3.
#pragma GCC unroll 2
  for (int g = 0; g < 2; ++g) {
    s[4 * g] = _mm256_shuffle_ps(t[4 * g], t[4 * g + 2], _MM_SHUFFLE(1, 0, 1, 0));
    s[4 * g + 1] = _mm256_shuffle_ps(t[4 * g], t[4 * g + 2], _MM_SHUFFLE(3, 2, 3, 2));
    s[4 * g + 2] = _mm256_shuffle_ps(t[4 * g + 1], t[4 * g + 3], _MM_SHUFFLE(1, 0, 1, 0));
    s[4 * g + 3] = _mm256_shuffle_ps(t[4 * g + 1], t[4 * g + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    r[j] = _mm256_permute2f128_ps(s[j], s[4 + j], 0x20);
    r[4 + j] = _mm256_permute2f128_ps(s[j], s[4 + j], 0x31);
  }
}

/// The 6x16 AVX2 tile over a packed B panel at b, or (kPack) over the
/// consecutive conv panel `read`, whose masked rows it stores at b on
/// the way.
template <bool kPack>
__attribute__((target("avx2,fma"), always_inline)) inline void avx2_6x16(
    int kc, const float* apanel, float* b, const PanelRead* read, float* c, int ldc, int mr,
    int nr) {
  const __m256i select_lo = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i select_hi = _mm256_slli_epi32(select_lo, 8);
  const float* first = kPack ? read->first : nullptr;
  const std::ptrdiff_t* taps = kPack ? read->taps : nullptr;
  const std::int32_t* kws = kPack ? read->kws : nullptr;
  const std::uint16_t* masks = kPack ? read->masks : nullptr;
  __m256 acc[6][2];
  for (int i = 0; i < 6; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (int p = 0; p < kc; ++p, apanel += 6, b += kNR) {
    __m256 b0, b1;
    if (kPack) {
      const float* row = first + taps[p];
      const std::uint32_t mask = masks[kws[p]];
      b0 = _mm256_and_ps(_mm256_loadu_ps(row), lane_mask_avx2(mask, select_lo));
      b1 = _mm256_and_ps(_mm256_loadu_ps(row + 8), lane_mask_avx2(mask, select_hi));
      _mm256_storeu_ps(b, b0);
      _mm256_storeu_ps(b + 8, b1);
    } else {
      b0 = _mm256_loadu_ps(b);
      b1 = _mm256_loadu_ps(b + 8);
    }
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

/// The two vpermt2ps index vectors of one 16 x 16 transpose stage:
/// rows i and i + d (bit d of i clear) swap bit d of the row and column
/// index of every element whose two bits differ.
struct TransposeStage {
  std::int32_t lo[kNR], hi[kNR];
};

constexpr TransposeStage transpose_stage(int d) {
  TransposeStage stage{};
  for (int c = 0; c < kNR; ++c) {
    const int group = c & ~(2 * d - 1), o = c & (2 * d - 1);
    stage.lo[c] = o < d ? group + o : kNR + group + o - d;
    stage.hi[c] = o < d ? group + d + o : kNR + group + o;
  }
  return stage;
}

template <int kD>
__attribute__((target("avx512f"), always_inline)) inline void transpose_stage_avx512(__m512* r) {
  static constexpr TransposeStage kStage = transpose_stage(kD);
  const __m512i lo = _mm512_loadu_si512(kStage.lo), hi = _mm512_loadu_si512(kStage.hi);
#pragma GCC unroll 16
  for (int i = 0; i < kNR; ++i) {
    if ((i & kD) != 0) continue;
    const __m512 a = r[i], b = r[i + kD];
    r[i] = _mm512_permutex2var_ps(a, lo, b);
    r[i + kD] = _mm512_permutex2var_ps(a, hi, b);
  }
}

/// Transposes the 16 x 16 tile held as rows r[0..15] in place: four
/// stages of two-source permutes, each swapping one bit of the row and
/// column indices.
__attribute__((target("avx512f"), always_inline)) inline void transpose_16x16_avx512(__m512* r) {
  transpose_stage_avx512<8>(r);
  transpose_stage_avx512<4>(r);
  transpose_stage_avx512<2>(r);
  transpose_stage_avx512<1>(r);
}

/// The 8x16 AVX-512 tile, packed or packing like avx2_6x16. The eight
/// accumulators are named, not an array: a store through b could
/// otherwise alias an array the ragged write-back indexes, and GCC
/// then spills the accumulators on every k step.
template <bool kPack>
__attribute__((target("avx512f"), always_inline)) inline void avx512_8x16(
    int kc, const float* apanel, float* b, const PanelRead* read, float* c, int ldc, int mr,
    int nr) {
  const float* first = kPack ? read->first : nullptr;
  const std::ptrdiff_t* taps = kPack ? read->taps : nullptr;
  const std::int32_t* kws = kPack ? read->kws : nullptr;
  const std::uint16_t* masks = kPack ? read->masks : nullptr;
  __m512 acc0 = _mm512_setzero_ps(), acc1 = acc0, acc2 = acc0, acc3 = acc0, acc4 = acc0,
         acc5 = acc0, acc6 = acc0, acc7 = acc0;
  for (int p = 0; p < kc; ++p, apanel += 8, b += kNR) {
    __m512 row;
    if (kPack) {
      row = _mm512_maskz_loadu_ps(masks[kws[p]], first + taps[p]);
      _mm512_storeu_ps(b, row);
    } else {
      row = _mm512_loadu_ps(b);
    }
    acc0 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[0]), row, acc0);
    acc1 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[1]), row, acc1);
    acc2 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[2]), row, acc2);
    acc3 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[3]), row, acc3);
    acc4 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[4]), row, acc4);
    acc5 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[5]), row, acc5);
    acc6 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[6]), row, acc6);
    acc7 = _mm512_fmadd_ps(_mm512_set1_ps(apanel[7]), row, acc7);
  }
  // The same single c += acc per element as the AVX2 tile; masked-off
  // lanes are neither read nor written.
  const __m512 acc[8] = {acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7};
  const __mmask16 cols = static_cast<__mmask16>((1u << nr) - 1u);
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    _mm512_mask_storeu_ps(c_row, cols, _mm512_add_ps(_mm512_maskz_loadu_ps(cols, c_row), acc[i]));
  }
}

}  // namespace

__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x16(int kc, const float* apanel,
                                                                 const float* b, float* c,
                                                                 int ldc, int mr, int nr) {
  avx2_6x16<false>(kc, apanel, const_cast<float*>(b), nullptr, c, ldc, mr, nr);
}

__attribute__((target("avx2,fma"))) void packing_kernel_avx2_6x16(const float* apanel,
                                                                   PanelRead read, float* b,
                                                                   float* c, int ldc, int mr,
                                                                   int nr) {
  avx2_6x16<true>(read.kc, apanel, b, &read, c, ldc, mr, nr);
}

__attribute__((target("avx512f"))) void micro_kernel_avx512_8x16(int kc, const float* apanel,
                                                                  const float* b, float* c,
                                                                  int ldc, int mr, int nr) {
  avx512_8x16<false>(kc, apanel, const_cast<float*>(b), nullptr, c, ldc, mr, nr);
}

__attribute__((target("avx512f"))) void packing_kernel_avx512_8x16(const float* apanel,
                                                                    PanelRead read, float* b,
                                                                    float* c, int ldc, int mr,
                                                                    int nr) {
  avx512_8x16<true>(read.kc, apanel, b, &read, c, ldc, mr, nr);
}

__attribute__((target("avx512f"))) void gather_panel_avx512(PanelRead read, float* dst) {
  const __m512i lanes = _mm512_loadu_si512(read.lanes);
  // A lane may lie before lane 0 when output rows are wider than input
  // rows (pad > k/2): the next output row starts left of this one's end.
  int low = read.lanes[0], span = read.lanes[0] + 1;
  for (int i = 1; i < kNR; ++i) {
    low = std::min(low, read.lanes[i]);
    span = std::max(span, read.lanes[i] + 1);
  }
  if (low < 0 || span > 4 * kNR) {
    gather_panel_portable(read, dst);
    return;
  }
  // Every lane lies in the 64 floats from the row's first (a stride-2
  // panel of narrow output rows): load them, up to the last lane read,
  // and pick the lanes with two permutes, several times faster than a
  // gather instruction on hosts with the gather microcode mitigation.
  __mmask16 window[4];
  for (int w = 0; w < 4; ++w) {
    const int count = span - w * kNR;
    window[w] = static_cast<__mmask16>(count >= kNR ? 0xFFFF : count > 0 ? (1u << count) - 1u : 0);
  }
  const __m512i index = _mm512_and_si512(lanes, _mm512_set1_epi32(2 * kNR - 1));
  const __mmask16 upper = _mm512_cmpge_epi32_mask(lanes, _mm512_set1_epi32(2 * kNR));
  for (int p = 0; p < read.kc; ++p, dst += kNR) {
    const float* row = read.first + read.taps[p];
    const __mmask16 mask = read.masks[read.kws[p]];
    const __m512 lo = _mm512_permutex2var_ps(_mm512_maskz_loadu_ps(window[0], row), index,
                                             _mm512_maskz_loadu_ps(window[1], row + kNR));
    const __m512 hi = _mm512_permutex2var_ps(_mm512_maskz_loadu_ps(window[2], row + 2 * kNR),
                                             index,
                                             _mm512_maskz_loadu_ps(window[3], row + 3 * kNR));
    _mm512_storeu_ps(dst, _mm512_maskz_mov_ps(mask, _mm512_mask_blend_ps(upper, lo, hi)));
  }
}

__attribute__((target("avx2"))) void transposed_panel_avx2(const PanelRead* pixels, int kc,
                                                            int tap, int nr, float* dst) {
  const __m256i select_lo = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i select_hi = _mm256_slli_epi32(select_lo, 8);
  alignas(32) float gathered_rows[kNR * kNR];
  alignas(32) float tail[kNR * kNR];
  for (int p0 = 0; p0 < kc; p0 += kNR, ++pixels) {
    // Rows tap..tap+15 of the forward panel: loaded under their masks,
    // or gathered first; a row past nr reads the first one under an
    // empty mask.
    PanelRead piece = *pixels;
    piece.taps += tap;
    piece.kws += tap;
    piece.kc = nr;
    const bool gathered = piece.lanes != nullptr;
    if (gathered) gather_panel_portable(piece, gathered_rows);
    const int count = std::min(kNR, kc - p0);
    float* out = count == kNR ? dst : tail;
#pragma GCC unroll 2
    for (int h = 0; h < 2; ++h) {
      // Lanes 8h..8h+7 of the 16 rows: pixel 8h + i is row i of
      // half[0..7]^T followed by row i of half[8..15]^T.
      const __m256i select = h == 0 ? select_lo : select_hi;
      __m256 half[kNR];
#pragma GCC unroll 16
      for (int i = 0; i < kNR; ++i) {
        const int r = i < nr ? i : 0;
        const float* row = gathered ? gathered_rows + kNR * r : piece.first + piece.taps[r];
        const std::uint32_t mask = i >= nr ? 0u : gathered ? 0xFFFFu : piece.masks[piece.kws[i]];
        half[i] = _mm256_and_ps(_mm256_loadu_ps(row + 8 * h), lane_mask_avx2(mask, select));
      }
      transpose_8x8_avx2(half);
      transpose_8x8_avx2(half + 8);
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        _mm256_storeu_ps(out + kNR * (8 * h + i), half[i]);
        _mm256_storeu_ps(out + kNR * (8 * h + i) + 8, half[8 + i]);
      }
    }
    if (count < kNR) std::copy_n(tail, count * kNR, dst);
    dst += count * kNR;
  }
}

__attribute__((target("avx512f"))) void transposed_panel_avx512(const PanelRead* pixels, int kc,
                                                                int tap, int nr, float* dst) {
  alignas(64) float scratch[kNR * kNR];
  for (int p0 = 0; p0 < kc; p0 += kNR, ++pixels) {
    // Rows tap..tap+15 of the forward panel: loaded under their masks,
    // or gathered first; a row past nr loads no lane.
    PanelRead piece = *pixels;
    piece.taps += tap;
    piece.kws += tap;
    piece.kc = nr;
    __m512 rows[kNR];
    if (piece.lanes != nullptr) {
      gather_panel_avx512(piece, scratch);
#pragma GCC unroll 16
      for (int i = 0; i < kNR; ++i) {
        rows[i] = _mm512_maskz_loadu_ps(i < nr ? 0xFFFF : 0, scratch + kNR * i);
      }
    } else {
#pragma GCC unroll 16
      for (int i = 0; i < kNR; ++i) {
        const int r = i < nr ? i : 0;
        rows[i] = _mm512_maskz_loadu_ps(i < nr ? piece.masks[piece.kws[r]] : 0,
                                        piece.first + piece.taps[r]);
      }
    }
    transpose_16x16_avx512(rows);
    const int count = std::min(kNR, kc - p0);
    float* out = count == kNR ? dst : scratch;
#pragma GCC unroll 16
    for (int i = 0; i < kNR; ++i) _mm512_storeu_ps(out + kNR * i, rows[i]);
    if (count < kNR) std::copy_n(scratch, count * kNR, dst);
    dst += count * kNR;
  }
}

#endif  // x86-64

#if defined(__aarch64__)

namespace {

/// The 6x16 NEON tile, packed or packing like the x86 tiles.
template <bool kPack>
inline void neon_6x16(int kc, const float* apanel, float* b, const PanelRead* read, float* c,
                      int ldc, int mr, int nr) {
  static const std::uint32_t kSelect[kNR] = {1u << 0,  1u << 1,  1u << 2,  1u << 3,
                                             1u << 4,  1u << 5,  1u << 6,  1u << 7,
                                             1u << 8,  1u << 9,  1u << 10, 1u << 11,
                                             1u << 12, 1u << 13, 1u << 14, 1u << 15};
  uint32x4_t select[4];
  for (int q = 0; q < 4; ++q) select[q] = vld1q_u32(kSelect + 4 * q);
  float32x4_t acc[6][4];
  for (int i = 0; i < 6; ++i) {
    for (int q = 0; q < 4; ++q) acc[i][q] = vdupq_n_f32(0.0f);
  }
  for (int p = 0; p < kc; ++p, apanel += 6, b += kNR) {
    float32x4_t row[4];
    if (kPack) {
      const float* src = read->first + read->taps[p];
      const uint32x4_t mask = vdupq_n_u32(read->masks[read->kws[p]]);
      for (int q = 0; q < 4; ++q) {
        const uint32x4_t bits = vreinterpretq_u32_f32(vld1q_f32(src + 4 * q));
        row[q] = vreinterpretq_f32_u32(vandq_u32(bits, vtstq_u32(mask, select[q])));
        vst1q_f32(b + 4 * q, row[q]);
      }
    } else {
      for (int q = 0; q < 4; ++q) row[q] = vld1q_f32(b + 4 * q);
    }
    for (int i = 0; i < 6; ++i) {
      const float32x4_t a = vdupq_n_f32(apanel[i]);
      for (int q = 0; q < 4; ++q) acc[i][q] = vfmaq_f32(acc[i][q], a, row[q]);
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

void micro_kernel_neon_6x16(int kc, const float* apanel, const float* b, float* c, int ldc,
                            int mr, int nr) {
  neon_6x16<false>(kc, apanel, const_cast<float*>(b), nullptr, c, ldc, mr, nr);
}

void packing_kernel_neon_6x16(const float* apanel, PanelRead read, float* b, float* c, int ldc,
                              int mr, int nr) {
  neon_6x16<true>(read.kc, apanel, b, &read, c, ldc, mr, nr);
}

#endif  // aarch64

}  // namespace meanet::ops::detail
