// Explicit-SIMD float GEMM microkernels, one translation unit per ISA.
//
// Every kernel computes C[0:mr, 0:nr] += sum_p apanel[p][·] * B_p[·]
// over a packed A panel (MR-interleaved) and a 16-column B panel, B_p
// being its row p. Each tier has two entry points to one body: the
// packed one reads a kc x 16 panel, B_p = b + 16p; the in-place one
// reads a row-offset table, B_p = b + rows[p], which is how a conv
// panel whose 16 columns are consecutive in its source is read without
// being copied (rows = the block's tap offsets, ConvBlockSource::taps).
// The packed path keeps its own entry point because reading its rows
// through a table too cost packed-only forwards up to 7% (a training
// step 4%) in interleaved runs on an AVX-512 host. The accumulation
// is strictly p-sequential per C element, exactly like the portable
// kernel in gemm.cpp — so for a FIXED tier the result does not depend
// on where an element sits in its tile, its batch split, or whether
// its panel was packed or read in place. The portable
// kernel rounds differently (FMA contracts the multiply-add), which is
// why the parity tests compare it with a tolerance but batch splits
// exactly. The AVX2 and AVX-512 kernels run the same FMA chain and the
// same single c += acc per element, so they agree to the bit.
//
// The vector kernels are compiled with per-function target attributes
// (the binary stays runnable on baseline hardware); gemm.cpp calls
// them only when tensor/simd.h dispatch selected the matching tier.
#pragma once

#include <cstddef>

#include "tensor/ops.h"

namespace meanet::ops::detail {

/// Largest register-tile row count any kernel tier uses (the AVX-512
/// 8x16 tile; AVX2 and NEON use 6x16); sizes the bounce tile of the
/// conv driver's image-straddling tiles.
constexpr int kMaxMR = 8;
/// Every kernel tier's column count: the width of each packed B panel.
constexpr int kNR = 16;
/// Cache blocks of the blocked driver: a k block is KC rows (the A
/// block MC x KC stays L2-resident, one KC x NR B panel L1-resident),
/// and the padded slab of a conv is copied once per NC columns.
constexpr int kKC = 256;
constexpr int kNC = 1024;

/// One B panel as the microkernels read it: row p is the NR floats at
/// base + rows[p], or at base + p * NR when rows is null (packed).
struct BPanel {
  const float* base = nullptr;
  const std::ptrdiff_t* rows = nullptr;
};

/// What the B panels of one (KC, NC) block of a conv GEMM are read
/// from. Unpadded, it is the NCHW images themselves. Padded, it is a
/// copy of the images x channels the block reads, each zero-padded to
/// (H+2p) x (W+2p), in Workspace::kPaddedSlab: an unpadded geometry
/// whose column 0 is the original's `j0`.
struct ConvBlockSource {
  const float* images = nullptr;
  ConvGeometry g;
  int j0 = 0;
  /// The block's k rows: row p reads tap taps[p] = c*H*W + kh*W + kw of
  /// each column (channel c counted from the source's first), worked
  /// out once for all the block's panels.
  int kc = 0;
  std::ptrdiff_t taps[kKC];
};

/// The source of rows [p0, p0+kc) x columns [j0, j0+nc) of the im2col
/// matrix of NCHW `images` (image n at columns [n*out_hw,
/// (n+1)*out_hw)). With padding it fills the calling thread's slab,
/// which stays valid until the next call.
ConvBlockSource conv_block_source(const float* images, const ConvGeometry& g, int p0, int kc,
                                  int j0, int nc);

/// The implicit-GEMM B panel (ops.cpp, next to im2col) of the block's
/// k rows x columns [j, j+nr) (nr <= NR, inside the block `source` was
/// made for). With `in_place` set and all 16 columns consecutive in the
/// source for every k row (nr == NR and no row, image or stride step
/// between them), the panel is read in place: {first column, taps}.
/// Otherwise it is packed into `dst` as one kc x NR panel — the bytes
/// im2col + the dense packer would produce, zeros in the lanes past nr
/// included — and returned as {dst, null}.
BPanel conv_b_panel(const ConvBlockSource& source, int j, int nr, bool in_place, float* dst);

/// apanel: kc groups of `mr_stride` floats; B row p: the NR=16 floats
/// at b + rows[p] (in place) or b + 16p (packed; rows is unused).
/// Writes the valid mr x nr region of the tile into C.
using MicroKernelFn = void (*)(int kc, const float* apanel, const float* b,
                               const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr);

/// A float kernel tier — its packed and in-place microkernels — and
/// the register-tile rows its A packer must produce (A panels are
/// interleaved at stride `mr`).
struct FloatKernel {
  int mr = 0;
  MicroKernelFn packed = nullptr;
  MicroKernelFn in_place = nullptr;
  const char* name = "";
};

#if defined(__x86_64__) || defined(_M_X64)
/// 6x16 AVX2+FMA tile: 12 YMM accumulators, one broadcast per A lane.
void micro_kernel_avx2_6x16(int kc, const float* apanel, const float* b,
                            const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr);
void micro_kernel_avx2_6x16_in_place(int kc, const float* apanel, const float* b,
                                     const std::ptrdiff_t* rows, float* c, int ldc, int mr,
                                     int nr);
/// 8x16 AVX-512F tile: 8 ZMM accumulators, one 16-wide B load and 8
/// broadcasts per k step; ragged nr through masked loads/stores.
void micro_kernel_avx512_8x16(int kc, const float* apanel, const float* b,
                              const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr);
void micro_kernel_avx512_8x16_in_place(int kc, const float* apanel, const float* b,
                                       const std::ptrdiff_t* rows, float* c, int ldc, int mr,
                                       int nr);
#endif

#if defined(__aarch64__)
/// 6x16 NEON tile: 24 q-register accumulators.
void micro_kernel_neon_6x16(int kc, const float* apanel, const float* b,
                            const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr);
void micro_kernel_neon_6x16_in_place(int kc, const float* apanel, const float* b,
                                     const std::ptrdiff_t* rows, float* c, int ldc, int mr,
                                     int nr);
#endif

}  // namespace meanet::ops::detail
