// Explicit-SIMD float GEMM microkernels, one translation unit per ISA.
//
// Every kernel computes C[0:mr, 0:nr] += sum_p apanel[p][·] *
// bpanel[p][·] over a packed A panel (MR-interleaved) and a packed B
// panel (NR-interleaved). The accumulation is strictly p-sequential per
// C element, exactly like the portable kernel in gemm.cpp — so for a
// FIXED kernel the result does not depend on where an element sits in
// its tile or its batch split. The portable
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

/// What the B panels of one (KC, NC) block of a conv GEMM are packed
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

/// The implicit-GEMM B packer (ops.cpp, next to im2col): packs the
/// block's k rows x columns [j, j+nr) (nr <= NR, inside the block
/// `source` was made for) into one kc x NR panel: the bytes im2col +
/// the dense packer would produce, zeros in the lanes past nr
/// included.
void pack_b_conv(const ConvBlockSource& source, int j, int nr, float* dst);

/// apanel: kc groups of `mr_stride` floats; bpanel: kc groups of NR=16
/// floats. Writes the valid mr x nr region of the tile into C.
using MicroKernelFn = void (*)(int kc, const float* apanel, const float* bpanel, float* c,
                               int ldc, int mr, int nr);

/// A float microkernel and the register-tile geometry its packer must
/// produce (A panels are interleaved at stride `mr`).
struct FloatKernel {
  int mr = 0;
  int nr = 0;
  MicroKernelFn fn = nullptr;
  const char* name = "";
};

#if defined(__x86_64__) || defined(_M_X64)
/// 6x16 AVX2+FMA tile: 12 YMM accumulators, one broadcast per A lane.
void micro_kernel_avx2_6x16(int kc, const float* apanel, const float* bpanel, float* c, int ldc,
                            int mr, int nr);
/// 8x16 AVX-512F tile: 8 ZMM accumulators, one 16-wide B load and 8
/// broadcasts per k step; ragged nr through masked loads/stores.
void micro_kernel_avx512_8x16(int kc, const float* apanel, const float* bpanel, float* c,
                              int ldc, int mr, int nr);
#endif

#if defined(__aarch64__)
/// 6x16 NEON tile: 24 q-register accumulators.
void micro_kernel_neon_6x16(int kc, const float* apanel, const float* bpanel, float* c, int ldc,
                            int mr, int nr);
#endif

}  // namespace meanet::ops::detail
