// Float GEMM microkernels and conv B-panel packers, every tier: the
// portable 4x16 C++ tile and the explicit-SIMD AVX2, AVX-512 and NEON
// ones (gemm_kernels.cpp).
//
// Every kernel computes C[0:mr, 0:nr] += sum_p apanel[p][·] * B_p[·]
// over a packed A panel (MR-interleaved) and a packed kc x 16 B panel,
// B_p = b + 16p. The accumulation is strictly p-sequential per C
// element — so for a FIXED tier the result does not depend on where an
// element sits in its tile or its batch split. The portable kernel
// rounds differently (the vector kernels contract the multiply-add
// into an FMA), which is why the parity tests compare it with a
// tolerance but batch splits exactly. The AVX2 and AVX-512 kernels run
// the same FMA chain and the same single c += acc per element, so they
// agree to the bit.
//
// Each tier also packs the conv B panels its kernel reads. A panel
// whose 16 columns are consecutive in the block's source is packed by
// the tier's packing kernel while it computes the panel's first row
// tile: one 16-float load per k row. Any other panel is gathered
// first, 16 lanes per k row. Either way the lanes whose input column
// lies in the horizontal padding are zeroed by a lane mask — a zeroing
// masked load on AVX-512, a load plus an AND with the mask on AVX2,
// NEON and portable — so every tier packs the same bits. A conv's
// weight-gradient GEMM reads B = im2col^T: each 16 x 16 piece of its
// panel is read as the forward reads 16 of its k rows (loaded or
// gathered, masked) and transposed, in registers on AVX-512 and AVX2,
// element by element on portable and NEON.
//
// The vector kernels are compiled with per-function target attributes
// (the binary stays runnable on baseline hardware); gemm.cpp calls
// them only when tensor/simd.h dispatch selected the matching tier.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// What the B panels of one (KC, NC) block of a conv GEMM are read
/// from. Unpadded, it is the NCHW images themselves. Padded, it is a
/// copy of the images x channels the block reads in
/// Workspace::kPaddedSlab, each plane padded vertically only: (H+2p)
/// rows of width W, followed by p zero guard floats (and p more before
/// the first plane). A tap whose input column falls outside [0, W)
/// then reads a neighbouring row or a guard float, which the lane
/// masks zero, so every read stays inside the slab.
struct ConvBlockSource {
  /// The first source image's first plane (row 0 = input row -p).
  const float* images = nullptr;
  /// The conv's own geometry (a source row is g.in_width floats) and
  /// its output extent.
  ConvGeometry g;
  int out_h = 0, out_w = 0;
  std::ptrdiff_t image_stride = 0;
  /// The block's k rows: row p reads tap taps[p] = c*plane + kh*W +
  /// kw - p_pad of each column (channel c counted from the source's
  /// first, plane = its plane stride) under the lane mask of kernel
  /// column kws[p] = kw, both worked out once for all the block's
  /// panels.
  int kc = 0;
  std::ptrdiff_t taps[kKC];
  std::int32_t kws[kKC];
  /// Lane masks: bit i of masks[phase * mask_k + kw] is set when lane i
  /// of a panel reads an input column inside [0, W) at kernel column
  /// kw. A lane's output column depends only on its panel's first one,
  /// which repeats every `phases` panels of the block, so the masks are
  /// worked out once per block; `ragged` holds mask_k more for a panel
  /// narrower than NR. Unpadded, every lane is in: mask_k = 1.
  int mask_k = 1;
  int phases = 1;
  std::uint16_t* masks = nullptr;
  std::uint16_t* ragged = nullptr;
  /// Where the block's next panel starts — source image, output row and
  /// column, mask phase — stepped NR columns on by each conv_b_panel.
  int image = 0, oh = 0, ow = 0, phase = 0;
  /// The last gathered panel's lane offsets.
  std::int32_t lanes[kNR];
};

/// The source of rows [p0, p0+kc) x columns [j0, j0+nc) of the im2col
/// matrix of NCHW `images` (image n at columns [n*out_hw,
/// (n+1)*out_hw)); kc <= KC. It fills the calling thread's lane masks
/// (Workspace::kLaneMasks) and, with padding, its slab, which stay
/// valid until the next call.
ConvBlockSource conv_block_source(const float* images, const ConvGeometry& g, int p0, int kc,
                                  int j0, int nc);

/// One conv B panel as a tier reads it: k row p, lane i is the float
/// at first + taps[p] + i (lanes null: the 16 columns are consecutive)
/// or first + taps[p] + lanes[i], and +0.0f where bit i of
/// masks[kws[p]] is clear.
struct PanelRead {
  const float* first = nullptr;
  const std::ptrdiff_t* taps = nullptr;
  const std::int32_t* kws = nullptr;
  const std::int32_t* lanes = nullptr;
  int kc = 0;
  const std::uint16_t* masks = nullptr;
};

/// The block's next B panel (ops.cpp, next to im2col) — its k rows x
/// the next nr columns (nr <= NR; the first call takes the block's
/// first column) — as its tier reads it: im2col's values, +0.0 in the
/// lanes past nr included. A full panel of a stride-1 conv inside one
/// output row, or inside one image when output rows are as wide as
/// input rows, is consecutive (lanes null); any other is gathered. The
/// read's lanes and masks stay valid until the next call.
PanelRead conv_b_panel(ConvBlockSource& source, int nr);

/// The B side alone of conv_gemm_nchw(out_channels, _, images, batch,
/// g, _) (gemm.cpp): the same blocks, each one's source and each
/// panel's set-up, and the gathers of the panels no packing kernel
/// copies; no A packing, no kernel, no output. perf_forward's
/// conv_pack rows time it.
void conv_b_packing(int out_channels, const float* images, int batch, const ConvGeometry& g);

/// apanel: kc groups of `mr_stride` floats; B row p: the NR=16 floats
/// at b + 16p. Writes the valid mr x nr region of the tile into C.
using MicroKernelFn = void (*)(int kc, const float* apanel, const float* b, float* c, int ldc,
                               int mr, int nr);
/// The same tile over the consecutive conv panel `read` (lanes null):
/// row p is loaded from the source once, masked, used and stored at
/// b + 16p, so the panel's other row tiles run the MicroKernelFn on b.
/// Packing inside the first tile hides the copy under its FMAs: a
/// separate packing pass made ResNet-B's 16-wide, 8-channel convs 13-21%
/// slower on an AVX-512 host. (By value: a store to b cannot alias
/// `read`, so its fields stay in registers.)
using PackingKernelFn = void (*)(const float* apanel, PanelRead read, float* b, float* c,
                                 int ldc, int mr, int nr);
/// Packs the gathered conv panel `read` (lanes set) into dst as one
/// kc x NR panel.
using GatherFn = void (*)(PanelRead read, float* dst);
/// Packs one kc x NR panel of a conv's weight-gradient GEMM, whose B is
/// im2col^T, into dst: row r is pixel r of the block, lane i its tap
/// row `tap + i` (+0.0 past nr). The block's kc pixels are the forward
/// panels pixels[0], pixels[1], ... of 16 pixels each (the last may be
/// ragged), as conv_b_panel returned them over a source whose k rows
/// are the block's taps; each 16 x 16 piece is the transpose of those
/// panels' rows tap..tap+15.
using TransposedPanelFn = void (*)(const PanelRead* pixels, int kc, int tap, int nr, float* dst);

/// A float kernel tier — its microkernel, packing kernel, gather and
/// transposed packer — and the register-tile rows its A packer must
/// produce (A panels are interleaved at stride `mr`).
struct FloatKernel {
  int mr = 0;
  MicroKernelFn kernel = nullptr;
  PackingKernelFn packing = nullptr;
  GatherFn gather = nullptr;
  TransposedPanelFn transposed = nullptr;
  const char* name = "";
};

/// The tier of the active SimdLevel (gemm.cpp).
FloatKernel active_kernel();

/// 4x16 plain C++ tile, every target (auto-vectorized at the baseline
/// ISA); its gather also serves AVX2 and NEON, its transposed packer
/// NEON.
void micro_kernel_portable_4x16(int kc, const float* apanel, const float* b, float* c, int ldc,
                                int mr, int nr);
void packing_kernel_portable_4x16(const float* apanel, PanelRead read, float* b, float* c,
                                  int ldc, int mr, int nr);
void gather_panel_portable(PanelRead read, float* dst);
void transposed_panel_portable(const PanelRead* pixels, int kc, int tap, int nr, float* dst);

#if defined(__x86_64__) || defined(_M_X64)
/// 6x16 AVX2+FMA tile: 12 YMM accumulators, one broadcast per A lane.
void micro_kernel_avx2_6x16(int kc, const float* apanel, const float* b, float* c, int ldc,
                            int mr, int nr);
void packing_kernel_avx2_6x16(const float* apanel, PanelRead read, float* b, float* c, int ldc,
                              int mr, int nr);
void transposed_panel_avx2(const PanelRead* pixels, int kc, int tap, int nr, float* dst);
/// 8x16 AVX-512F tile: 8 ZMM accumulators, one 16-wide B load and 8
/// broadcasts per k step; ragged nr through masked loads/stores.
void micro_kernel_avx512_8x16(int kc, const float* apanel, const float* b, float* c, int ldc,
                              int mr, int nr);
void packing_kernel_avx512_8x16(const float* apanel, PanelRead read, float* b, float* c,
                                int ldc, int mr, int nr);
void gather_panel_avx512(PanelRead read, float* dst);
void transposed_panel_avx512(const PanelRead* pixels, int kc, int tap, int nr, float* dst);
#endif

#if defined(__aarch64__)
/// 6x16 NEON tile: 24 q-register accumulators.
void micro_kernel_neon_6x16(int kc, const float* apanel, const float* b, float* c, int ldc,
                            int mr, int nr);
void packing_kernel_neon_6x16(const float* apanel, PanelRead read, float* b, float* c, int ldc,
                              int mr, int nr);
#endif

}  // namespace meanet::ops::detail
