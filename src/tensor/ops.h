// Numeric kernels: GEMM, im2col/col2im, softmax-family ops.
//
// Every float convolution forward is one implicit GEMM
// (conv_gemm_nchw): the GEMM reads its B panels straight from the NCHW
// batch, so no im2col matrix is written. The GEMM is a blocked,
// register-tiled kernel with packed operands (scratch from the
// per-thread ops::Workspace, reused across calls) and a
// runtime-dispatched microkernel (tensor/simd.h: AVX-512 8x16,
// AVX2/NEON 6x16 or the portable 4x16), run on the calling thread. Its
// loops, outermost first: a k block of KC rows; an MC block of rows,
// whose A panel is packed once; an NC block of columns, for which a
// padded conv copies the images x channels the block reads into a
// zero-padded slab; and one 16-column B panel, which every row tile of
// the MC block then runs on. A conv forward panel whose 16 columns are
// consecutive in the source (slab or images) for every k row is read
// there in place, through a row-offset table; any other panel is
// packed, with no bounds check, into a kc x 16 buffer that stays in L1:
// one 16-float copy or one 16-lane offset gather per k row. After a tile's last k block, a conv
// applies its ConvEpilogue (folded-BN bias, residual, ReLU) to it while
// it is in L1. The accumulation order is fixed per C element, so a
// forward over any split of a batch is bit-identical to the whole
// under a fixed kernel (and across the AVX2 and AVX-512 tiers), and the
// epilogue adds nothing but the element-wise passes it replaces, in
// their order. A conv's backward runs per image for its weight
// gradient (im2col + gemm() against the transposed columns) and as one
// GEMM over a group of images (conv_grad_columns) plus a per-image
// col2im for its input gradient. The int8 quantized serving path lives
// in tensor/qgemm.h.
//
// There is one implementation of each kernel. The parity tests check
// them against plain loop-nest references of their own
// (tests/reference_kernels.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace meanet::ops {

/// Always 1: the GEMM runs on its calling thread.
int gemm_threads();

// ----- GEMM ------------------------------------------------------------

/// C += op(A) * op(B).
/// A is [M, K] after optional transpose, B is [K, N] after optional
/// transpose, C is [M, N]. It accumulates, so for C = op(A) * op(B)
/// `c` must arrive zeroed (a fresh Tensor is).
void gemm(bool transpose_a, bool transpose_b, int m, int n, int k, const float* a, int lda,
          const float* b, int ldb, float* c, int ldc);

/// Convenience wrapper on rank-2 tensors: returns op(A)*op(B).
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// Geometry of a convolution; shared by conv layers and the stats counter.
struct ConvGeometry {
  int in_channels = 0;
  int in_height = 0;
  int in_width = 0;
  int kernel = 1;
  int stride = 1;
  int padding = 0;

  int out_height() const { return (in_height + 2 * padding - kernel) / stride + 1; }
  int out_width() const { return (in_width + 2 * padding - kernel) / stride + 1; }
  /// Rows of the im2col matrix (= in_channels * kernel^2).
  int patch_size() const { return in_channels * kernel * kernel; }
};

/// What conv_gemm_nchw applies to each output element after its last
/// k block, while the tile is still in L1:
///   v = c + bias[channel];  v = v + residual[same index];  v = v > 0 ? v : 0
/// each step only when given. That is the order of the separate passes
/// it replaces (a per-channel bias loop, Tensor::add_, ReLU::forward),
/// each element gets it exactly once, and the GEMM's k order does not
/// change, so the output is bit-identical to those passes.
struct ConvEpilogue {
  const float* bias = nullptr;      ///< [out_channels], or null
  const float* residual = nullptr;  ///< the output's NCHW shape, or null
  bool relu = false;
};

/// The float conv forward over NCHW `images` [batch, C, H, W]: for
/// each image n, output[n] += weight [out_channels, patch_size()] x
/// im2col(image n), into the NCHW output [batch, out_channels, out_h,
/// out_w], then the `epilogue`. It accumulates, so `output` must
/// arrive zeroed (a fresh Tensor is). One GEMM over all batch * out_hw
/// columns, with B read straight from the images (in place or packed)
/// in im2col's values and k-order, so the result is bit-identical to
/// im2col + gemm() into a zeroed output per image followed by the
/// epilogue's passes.
void conv_gemm_nchw(int out_channels, const float* weight, const float* images, int batch,
                    const ConvGeometry& g, float* output, const ConvEpilogue& epilogue = {});

/// The float conv's input-gradient GEMM over NCHW `grad_output`
/// [batch, out_channels, out_h, out_w]: for each image n, columns[n] =
/// weight^T [patch_size(), out_channels] x grad_output[n]
/// [out_channels, out_h*out_w], into `columns` [batch, patch_size(),
/// out_h*out_w], which it overwrites. One GEMM over all batch * out_hw
/// columns with W^T packed once and B read straight from grad_output,
/// so the result is bit-identical to gemm(true, false) into zeroed
/// columns per image.
void conv_grad_columns(int out_channels, const float* weight, const float* grad_output,
                       int batch, const ConvGeometry& g, float* columns);

/// Expands one image [C, H, W] into a patch matrix
/// [C*k*k, out_h*out_w] (column-major over output positions).
/// `columns` must have patch_size() * out_h * out_w elements.
void im2col(const float* image, const ConvGeometry& g, float* columns);

/// im2col over a u8-quantized image for the int8 serving path. Padding
/// positions are filled with qgemm.h's activation zero point (the code
/// a float 0 quantizes to), so quantize-then-im2col produces exactly
/// the byte matrix im2col-then-quantize would — at a quarter of the
/// memory traffic and without the float scratch.
void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns);

/// Inverse scatter-add of im2col: accumulates patch-matrix gradients back
/// into an image gradient buffer of size C*H*W (which must be zeroed by
/// the caller if accumulation from zero is desired). Elements are added
/// in (c, kh, kw, oh, ow) order; each (kh, kw) tap's in-image rows and
/// columns are found once, so the inner loop is a branch-free add.
void col2im(const float* columns, const ConvGeometry& g, float* image);

// ----- Row-wise reductions --------------------------------------------
//
// Each reduction has an _into variant writing a caller-owned buffer —
// the serving engines keep those buffers across calls so the per-batch
// routing signals allocate nothing — and all but row_margin an
// allocating convenience wrapper. softmax, log_softmax, row_argmax,
// row_max and row_margin throw std::invalid_argument unless their input
// is [rows, cols > 0]: a row with no column has no max.

/// Row-wise softmax of a [rows, cols] tensor (numerically stabilized).
/// `out` is resized to match `logits`; in-place (&out == &logits) is
/// allowed.
void softmax_into(const Tensor& logits, Tensor& out);
Tensor softmax(const Tensor& logits);

/// Row-wise log-softmax of a [rows, cols] tensor.
Tensor log_softmax(const Tensor& logits);

/// Shannon entropy (natural log) of each row of a probability matrix.
void row_entropy_into(const Tensor& probabilities, std::vector<float>& out);
std::vector<float> row_entropy(const Tensor& probabilities);

/// Index of the max element in each row of a [rows, cols] tensor.
void row_argmax_into(const Tensor& values, std::vector<int>& out);
std::vector<int> row_argmax(const Tensor& values);

/// Max element of each row of a [rows, cols] tensor.
void row_max_into(const Tensor& values, std::vector<float>& out);
std::vector<float> row_max(const Tensor& values);

/// Top-1 minus top-2 element of each row of a [rows, cols] tensor (the
/// confidence margin when applied to softmax scores). Rows with a single
/// column have margin equal to their only element.
void row_margin_into(const Tensor& values, std::vector<float>& out);

/// Copies the listed batch rows of `source` (any rank >= 1) into a new
/// tensor of shape [rows.size(), ...]. Used to route instance subsets
/// (extension batches, offload payloads).
Tensor gather_rows(const Tensor& source, const std::vector<int>& rows);

}  // namespace meanet::ops
