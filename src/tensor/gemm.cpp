// Blocked, register-tiled GEMM with packed operands and runtime kernel
// dispatch.
//
// Layout: the classic three-level blocking (KC x MC x NC) around an
// MR x NR microkernel (Goto and van de Geijn, ACM TOMS 2008). The one
// driver, run_blocked, serves gemm(), conv_gemm_nchw() and
// conv_grad_columns(); its loops, outermost first:
//   k block (KC rows)
//     MC block: A packed once, MR-interleaved, L2-resident
//       NC block: a padded conv copies its zero-padded slab once
//         one NR = 16-column panel: B packed into a kc x 16 buffer
//         that stays in L1 (or read in place, below), then every
//         MR-row tile of the MC block runs on it before the next
//         panel.
// Packing folds the optional transpose, so one kernel serves all four
// transpose cases. A conv forward (conv_gemm_nchw) reads B from its
// NCHW images and writes C into its NCHW output; a conv's
// input-gradient GEMM (conv_grad_columns) reads B from the NCHW output
// gradient the same way. That reader
// (detail::conv_block_source and conv_b_panel, ops.cpp) checks no
// bounds: a padded conv's block is first copied into a zero-padded slab
// of the images x channels the block reads (bounded by KC x NC, not by
// the batch), and each k row's tap offset is worked out once per block.
//
// Kernel contract (gemm_kernels.h): each tier has a packed microkernel,
// which reads B row p at b + 16p, and an in-place one, which reads it
// at b + rows[p]. A conv forward panel whose 16 columns are consecutive
// in the source (the padded slab or the unpadded images) for every k
// row — nr == 16, in one output row (or, 1x1 unpadded, one image),
// stride 1 — is read in place: b = its first column, rows = the
// block's tap offsets, and nothing is copied. Ragged and gathered panels, dense gemm() panels
// and every conv_grad_columns panel (whose rows are strided by a power
// of two) are packed. Either way the kernel sees the same values in the
// same k order, so the output is bit-identical.
//
// Epilogue contract: a conv forward may pass an ops::ConvEpilogue
// {per-channel bias, residual, ReLU}. It runs on each tile once, after
// the tile's LAST k block, while the tile is still in L1, as
// v = c + bias; v = v + residual; v = v > 0 ? v : 0 — the order of the
// separate passes it replaced. The microkernels and their k order are
// untouched and a finished element is never accumulated into again,
// so the output is bit-identical to the GEMM followed by those passes.
// The microkernel is picked at runtime (tensor/simd.h): an 8x16
// AVX-512F tile on x86 with AVX-512F, a 6x16 AVX2+FMA tile on x86 with
// AVX2 (bit-identical to the AVX-512 one), a 6x16 NEON tile on
// aarch64, and the portable 4x16 C++ tile everywhere else (or when
// forced via MEANET_SIMD / set_simd_level).
//
// Every call runs on its calling thread. Cores are spent above the
// GEMM — InferenceSession workers per request, sim::CloudNode row
// shards on the ops::GemmPool per cloud batch. Each C element is
// accumulated in a fixed k-order that does not depend on its position
// in C, so a forward over any split of a batch is bit-identical to the
// whole (the serving determinism tests rely on this).
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"

namespace meanet::ops {

namespace {

// Portable register tile: MR x NR floats of C accumulated in locals.
// 4 x 16 keeps the accumulator within the vector register budget of
// any SSE2+ target while giving -O3 full unroll + vectorize freedom.
constexpr int kPortableMR = 4;
using detail::kKC;
using detail::kNC;
using detail::kNR;
// MC bounds the packed A panel's rows (KC and NC: gemm_kernels.h).
constexpr int kMC = 128;

// ----- Packing --------------------------------------------------------

/// Packs op(A)[i0:i0+mc, p0:p0+kc] into MR-wide panels:
/// dst[(ib/MR) * kc * MR + p * MR + i] = op(A)[i0+ib+i, p0+p],
/// zero-padded to a full MR in the last panel. Templated on the active
/// kernel's row-tile so the interleave stride is a compile-time
/// constant in every instantiation.
template <int MR>
void pack_a_t(bool transpose, const float* a, int lda, int i0, int mc, int p0, int kc,
              float* dst) {
  for (int ib = 0; ib < mc; ib += MR) {
    const int mr = std::min(MR, mc - ib);
    for (int p = 0; p < kc; ++p) {
      for (int i = 0; i < MR; ++i) {
        float value = 0.0f;
        if (i < mr) {
          const std::ptrdiff_t row = i0 + ib + i, col = p0 + p;
          value = transpose ? a[col * lda + row] : a[row * lda + col];
        }
        *dst++ = value;
      }
    }
  }
}

void pack_a(int mr_tile, bool transpose, const float* a, int lda, int i0, int mc, int p0, int kc,
            float* dst) {
  if (mr_tile == 8) {
    pack_a_t<8>(transpose, a, lda, i0, mc, p0, kc, dst);
  } else if (mr_tile == 6) {
    pack_a_t<6>(transpose, a, lda, i0, mc, p0, kc, dst);
  } else {
    pack_a_t<4>(transpose, a, lda, i0, mc, p0, kc, dst);
  }
}

/// Packs op(B)[p0:p0+kc, j:j+nr] (nr <= NR) into one NR-wide panel:
/// dst[p * NR + i] = op(B)[p0+p, j+i], zero-padded past nr. A full
/// panel copies rows straight, or — transposed, as a conv's dW GEMM
/// reads its im2col columns — gathers one float from each of NR row
/// pointers per k step.
void pack_b(bool transpose, const float* b, int ldb, int p0, int kc, int j, int nr, float* dst) {
  if (nr == kNR && !transpose) {
    const float* src = b + static_cast<std::ptrdiff_t>(p0) * ldb + j;
    for (int p = 0; p < kc; ++p, src += ldb, dst += kNR) {
      std::memcpy(dst, src, sizeof(float) * kNR);
    }
    return;
  }
  if (nr == kNR) {
    const float* rows[kNR];
    for (int i = 0; i < kNR; ++i) rows[i] = b + static_cast<std::ptrdiff_t>(j + i) * ldb + p0;
    for (int p = 0; p < kc; ++p, dst += kNR) {
      for (int i = 0; i < kNR; ++i) dst[i] = rows[i][p];
    }
    return;
  }
  for (int p = 0; p < kc; ++p) {
    for (int i = 0; i < kNR; ++i) {
      float value = 0.0f;
      if (i < nr) {
        const std::ptrdiff_t row = p0 + p, col = j + i;
        value = transpose ? b[col * ldb + row] : b[row * ldb + col];
      }
      *dst++ = value;
    }
  }
}

// ----- Microkernels ---------------------------------------------------

/// C[0:mr, 0:nr] += sum_p apanel[p][.] * B_p[.] — the portable
/// register tile, B_p = b + 16p (packed) or b + rows[p] (in place). The
/// accumulator covers the full padded MR x NR tile (padded lanes hold
/// zeros), only the valid mr x nr region is written back.
template <bool kInPlace>
void micro_kernel_portable_4x16(int kc, const float* apanel, const float* b,
                                const std::ptrdiff_t* rows, float* c, int ldc, int mr, int nr) {
  float acc[kPortableMR][kNR] = {};
  for (int p = 0; p < kc; ++p, apanel += kPortableMR) {
    const float* b_row = kInPlace ? b + rows[p] : b + static_cast<std::ptrdiff_t>(p) * kNR;
    for (int i = 0; i < kPortableMR; ++i) {
      const float a = apanel[i];
      for (int j = 0; j < kNR; ++j) acc[i][j] += a * b_row[j];
    }
  }
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) c_row[j] += acc[i][j];
  }
}

/// The microkernel matching the active SimdLevel. Levels the binary
/// has no kernel for (clamped away by set_simd_level, but belt and
/// braces) fall back to the portable tile.
detail::FloatKernel active_kernel() {
  switch (simd_level()) {
#if defined(__x86_64__) || defined(_M_X64)
    case SimdLevel::kAvx2:
      return {6, detail::micro_kernel_avx2_6x16, detail::micro_kernel_avx2_6x16_in_place,
              "avx2"};
    case SimdLevel::kAvx512:
      return {8, detail::micro_kernel_avx512_8x16, detail::micro_kernel_avx512_8x16_in_place,
              "avx512"};
#endif
#if defined(__aarch64__)
    case SimdLevel::kNeon:
      return {6, detail::micro_kernel_neon_6x16, detail::micro_kernel_neon_6x16_in_place,
              "neon"};
#endif
    default:
      break;
  }
  return {kPortableMR, micro_kernel_portable_4x16<false>, micro_kernel_portable_4x16<true>,
          "portable"};
}

// ----- Blocked driver -------------------------------------------------

/// One gemm(), conv_gemm_nchw() or conv_grad_columns() call.
struct GemmJob {
  bool transpose_a = false, transpose_b = false;
  int m = 0, n = 0, k = 0;
  const float* a = nullptr;
  int lda = 0;
  const float* b = nullptr;
  int ldb = 0;
  float* c = nullptr;
  int ldc = 0;
  /// Implicit-GEMM conv (run_nchw): B is the im2col matrix of
  /// the NCHW images at `b`, read straight from them, and C is the
  /// NCHW output [n / ldc, m, ldc]. Null = dense B and C.
  const ConvGeometry* conv = nullptr;
  /// A conv's consecutive panels are read in place (the forward), not
  /// packed (conv_grad_columns).
  bool conv_in_place = false;
  /// A conv forward's epilogue; null = none.
  const ConvEpilogue* epilogue = nullptr;
  detail::FloatKernel kernel;
};

/// Finishes the mr x nr tile at `c` (row stride ldc, first row =
/// output channel `row0`) with the epilogue's steps that are on; its
/// residual has the same layout at `residual`.
template <bool kBias, bool kResidual, bool kRelu>
void finish_tile(const float* bias, int row0, int mr, int nr, float* c, std::ptrdiff_t ldc,
                 const float* residual) {
  for (int i = 0; i < mr; ++i, c += ldc, residual += kResidual ? ldc : 0) {
    const float b = kBias ? bias[row0 + i] : 0.0f;
    for (int j = 0; j < nr; ++j) {
      float v = c[j];
      if (kBias) v = v + b;
      if (kResidual) v = v + residual[j];
      if (kRelu) v = v > 0.0f ? v : 0.0f;
      c[j] = v;
    }
  }
}

using FinishTileFn = void (*)(const float*, int, int, int, float*, std::ptrdiff_t, const float*);

/// The finish_tile instance for the steps `e` asks for.
FinishTileFn finish_tile_for(const ConvEpilogue& e) {
  static constexpr FinishTileFn kTable[8] = {
      finish_tile<false, false, false>, finish_tile<false, false, true>,
      finish_tile<false, true, false>,  finish_tile<false, true, true>,
      finish_tile<true, false, false>,  finish_tile<true, false, true>,
      finish_tile<true, true, false>,   finish_tile<true, true, true>};
  return kTable[(e.bias != nullptr ? 4 : 0) + (e.residual != nullptr ? 2 : 0) + (e.relu ? 1 : 0)];
}

/// The blocked loops over all of C's rows, on the calling thread: k
/// block, MC block (A packed once), NC block (a padded conv's slab),
/// then one NR-column B panel at a time (packed, or a conv forward's
/// read in place), which every row tile of the MC block reads before
/// the next panel.
void run_blocked(const GemmJob& job) {
  const int mr_tile = job.kernel.mr;
  // C column j is pixel j % cols of image j / cols: a conv's C is its
  // NCHW output [n / ldc, m, ldc], and dense C is one image.
  const int cols = job.conv != nullptr ? job.ldc : job.n;
  const std::ptrdiff_t image_stride = static_cast<std::ptrdiff_t>(job.m) * job.ldc;
  const auto c_offset = [&](int row, int col) {
    const int image = col / cols;
    return image * image_stride + static_cast<std::ptrdiff_t>(row) * job.ldc +
           (col - image * cols);
  };
  const ConvEpilogue* epilogue = job.epilogue;
  const FinishTileFn finish_fn = epilogue != nullptr ? finish_tile_for(*epilogue) : nullptr;
  Workspace& workspace = Workspace::tls();
  float* bpanel = workspace.buffer(Workspace::kPackB,
                                   static_cast<std::size_t>(std::min(kKC, job.k)) * kNR);
  detail::ConvBlockSource source;  // a conv's, per (k block, NC block)
  for (int p0 = 0; p0 < job.k; p0 += kKC) {
    const int kc = std::min(kKC, job.k - p0);
    // A tile is finished (the epilogue runs) after its last k block.
    const bool finish = p0 + kc == job.k && epilogue != nullptr;
    for (int i0 = 0; i0 < job.m; i0 += kMC) {
      const int mc = std::min(kMC, job.m - i0);
      const int m_panels = (mc + mr_tile - 1) / mr_tile;
      float* apack = workspace.buffer(Workspace::kPackA,
                                      static_cast<std::size_t>(m_panels) * kc * mr_tile);
      pack_a(mr_tile, job.transpose_a, job.a, job.lda, i0, mc, p0, kc, apack);
      for (int j0 = 0; j0 < job.n; j0 += kNC) {
        const int nc = std::min(kNC, job.n - j0);
        if (job.conv != nullptr) {
          source = detail::conv_block_source(job.b, *job.conv, p0, kc, j0, nc);
        }
        // Column jcol is `pixel` of `image`, stepped without a division.
        int image = j0 / cols, pixel = j0 % cols;
        for (int jb = 0; jb < nc; jb += kNR, pixel += kNR) {
          while (pixel >= cols) {
            pixel -= cols;
            ++image;
          }
          const int nr = std::min(kNR, nc - jb);
          const int jcol = j0 + jb;
          detail::BPanel panel{bpanel, nullptr};
          if (job.conv != nullptr) {
            panel = detail::conv_b_panel(source, jcol, nr, job.conv_in_place, bpanel);
          } else {
            pack_b(job.transpose_b, job.b, job.ldb, p0, kc, jcol, nr, bpanel);
          }
          const detail::MicroKernelFn kernel =
              panel.rows != nullptr ? job.kernel.in_place : job.kernel.packed;
          // A tile inside one image: the kernel writes straight through
          // a base pointer + ldc.
          const std::ptrdiff_t base = image * image_stride +
                                      static_cast<std::ptrdiff_t>(i0) * job.ldc + pixel;
          const bool direct = pixel + nr <= cols;
          for (int ib = 0; ib < mc; ib += mr_tile) {
            const float* apanel =
                apack + static_cast<std::ptrdiff_t>(ib / mr_tile) * kc * mr_tile;
            const int mr = std::min(mr_tile, mc - ib);
            const int row0 = i0 + ib;
            if (direct) {
              const std::ptrdiff_t at = base + static_cast<std::ptrdiff_t>(ib) * job.ldc;
              kernel(kc, apanel, panel.base, panel.rows, job.c + at, job.ldc, mr, nr);
              if (finish) {
                finish_fn(epilogue->bias, row0, mr, nr, job.c + at, job.ldc,
                          epilogue->residual != nullptr ? epilogue->residual + at : nullptr);
              }
              continue;
            }
            // The tile straddles an image boundary: bounce through a
            // register-sized tile holding the mapped C values (and, to
            // finish it, the mapped residual). The kernel still
            // performs the one c += acc addition per element, so this
            // path stays bit-identical to the dense write (loads and
            // stores move bits, not values).
            float tile[detail::kMaxMR * kNR];
            float residual[detail::kMaxMR * kNR];
            const bool with_residual = finish && epilogue->residual != nullptr;
            for (int i = 0; i < mr; ++i) {
              for (int j = 0; j < nr; ++j) {
                const std::ptrdiff_t at = c_offset(row0 + i, jcol + j);
                tile[i * kNR + j] = job.c[at];
                if (with_residual) residual[i * kNR + j] = epilogue->residual[at];
              }
            }
            kernel(kc, apanel, panel.base, panel.rows, tile, kNR, mr, nr);
            if (finish) finish_fn(epilogue->bias, row0, mr, nr, tile, kNR, residual);
            for (int i = 0; i < mr; ++i) {
              for (int j = 0; j < nr; ++j) job.c[c_offset(row0 + i, jcol + j)] = tile[i * kNR + j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

int gemm_threads() { return 1; }

void gemm(bool transpose_a, bool transpose_b, int m, int n, int k, const float* a, int lda,
          const float* b, int ldb, float* c, int ldc) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("gemm: negative dimension");
  if (m == 0 || n == 0 || k == 0) return;

  GemmJob job;
  job.transpose_a = transpose_a;
  job.transpose_b = transpose_b;
  job.m = m;
  job.n = n;
  job.k = k;
  job.a = a;
  job.lda = lda;
  job.b = b;
  job.ldb = ldb;
  job.c = c;
  job.ldc = ldc;
  job.kernel = active_kernel();
  run_blocked(job);
}

namespace {

/// C[n] += op(A) [m, patch] x im2col(image n) for each of the `batch`
/// NCHW images of geometry `g`: one GEMM with B read straight from the
/// images (consecutive panels in place when `in_place`) and C written
/// as NCHW [batch, m, out_hw], then `epilogue` (null = none).
void run_nchw(bool transpose_a, int m, const float* a, int lda, const float* images, int batch,
              const ConvGeometry& g, float* c, bool in_place, const ConvEpilogue* epilogue) {
  const int out_hw = g.out_height() * g.out_width();
  const int patch = g.patch_size();
  if (m < 0 || batch < 0 || out_hw < 0 || patch < 0) {
    throw std::invalid_argument("conv GEMM: negative dimension");
  }
  if (m == 0 || batch == 0 || out_hw == 0 || patch == 0) return;

  GemmJob job;
  job.transpose_a = transpose_a;
  job.m = m;
  job.n = batch * out_hw;
  job.k = patch;
  job.a = a;
  job.lda = lda;
  job.b = images;
  job.c = c;
  job.ldc = out_hw;
  job.conv = &g;
  job.conv_in_place = in_place;
  job.epilogue = epilogue;
  job.kernel = active_kernel();
  run_blocked(job);
}

}  // namespace

void conv_gemm_nchw(int out_channels, const float* weight, const float* images, int batch,
                    const ConvGeometry& g, float* output, const ConvEpilogue& epilogue) {
  const bool any = epilogue.bias != nullptr || epilogue.residual != nullptr || epilogue.relu;
  run_nchw(false, out_channels, weight, g.patch_size(), images, batch, g, output, true,
           any ? &epilogue : nullptr);
}

void conv_grad_columns(int out_channels, const float* weight, const float* grad_output,
                       int batch, const ConvGeometry& g, float* columns) {
  const int out_hw = g.out_height() * g.out_width();
  const int patch = g.patch_size();
  if (batch > 0 && patch > 0 && out_hw > 0) {
    std::memset(columns, 0, sizeof(float) * static_cast<std::size_t>(batch) * patch * out_hw);
  }
  // grad_output [batch, out_channels, out_hw] is the NCHW batch of a
  // 1x1 conv over one row of out_hw pixels, whose im2col matrix is each
  // image itself. Its panels feed patch / MR row tiles each, and their
  // rows lie a power of two apart, so packing them pays.
  const ConvGeometry rows{out_channels, 1, out_hw, 1, 1, 0};
  run_nchw(true, patch, weight, patch, grad_output, batch, rows, columns, false, nullptr);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a, bool transpose_b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul expects rank-2 tensors");
  }
  const int a_rows = a.shape().dim(0), a_cols = a.shape().dim(1);
  const int b_rows = b.shape().dim(0), b_cols = b.shape().dim(1);
  const int m = transpose_a ? a_cols : a_rows;
  const int k = transpose_a ? a_rows : a_cols;
  const int k2 = transpose_b ? b_cols : b_rows;
  const int n = transpose_b ? b_rows : b_cols;
  if (k != k2) {
    throw std::invalid_argument("matmul: inner dimension mismatch " + a.shape().to_string() +
                                " x " + b.shape().to_string());
  }
  Tensor c(Shape{m, n});
  gemm(transpose_a, transpose_b, m, n, k, a.data(), a_cols, b.data(), b_cols, c.data(), n);
  return c;
}

}  // namespace meanet::ops
