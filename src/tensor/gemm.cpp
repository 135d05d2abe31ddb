// Blocked, register-tiled GEMM with packed operands and runtime kernel
// dispatch.
//
// Layout: the classic three-level blocking (KC x MC x NC) around an
// MR x NR microkernel. Both operands are packed into contiguous panels
// from the per-thread Workspace — packing folds the optional transpose
// and the alpha scale, so one kernel serves all four transpose cases.
// A conv forward (conv_gemm_nchw) packs B from its NCHW images and
// writes C into its NCHW output; a conv's input-gradient GEMM
// (conv_grad_columns) reads B from the NCHW output gradient the same
// way. That packer (detail::pack_b_conv, ops.cpp) checks no bounds: a
// padded conv's block is first copied into a zero-padded slab of the
// images x channels the block reads (bounded by KC x NC, not by the
// batch), and each panel is then one 16-float copy or one 16-lane
// offset gather per k row.
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
/// dst[(ib/MR) * kc * MR + p * MR + i] = alpha * op(A)[i0+ib+i, p0+p],
/// zero-padded to a full MR in the last panel. Folding alpha here keeps
/// the microkernel a pure multiply-accumulate. Templated on the active
/// kernel's row-tile so the interleave stride is a compile-time
/// constant in every instantiation.
template <int MR>
void pack_a_t(bool transpose, const float* a, int lda, int i0, int mc, int p0, int kc,
              float alpha, float* dst) {
  for (int ib = 0; ib < mc; ib += MR) {
    const int mr = std::min(MR, mc - ib);
    for (int p = 0; p < kc; ++p) {
      for (int i = 0; i < MR; ++i) {
        float value = 0.0f;
        if (i < mr) {
          const std::ptrdiff_t row = i0 + ib + i, col = p0 + p;
          value = transpose ? a[col * lda + row] : a[row * lda + col];
        }
        *dst++ = alpha * value;
      }
    }
  }
}

void pack_a(int mr_tile, bool transpose, const float* a, int lda, int i0, int mc, int p0, int kc,
            float alpha, float* dst) {
  if (mr_tile == 8) {
    pack_a_t<8>(transpose, a, lda, i0, mc, p0, kc, alpha, dst);
  } else if (mr_tile == 6) {
    pack_a_t<6>(transpose, a, lda, i0, mc, p0, kc, alpha, dst);
  } else {
    pack_a_t<4>(transpose, a, lda, i0, mc, p0, kc, alpha, dst);
  }
}

/// Packs op(B)[p0:p0+kc, j0:j0+nc] into NR-wide panels:
/// dst[(jb/NR) * kc * NR + p * NR + j] = op(B)[p0+p, j0+jb+j],
/// zero-padded to a full NR in the last panel. A full panel copies
/// rows straight, or — transposed, as a conv's dW GEMM reads its
/// im2col columns — gathers one float from each of NR row pointers per
/// k step.
void pack_b(bool transpose, const float* b, int ldb, int p0, int kc, int j0, int nc, float* dst) {
  for (int jb = 0; jb < nc; jb += kNR) {
    const int nr = std::min(kNR, nc - jb);
    if (nr == kNR && !transpose) {
      const float* src = b + static_cast<std::ptrdiff_t>(p0) * ldb + (j0 + jb);
      for (int p = 0; p < kc; ++p, src += ldb, dst += kNR) {
        std::memcpy(dst, src, sizeof(float) * kNR);
      }
      continue;
    }
    if (nr == kNR) {
      const float* rows[kNR];
      for (int j = 0; j < kNR; ++j) {
        rows[j] = b + static_cast<std::ptrdiff_t>(j0 + jb + j) * ldb + p0;
      }
      for (int p = 0; p < kc; ++p, dst += kNR) {
        for (int j = 0; j < kNR; ++j) dst[j] = rows[j][p];
      }
      continue;
    }
    for (int p = 0; p < kc; ++p) {
      for (int j = 0; j < kNR; ++j) {
        float value = 0.0f;
        if (j < nr) {
          const std::ptrdiff_t row = p0 + p, col = j0 + jb + j;
          value = transpose ? b[col * ldb + row] : b[row * ldb + col];
        }
        *dst++ = value;
      }
    }
  }
}

// ----- Microkernels ---------------------------------------------------

/// C[0:mr, 0:nr] += sum_p apanel[p][.] * bpanel[p][.] — the portable
/// register tile. The accumulator covers the full padded MR x NR tile
/// (padded lanes hold zeros), only the valid mr x nr region is written
/// back.
void micro_kernel_portable_4x16(int kc, const float* apanel, const float* bpanel, float* c,
                                int ldc, int mr, int nr) {
  float acc[kPortableMR][kNR] = {};
  for (int p = 0; p < kc; ++p, apanel += kPortableMR, bpanel += kNR) {
    for (int i = 0; i < kPortableMR; ++i) {
      const float a = apanel[i];
      for (int j = 0; j < kNR; ++j) acc[i][j] += a * bpanel[j];
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
      return {6, kNR, detail::micro_kernel_avx2_6x16, "avx2"};
    case SimdLevel::kAvx512:
      return {8, kNR, detail::micro_kernel_avx512_8x16, "avx512"};
#endif
#if defined(__aarch64__)
    case SimdLevel::kNeon:
      return {6, kNR, detail::micro_kernel_neon_6x16, "neon"};
#endif
    default:
      break;
  }
  return {kPortableMR, kNR, micro_kernel_portable_4x16, "portable"};
}

// ----- Blocked driver -------------------------------------------------

/// One gemm(), conv_gemm_nchw() or conv_grad_columns() call.
struct GemmJob {
  bool transpose_a = false, transpose_b = false;
  int m = 0, n = 0, k = 0;
  float alpha = 1.0f;
  const float* a = nullptr;
  int lda = 0;
  const float* b = nullptr;
  int ldb = 0;
  float* c = nullptr;
  int ldc = 0;
  /// Implicit-GEMM conv (run_nchw): B is the im2col matrix of
  /// the NCHW images at `b`, packed straight from them, and C is the
  /// NCHW output [n / ldc, m, ldc]. Null = dense B and C.
  const ConvGeometry* conv = nullptr;
  detail::FloatKernel kernel;
};

/// The blocked loops over all of C's rows, on the calling thread.
void run_blocked(const GemmJob& job) {
  const int mr_tile = job.kernel.mr;
  // C column j is pixel j % cols of image j / cols: a conv's C is its
  // NCHW output [n / ldc, m, ldc], and dense C is one image.
  const int cols = job.conv != nullptr ? job.ldc : job.n;
  const std::ptrdiff_t image_stride = static_cast<std::ptrdiff_t>(job.m) * job.ldc;
  const auto c_at = [&](int row, int col) {
    const int image = col / cols;
    return job.c + image * image_stride + static_cast<std::ptrdiff_t>(row) * job.ldc +
           (col - image * cols);
  };
  Workspace& workspace = Workspace::tls();
  for (int p0 = 0; p0 < job.k; p0 += kKC) {
    const int kc = std::min(kKC, job.k - p0);
    for (int j0 = 0; j0 < job.n; j0 += kNC) {
      const int nc = std::min(kNC, job.n - j0);
      const int n_panels = (nc + kNR - 1) / kNR;
      float* bpack =
          workspace.buffer(Workspace::kPackB, static_cast<std::size_t>(n_panels) * kc * kNR);
      if (job.conv != nullptr) {
        detail::pack_b_conv(job.b, *job.conv, p0, kc, j0, nc, bpack);
      } else {
        pack_b(job.transpose_b, job.b, job.ldb, p0, kc, j0, nc, bpack);
      }
      for (int i0 = 0; i0 < job.m; i0 += kMC) {
        const int mc = std::min(kMC, job.m - i0);
        const int m_panels = (mc + mr_tile - 1) / mr_tile;
        float* apack = workspace.buffer(
            Workspace::kPackA, static_cast<std::size_t>(m_panels) * kc * mr_tile);
        pack_a(mr_tile, job.transpose_a, job.a, job.lda, i0, mc, p0, kc, job.alpha, apack);
        // Column jcol is `pixel` of `image`, stepped without a division.
        int image = j0 / cols, pixel = j0 % cols;
        for (int jb = 0; jb < nc; jb += kNR, pixel += kNR) {
          while (pixel >= cols) {
            pixel -= cols;
            ++image;
          }
          const float* bpanel = bpack + static_cast<std::ptrdiff_t>(jb / kNR) * kc * kNR;
          const int nr = std::min(kNR, nc - jb);
          const int jcol = j0 + jb;
          // A tile inside one image: the kernel writes straight through
          // a base pointer + ldc.
          float* cbase = job.c + image * image_stride +
                         static_cast<std::ptrdiff_t>(i0) * job.ldc + pixel;
          const bool direct = pixel + nr <= cols;
          for (int ib = 0; ib < mc; ib += mr_tile) {
            const float* apanel =
                apack + static_cast<std::ptrdiff_t>(ib / mr_tile) * kc * mr_tile;
            const int mr = std::min(mr_tile, mc - ib);
            if (direct) {
              job.kernel.fn(kc, apanel, bpanel,
                            cbase + static_cast<std::ptrdiff_t>(ib) * job.ldc, job.ldc, mr, nr);
              continue;
            }
            // The tile straddles an image boundary: bounce through a
            // register-sized tile holding the mapped C values. The
            // kernel still performs the one c += acc addition per
            // element, so this path stays bit-identical to the dense
            // write (loads and stores move bits, not values).
            float tile[detail::kMaxMR * kNR];
            for (int i = 0; i < mr; ++i) {
              for (int j = 0; j < nr; ++j) tile[i * kNR + j] = *c_at(i0 + ib + i, jcol + j);
            }
            job.kernel.fn(kc, apanel, bpanel, tile, kNR, mr, nr);
            for (int i = 0; i < mr; ++i) {
              for (int j = 0; j < nr; ++j) *c_at(i0 + ib + i, jcol + j) = tile[i * kNR + j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

int gemm_threads() { return 1; }

void gemm(bool transpose_a, bool transpose_b, int m, int n, int k, float alpha, const float* a,
          int lda, const float* b, int ldb, float beta, float* c, int ldc) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("gemm: negative dimension");
  if (beta == 0.0f) {
    for (int i = 0; i < m; ++i) {
      std::memset(c + static_cast<std::ptrdiff_t>(i) * ldc, 0,
                  sizeof(float) * static_cast<std::size_t>(n));
    }
  } else if (beta != 1.0f) {
    for (int i = 0; i < m; ++i) {
      float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
      for (int j = 0; j < n; ++j) c_row[j] *= beta;
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  GemmJob job;
  job.transpose_a = transpose_a;
  job.transpose_b = transpose_b;
  job.m = m;
  job.n = n;
  job.k = k;
  job.alpha = alpha;
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
/// NCHW images of geometry `g`: one GEMM with B packed straight from the
/// images and C written as NCHW [batch, m, out_hw].
void run_nchw(bool transpose_a, int m, const float* a, int lda, const float* images, int batch,
              const ConvGeometry& g, float* c) {
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
  job.kernel = active_kernel();
  run_blocked(job);
}

}  // namespace

void conv_gemm_nchw(int out_channels, const float* weight, const float* images, int batch,
                    const ConvGeometry& g, float* output) {
  run_nchw(false, out_channels, weight, g.patch_size(), images, batch, g, output);
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
  // image itself.
  const ConvGeometry rows{out_channels, 1, out_hw, 1, 1, 0};
  run_nchw(true, patch, weight, patch, grad_output, batch, rows, columns);
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
  gemm(transpose_a, transpose_b, m, n, k, 1.0f, a.data(), a_cols, b.data(), b_cols, 0.0f, c.data(),
       n);
  return c;
}

}  // namespace meanet::ops
