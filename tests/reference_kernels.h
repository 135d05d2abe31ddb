// Reference kernels: the GEMM, the direct NCHW convolution and the
// depthwise convolution written out as their definitions, one loop nest
// each, with no blocking, packing or vector code. They are the oracles
// the parity tests compare the production kernels (ops::gemm,
// ops::conv_gemm_nchw, DepthwiseConv2d's unrolled 3x3 path) against;
// the library itself never calls them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace meanet::testing {

/// C = alpha * op(A) * op(B) + beta * C, one k-ordered dot product per
/// C element. A is [m, k] after the optional transpose (stored [k, m]
/// when transposed), B is [k, n] (stored [n, k] when transposed).
/// beta == 0 overwrites C.
inline void reference_gemm(bool transpose_a, bool transpose_b, int m, int n, int k, float alpha,
                           const float* a, int lda, const float* b, int ldb, float beta, float* c,
                           int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float a_ip = transpose_a ? a[static_cast<std::ptrdiff_t>(p) * lda + i]
                                       : a[static_cast<std::ptrdiff_t>(i) * lda + p];
        const float b_pj = transpose_b ? b[static_cast<std::ptrdiff_t>(j) * ldb + p]
                                       : b[static_cast<std::ptrdiff_t>(p) * ldb + j];
        acc += a_ip * b_pj;
      }
      float& c_ij = c[static_cast<std::ptrdiff_t>(i) * ldc + j];
      c_ij = alpha * acc + (beta == 0.0f ? 0.0f : beta * c_ij);
    }
  }
}

/// op(A) * op(B) of rank-2 tensors through reference_gemm.
inline Tensor reference_matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
                               bool transpose_b = false) {
  const int m = transpose_a ? a.shape().dim(1) : a.shape().dim(0);
  const int k = transpose_a ? a.shape().dim(0) : a.shape().dim(1);
  const int n = transpose_b ? b.shape().dim(0) : b.shape().dim(1);
  Tensor c(Shape{m, n});
  reference_gemm(transpose_a, transpose_b, m, n, k, 1.0f, a.data(), a.shape().dim(1), b.data(),
                 b.shape().dim(1), 0.0f, c.data(), n);
  return c;
}

/// Output extent of a square-kernel convolution along one axis.
inline int reference_conv_extent(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

/// Direct NCHW convolution: out(n, oc, oh, ow) = sum over (ic, kh, kw)
/// of W(oc, ic, kh, kw) * in(n, ic, oh*s - p + kh, ow*s - p + kw), taps
/// outside the image skipped, then + bias[oc]. `weight` has Conv2d's
/// [out_channels, in_channels * kernel^2] layout; `bias` is
/// [out_channels] or null.
inline Tensor reference_conv(const Tensor& input, const float* weight, const float* bias,
                             int out_channels, int kernel, int stride, int padding) {
  const int batch = input.shape().batch();
  const int in_c = input.shape().channels();
  const int in_h = input.shape().height(), in_w = input.shape().width();
  const int out_h = reference_conv_extent(in_h, kernel, stride, padding);
  const int out_w = reference_conv_extent(in_w, kernel, stride, padding);
  Tensor out(Shape{batch, out_channels, out_h, out_w});
  for (int n = 0; n < batch; ++n) {
    for (int oc = 0; oc < out_channels; ++oc) {
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          float acc = 0.0f;
          for (int ic = 0; ic < in_c; ++ic) {
            for (int kh = 0; kh < kernel; ++kh) {
              for (int kw = 0; kw < kernel; ++kw) {
                const int ih = oh * stride - padding + kh;
                const int iw = ow * stride - padding + kw;
                if (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w) continue;
                acc += weight[(static_cast<std::int64_t>(oc) * in_c + ic) * kernel * kernel +
                              kh * kernel + kw] *
                       input.at(n, ic, ih, iw);
              }
            }
          }
          out.at(n, oc, oh, ow) = acc + (bias != nullptr ? bias[oc] : 0.0f);
        }
      }
    }
  }
  return out;
}

/// Direct depthwise convolution: channel c is convolved with its own
/// kernel^2 filter, taps outside the image skipped, then + bias[c].
/// `weight` has DepthwiseConv2d's [channels, kernel^2] layout; `bias`
/// is [channels] or null.
inline Tensor reference_depthwise(const Tensor& input, const float* weight, const float* bias,
                                  int kernel, int stride, int padding) {
  const int batch = input.shape().batch();
  const int channels = input.shape().channels();
  const int in_h = input.shape().height(), in_w = input.shape().width();
  const int out_h = reference_conv_extent(in_h, kernel, stride, padding);
  const int out_w = reference_conv_extent(in_w, kernel, stride, padding);
  Tensor out(Shape{batch, channels, out_h, out_w});
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* filt = weight + static_cast<std::int64_t>(c) * kernel * kernel;
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          float acc = 0.0f;
          for (int kh = 0; kh < kernel; ++kh) {
            for (int kw = 0; kw < kernel; ++kw) {
              const int ih = oh * stride - padding + kh;
              const int iw = ow * stride - padding + kw;
              if (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w) continue;
              acc += filt[kh * kernel + kw] * input.at(n, c, ih, iw);
            }
          }
          out.at(n, c, oh, ow) = acc + (bias != nullptr ? bias[c] : 0.0f);
        }
      }
    }
  }
  return out;
}

}  // namespace meanet::testing
