// Reference kernels: the GEMM, the direct NCHW convolution, the
// depthwise convolution and its backward, and col2im, written out as
// their definitions, one loop nest each, with no blocking, packing or
// vector code. They are the oracles the parity tests compare the
// production kernels (ops::gemm, ops::conv_gemm_nchw, ops::col2im,
// DepthwiseConv2d's unrolled 3x3 path and its backward) against; the
// library itself never calls them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace meanet::testing {

/// C += op(A) * op(B), one k-ordered dot product per C element. A is
/// [m, k] after the optional transpose (stored [k, m] when transposed),
/// B is [k, n] (stored [n, k] when transposed).
inline void reference_gemm(bool transpose_a, bool transpose_b, int m, int n, int k,
                           const float* a, int lda, const float* b, int ldb, float* c, int ldc) {
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
      c[static_cast<std::ptrdiff_t>(i) * ldc + j] += acc;
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
  reference_gemm(transpose_a, transpose_b, m, n, k, a.data(), a.shape().dim(1), b.data(),
                 b.shape().dim(1), c.data(), n);
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

/// Inverse scatter-add of im2col for one image: adds the patch matrix
/// `columns` [C*k*k, out_h*out_w] into `image` [C, H, W] in (c, kh, kw,
/// oh, ow) order, skipping taps that fall in the padding. ops::col2im
/// must add in this same order, so the two agree to the bit.
inline void reference_col2im(const float* columns, int in_channels, int in_height, int in_width,
                             int kernel, int stride, int padding, float* image) {
  const int out_h = reference_conv_extent(in_height, kernel, stride, padding);
  const int out_w = reference_conv_extent(in_width, kernel, stride, padding);
  const int out_hw = out_h * out_w;
  for (int c = 0; c < in_channels; ++c) {
    float* channel = image + static_cast<std::ptrdiff_t>(c) * in_height * in_width;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw) {
        const float* col_row =
            columns + static_cast<std::ptrdiff_t>((c * kernel + kh) * kernel + kw) * out_hw;
        for (int oh = 0; oh < out_h; ++oh) {
          const int ih = oh * stride - padding + kh;
          if (ih < 0 || ih >= in_height) continue;
          float* in_row = channel + static_cast<std::ptrdiff_t>(ih) * in_width;
          const float* src = col_row + static_cast<std::ptrdiff_t>(oh) * out_w;
          for (int ow = 0; ow < out_w; ++ow) {
            const int iw = ow * stride - padding + kw;
            if (iw >= 0 && iw < in_width) in_row[iw] += src[ow];
          }
        }
      }
    }
  }
}

/// Depthwise convolution backward: returns dL/d(input) and, unless
/// `frozen`, adds dL/d(weight) into `grad_weight` ([channels, kernel^2]),
/// visiting (n, c, oh, ow, kh, kw) in order and skipping zero output
/// gradients. DepthwiseConv2d::backward must accumulate in this same
/// order, so the two agree to the bit.
inline Tensor reference_depthwise_backward(const Tensor& input, const Tensor& grad_output,
                                           const float* weight, int kernel, int stride,
                                           int padding, bool frozen, float* grad_weight) {
  const int batch = input.shape().batch();
  const int channels = input.shape().channels();
  const int in_h = input.shape().height(), in_w = input.shape().width();
  const int out_h = grad_output.shape().height(), out_w = grad_output.shape().width();
  Tensor grad_input(input.shape());
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* filt = weight + static_cast<std::int64_t>(c) * kernel * kernel;
      float* gfilt = grad_weight + static_cast<std::int64_t>(c) * kernel * kernel;
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          const float go = grad_output.at(n, c, oh, ow);
          if (go == 0.0f) continue;
          for (int kh = 0; kh < kernel; ++kh) {
            const int ih = oh * stride - padding + kh;
            if (ih < 0 || ih >= in_h) continue;
            for (int kw = 0; kw < kernel; ++kw) {
              const int iw = ow * stride - padding + kw;
              if (iw < 0 || iw >= in_w) continue;
              if (!frozen) gfilt[kh * kernel + kw] += go * input.at(n, c, ih, iw);
              grad_input.at(n, c, ih, iw) += go * filt[kh * kernel + kw];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace meanet::testing
