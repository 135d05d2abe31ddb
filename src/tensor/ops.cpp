#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/gemm_kernels.h"

namespace meanet::ops {

namespace {

/// One im2col row segment, shared by im2col_into and the implicit-GEMM
/// B packer: dst[i] = channel[ih][(ow0 + i) * stride - padding + kw]
/// for i in [0, count), or `fill` where that tap lies in the padding.
template <typename T>
void copy_tap_row(const T* channel, const ConvGeometry& g, int ih, int kw, int ow0, int count,
                  T* dst, T fill) {
  if (ih < 0 || ih >= g.in_height) {
    std::fill(dst, dst + count, fill);
    return;
  }
  const T* in_row = channel + static_cast<std::ptrdiff_t>(ih) * g.in_width;
  const int shift = kw - g.padding;
  if (g.stride != 1) {
    for (int i = 0; i < count; ++i) {
      const int iw = (ow0 + i) * g.stride + shift;
      dst[i] = (iw >= 0 && iw < g.in_width) ? in_row[iw] : fill;
    }
    return;
  }
  // Contiguous tap: lanes [begin, end) copy the input row, the rest is
  // padding. A whole panel row (count == NR) gets inlined fixed sizes.
  const int begin = std::clamp(-shift - ow0, 0, count);
  const int end = std::clamp(g.in_width - shift - ow0, begin, count);
  if (count == detail::kNR) {
    if (end - begin == detail::kNR) {
      std::memcpy(dst, in_row + ow0 + shift, sizeof(T) * detail::kNR);
      return;
    }
    std::fill_n(dst, detail::kNR, fill);
  } else {
    if (begin > 0) std::fill(dst, dst + begin, fill);
    if (end < count) std::fill(dst + end, dst + count, fill);
  }
  if (end > begin) {
    std::memcpy(dst + begin, in_row + ow0 + shift + begin,
                sizeof(T) * static_cast<std::size_t>(end - begin));
  }
}

/// Shared im2col writer over floats (fill 0) or u8 codes (fill the
/// activation zero point).
template <typename T>
void im2col_into(const T* image, const ConvGeometry& g, T* columns, T fill) {
  const int out_h = g.out_height();
  const int out_w = g.out_width();
  for (int c = 0; c < g.in_channels; ++c) {
    const T* channel = image + static_cast<std::ptrdiff_t>(c) * g.in_height * g.in_width;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        T* out_row = columns + static_cast<std::ptrdiff_t>((c * g.kernel + kh) * g.kernel + kw) *
                                   out_h * out_w;
        for (int oh = 0; oh < out_h; ++oh) {
          copy_tap_row(channel, g, oh * g.stride - g.padding + kh, kw, 0, out_w,
                       out_row + static_cast<std::ptrdiff_t>(oh) * out_w, fill);
        }
      }
    }
  }
}

/// The outputs o in [lo, hi) whose tap o * stride + shift lands in
/// [0, extent).
struct TapSpan {
  int lo = 0, hi = 0;
};

TapSpan tap_span(int outputs, int stride, int shift, int extent) {
  // o * stride + shift >= 0 from o = ceil(-shift / stride) on, and
  // < extent up to o = floor((extent - 1 - shift) / stride).
  const int lo = std::min(outputs, shift >= 0 ? 0 : (stride - 1 - shift) / stride);
  const int last = extent - 1 - shift;
  const int hi = last < 0 ? lo : std::clamp(last / stride + 1, lo, outputs);
  return {lo, hi};
}

/// col2im with the stride as a compile-time constant (0: read it from
/// `g`). Each tap's in-image rows and columns are found once per call,
/// so the row loop is a plain strided add in ow order.
template <int kStride>
void col2im_t(const float* columns, const ConvGeometry& g, float* image) {
  const int stride = kStride > 0 ? kStride : g.stride;
  const int out_h = g.out_height();
  const int out_w = g.out_width();
  const std::ptrdiff_t out_hw = static_cast<std::ptrdiff_t>(out_h) * out_w;
  // spans[k]: the oh range of tap row k; spans[kernel + k]: the ow
  // range of tap column k.
  std::vector<TapSpan> spans(2 * static_cast<std::size_t>(g.kernel));
  for (int k = 0; k < g.kernel; ++k) {
    spans[k] = tap_span(out_h, stride, k - g.padding, g.in_height);
    spans[g.kernel + k] = tap_span(out_w, stride, k - g.padding, g.in_width);
  }
  const float* col_row = columns;
  for (int c = 0; c < g.in_channels; ++c) {
    float* channel = image + static_cast<std::ptrdiff_t>(c) * g.in_height * g.in_width;
    for (int kh = 0; kh < g.kernel; ++kh) {
      const TapSpan rows = spans[kh];
      for (int kw = 0; kw < g.kernel; ++kw, col_row += out_hw) {
        const TapSpan cols = spans[g.kernel + kw];
        const int count = cols.hi - cols.lo;
        for (int oh = rows.lo; oh < rows.hi; ++oh) {
          const int ih = oh * stride - g.padding + kh;
          float* dst = channel + static_cast<std::ptrdiff_t>(ih) * g.in_width +
                       (cols.lo * stride - g.padding + kw);
          const float* src = col_row + static_cast<std::ptrdiff_t>(oh) * out_w + cols.lo;
          for (int i = 0; i < count; ++i) dst[i * stride] += src[i];
        }
      }
    }
  }
}

/// The zero-point fill of the byte-domain paths (qgemm.h
/// kActivationZeroPoint): a float 0 quantizes to code
/// round(0 * inv) + 128 = 128, so padding bytes match what quantizing
/// a zero-padded float matrix would have produced.
constexpr std::uint8_t kU8ZeroPoint = 128;

}  // namespace

void im2col(const float* image, const ConvGeometry& g, float* columns) {
  im2col_into<float>(image, g, columns, 0.0f);
}

void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns) {
  im2col_into<std::uint8_t>(image, g, columns, kU8ZeroPoint);
}

void detail::pack_b_conv(const float* images, const ConvGeometry& g, int p0, int kc, int j0,
                         int nc, float* dst) {
  const int out_w = g.out_width();
  const int out_hw = g.out_height() * out_w;
  const int taps = g.kernel * g.kernel;
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(g.in_height) * g.in_width;
  const std::ptrdiff_t image_stride = g.in_channels * plane;
  // A panel's columns split into runs that share one image and one
  // output row; each run's taps are one copy_tap_row per k row.
  struct Run {
    const float* image;
    int ih0, ow0, count, offset;
  };
  Run runs[kNR] = {};
  for (int jb = 0; jb < nc; jb += kNR, dst += static_cast<std::ptrdiff_t>(kc) * kNR) {
    const int nr = std::min(kNR, nc - jb);
    int n_runs = 0;
    for (int offset = 0; offset < nr;) {
      const int col = j0 + jb + offset;
      const int image = col / out_hw, pixel = col - image * out_hw;
      const int oh = pixel / out_w, ow = pixel - oh * out_w;
      const int count = std::min(out_w - ow, nr - offset);
      runs[n_runs++] = {images + image * image_stride, oh * g.stride - g.padding, ow, count,
                        offset};
      offset += count;
    }
    // k row p is tap (kh, kw) of input channel c: p = (c*k + kh)*k + kw.
    int c = p0 / taps, kh = (p0 % taps) / g.kernel, kw = p0 % g.kernel;
    for (int p = 0; p < kc; ++p) {
      float* row = dst + static_cast<std::ptrdiff_t>(p) * kNR;
      for (int r = 0; r < n_runs; ++r) {
        const Run& run = runs[r];
        copy_tap_row(run.image + c * plane, g, run.ih0 + kh, kw, run.ow0, run.count,
                     row + run.offset, 0.0f);
      }
      if (nr < kNR) std::fill(row + nr, row + kNR, 0.0f);
      if (++kw == g.kernel) {
        kw = 0;
        if (++kh == g.kernel) {
          kh = 0;
          ++c;
        }
      }
    }
  }
}

void col2im(const float* columns, const ConvGeometry& g, float* image) {
  if (g.stride == 1) {
    col2im_t<1>(columns, g, image);
  } else if (g.stride == 2) {
    col2im_t<2>(columns, g, image);
  } else {
    col2im_t<0>(columns, g, image);
  }
}

void softmax_into(const Tensor& logits, Tensor& out) {
  if (logits.shape().rank() != 2) throw std::invalid_argument("softmax expects [rows, cols]");
  const int rows = logits.shape().dim(0), cols = logits.shape().dim(1);
  if (&out != &logits && out.shape() != logits.shape()) out = Tensor(logits.shape());
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float* o = out.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    float total = 0.0f;
    for (int c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      total += o[c];
    }
    const float inv = 1.0f / total;
    for (int c = 0; c < cols; ++c) o[c] *= inv;
  }
}

Tensor softmax(const Tensor& logits) {
  Tensor out;
  softmax_into(logits, out);
  return out;
}

Tensor log_softmax(const Tensor& logits) {
  if (logits.shape().rank() != 2) throw std::invalid_argument("log_softmax expects [rows, cols]");
  const int rows = logits.shape().dim(0), cols = logits.shape().dim(1);
  Tensor out(logits.shape());
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float* o = out.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    float total = 0.0f;
    for (int c = 0; c < cols; ++c) total += std::exp(in[c] - mx);
    const float log_z = mx + std::log(total);
    for (int c = 0; c < cols; ++c) o[c] = in[c] - log_z;
  }
  return out;
}

void row_entropy_into(const Tensor& probabilities, std::vector<float>& out) {
  if (probabilities.shape().rank() != 2) {
    throw std::invalid_argument("row_entropy expects [rows, cols]");
  }
  const int rows = probabilities.shape().dim(0), cols = probabilities.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* p = probabilities.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float h = 0.0f;
    for (int c = 0; c < cols; ++c) {
      if (p[c] > 0.0f) h -= p[c] * std::log(p[c]);
    }
    out[static_cast<std::size_t>(r)] = h;
  }
}

std::vector<float> row_entropy(const Tensor& probabilities) {
  std::vector<float> entropy;
  row_entropy_into(probabilities, entropy);
  return entropy;
}

void row_argmax_into(const Tensor& values, std::vector<int>& out) {
  if (values.shape().rank() != 2) throw std::invalid_argument("row_argmax expects [rows, cols]");
  const int rows = values.shape().dim(0), cols = values.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0);
  for (int r = 0; r < rows; ++r) {
    const float* v = values.data() + static_cast<std::ptrdiff_t>(r) * cols;
    int best = 0;
    for (int c = 1; c < cols; ++c) {
      if (v[c] > v[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
}

std::vector<int> row_argmax(const Tensor& values) {
  std::vector<int> idx;
  row_argmax_into(values, idx);
  return idx;
}

void row_max_into(const Tensor& values, std::vector<float>& out) {
  if (values.shape().rank() != 2) throw std::invalid_argument("row_max expects [rows, cols]");
  const int rows = values.shape().dim(0), cols = values.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* v = values.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float mx = v[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, v[c]);
    out[static_cast<std::size_t>(r)] = mx;
  }
}

std::vector<float> row_max(const Tensor& values) {
  std::vector<float> out;
  row_max_into(values, out);
  return out;
}

void row_margin_into(const Tensor& values, std::vector<float>& out) {
  if (values.shape().rank() != 2) throw std::invalid_argument("row_margin expects [rows, cols]");
  const int rows = values.shape().dim(0), cols = values.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* v = values.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float top1 = v[0];
    float top2 = -std::numeric_limits<float>::infinity();
    for (int c = 1; c < cols; ++c) {
      if (v[c] > top1) {
        top2 = top1;
        top1 = v[c];
      } else if (v[c] > top2) {
        top2 = v[c];
      }
    }
    out[static_cast<std::size_t>(r)] = cols == 1 ? top1 : top1 - top2;
  }
}

std::vector<float> row_margin(const Tensor& values) {
  std::vector<float> out;
  row_margin_into(values, out);
  return out;
}

Tensor gather_rows(const Tensor& source, const std::vector<int>& rows) {
  if (source.shape().rank() < 1 || source.shape().dim(0) <= 0) {
    throw std::invalid_argument("gather_rows: source needs a non-empty batch dimension");
  }
  const int batch = source.shape().dim(0);
  std::vector<int> dims = source.shape().dims();
  dims[0] = static_cast<int>(rows.size());
  Tensor out{Shape(dims)};
  const std::int64_t stride = source.numel() / batch;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] < 0 || rows[i] >= batch) {
      throw std::invalid_argument("gather_rows: row index out of range");
    }
    const float* src = source.data() + rows[i] * stride;
    std::copy(src, src + stride, out.data() + static_cast<std::int64_t>(i) * stride);
  }
  return out;
}

}  // namespace meanet::ops
