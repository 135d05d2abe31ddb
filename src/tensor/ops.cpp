#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/gemm_kernels.h"
#include "tensor/workspace.h"

namespace meanet::ops {

namespace {

/// One im2col row segment: dst[i] = channel[ih][(ow0 + i) * stride -
/// padding + kw] for i in [0, count), or `fill` where that tap lies in
/// the padding.
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
  // padding. A 16-wide row (count == NR) gets inlined fixed sizes.
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

detail::ConvBlockSource detail::conv_block_source(const float* images, const ConvGeometry& g,
                                                   int p0, int kc, int j0, int nc) {
  ConvBlockSource source;
  source.images = images;
  source.g = g;
  source.kc = kc;
  const int taps = g.kernel * g.kernel;
  if (g.padding > 0) {
    // Copy what the block reads — images [n0, n1] x channels [c0, c1] —
    // into a zero-padded slab once; its panels then pack it as an
    // unpadded geometry. nc columns touch at most nc / out_hw + 2
    // images and kc rows at most kc / k^2 + 2 channels, so the slab is
    // bounded by the block, not by the batch.
    const int out_hw = g.out_height() * g.out_width();
    const int n0 = j0 / out_hw, n1 = (j0 + nc - 1) / out_hw;
    const int c0 = p0 / taps, c1 = (p0 + kc - 1) / taps;
    const int pad = g.padding;
    ConvGeometry& padded = source.g;
    padded.in_channels = c1 - c0 + 1;
    padded.in_height = g.in_height + 2 * pad;
    padded.in_width = g.in_width + 2 * pad;
    padded.padding = 0;
    const int width = g.in_width, padded_width = padded.in_width;
    const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(g.in_height) * width;
    const std::ptrdiff_t padded_plane =
        static_cast<std::ptrdiff_t>(padded.in_height) * padded_width;
    float* slab = Workspace::tls().buffer(
        Workspace::kPaddedSlab,
        static_cast<std::size_t>(n1 - n0 + 1) * padded.in_channels * padded_plane);
    float* out = slab;
    for (int n = n0; n <= n1; ++n) {
      for (int c = c0; c <= c1; ++c, out += padded_plane) {
        const float* in = images + (static_cast<std::ptrdiff_t>(n) * g.in_channels + c) * plane;
        // The top pad rows and the first row's left pad, then each input
        // row followed by its right pad and the next row's left pad.
        float* o = std::fill_n(out, pad * padded_width + pad, 0.0f);
        for (int ih = 0; ih < g.in_height; ++ih, in += width) {
          o = std::copy_n(in, width, o);
          o = std::fill_n(o, 2 * pad, 0.0f);
        }
        std::fill(o, out + padded_plane, 0.0f);
      }
    }
    source.images = slab;
    source.j0 = n0 * out_hw;
    p0 -= c0 * taps;
  }
  // k row p is tap (kh, kw) of input channel c: p = (c*k + kh)*k + kw,
  // stepped without a division.
  const ConvGeometry& sg = source.g;
  const int k = sg.kernel;
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(sg.in_height) * sg.in_width;
  int c = p0 / taps, kh = p0 % taps / k, kw = p0 % k;
  for (int p = 0; p < kc; ++p) {
    source.taps[p] = c * plane + kh * sg.in_width + kw;
    if (++kw == k) {
      kw = 0;
      if (++kh == k) {
        kh = 0;
        ++c;
      }
    }
  }
  return source;
}

detail::BPanel detail::conv_b_panel(const ConvBlockSource& source, int j, int nr,
                                    bool in_place, float* dst) {
  // The source is unpadded, so every tap of every column lies inside
  // its image. Column j is image j / out_hw at output pixel (oh, ow),
  // whose k row p reads images[offset(j) + taps[p]] with offset(j) =
  // image * image_stride + oh*stride*W + ow*stride. The panel's offsets
  // rise strictly with j, so 16 of them spanning 15 floats are
  // consecutive: each k row is then 16 floats in place (or one 16-float
  // copy), and otherwise one 16-lane gather.
  const ConvGeometry& g = source.g;
  const int out_h = g.out_height(), out_w = g.out_width();
  const int out_hw = out_h * out_w;
  const std::ptrdiff_t row_step = static_cast<std::ptrdiff_t>(g.stride) * g.in_width;
  const std::ptrdiff_t image_stride =
      static_cast<std::ptrdiff_t>(g.in_channels) * g.in_height * g.in_width;
  // Column j + i is output pixel (oh, ow) of `image`, stepped without a
  // division.
  j -= source.j0;
  int image = j / out_hw, pixel = j - image * out_hw;
  int oh = pixel / out_w, ow = pixel - oh * out_w;
  const auto offset = [&] { return image * image_stride + oh * row_step + ow * g.stride; };
  const std::ptrdiff_t first_offset = offset();
  const float* first = source.images + first_offset;
  // 16 columns in one output row of a stride-1 conv are consecutive
  // (the common case, told without the lane offsets). Otherwise lane i
  // reads `first` + lanes[i]; lanes past nr read lane 0 and are zeroed
  // after.
  const bool in_one_row = nr == kNR && g.stride == 1 && ow + kNR <= out_w;
  std::ptrdiff_t lanes[kNR] = {};
  if (!in_one_row) {
    for (int i = 0; i < nr; ++i) {
      lanes[i] = offset() - first_offset;
      if (++ow == out_w) {
        ow = 0;
        if (++oh == out_h) {
          oh = 0;
          ++image;
        }
      }
    }
  }
  if (in_one_row || (nr == kNR && lanes[kNR - 1] == kNR - 1)) {
    if (in_place) return {first, source.taps};
    float* out = dst;
    for (int p = 0; p < source.kc; ++p, out += kNR) {
      std::memcpy(out, first + source.taps[p], sizeof(float) * kNR);
    }
    return {dst, nullptr};
  }
  float* out = dst;
  for (int p = 0; p < source.kc; ++p, out += kNR) {
    const float* row = first + source.taps[p];
    for (int i = 0; i < kNR; ++i) out[i] = row[lanes[i]];
    if (nr < kNR) std::fill(out + nr, out + kNR, 0.0f);
  }
  return {dst, nullptr};
}

void col2im(const float* columns, const ConvGeometry& g, float* image) {
  if (g.stride == 1) {
    col2im_t<1>(columns, g, image);
  } else {
    col2im_t<0>(columns, g, image);
  }
}

namespace {

/// The [rows, cols] of a row reduction's input: rank 2 with at least
/// one column (a row with none has no max, argmax or distribution).
std::pair<int, int> reduction_extent(const Tensor& t, const char* op) {
  if (t.shape().rank() != 2 || t.shape().dim(1) == 0) {
    throw std::invalid_argument(std::string(op) + " expects [rows, cols > 0], got " +
                                t.shape().to_string());
  }
  return {t.shape().dim(0), t.shape().dim(1)};
}

}  // namespace

void softmax_into(const Tensor& logits, Tensor& out) {
  const auto [rows, cols] = reduction_extent(logits, "softmax");
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
  const auto [rows, cols] = reduction_extent(logits, "log_softmax");
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
  const auto [rows, cols] = reduction_extent(values, "row_argmax");
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
  const auto [rows, cols] = reduction_extent(values, "row_max");
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
  const auto [rows, cols] = reduction_extent(values, "row_margin");
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
