#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
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

/// The im2col writer; its one instance is the int8 path's, over u8
/// codes (fill: the activation zero point).
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

void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns) {
  im2col_into<std::uint8_t>(image, g, columns, kU8ZeroPoint);
}

detail::ConvBlockSource detail::conv_block_source(const float* images, const ConvGeometry& g,
                                                   int p0, int kc, int j0, int nc) {
  ConvBlockSource source;
  source.images = images;
  source.g = g;
  source.out_h = g.out_height();
  source.out_w = g.out_width();
  source.kc = kc;
  const int taps = g.kernel * g.kernel;
  const int pad = g.padding, width = g.in_width;
  const int out_w = source.out_w, out_hw = source.out_h * out_w;
  std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(g.in_height) * width;
  source.image_stride = g.in_channels * plane;
  if (pad > 0) {
    // Copy what the block reads — images [n0, n1] x channels [c0, c1] —
    // into the slab once, each plane as p zero rows, its H input rows
    // (one contiguous copy) and p zero rows, then p zero guard floats;
    // p more lead the first plane. nc columns touch at most
    // nc / out_hw + 2 images and kc rows at most kc / k^2 + 2 channels,
    // so the slab is bounded by the block, not by the batch.
    const int n0 = j0 / out_hw, n1 = (j0 + nc - 1) / out_hw;
    const int c0 = p0 / taps, c1 = (p0 + kc - 1) / taps;
    const int channels = c1 - c0 + 1;
    const std::ptrdiff_t image_plane = plane, pad_rows = static_cast<std::ptrdiff_t>(pad) * width;
    plane = image_plane + 2 * pad_rows + pad;
    float* slab = Workspace::tls().buffer(
        Workspace::kPaddedSlab,
        static_cast<std::size_t>(pad + (n1 - n0 + 1) * channels * plane));
    float* out = std::fill_n(slab, pad, 0.0f);
    for (int n = n0; n <= n1; ++n) {
      for (int c = c0; c <= c1; ++c) {
        const float* in = images + (static_cast<std::ptrdiff_t>(n) * g.in_channels + c) *
                                       image_plane;
        out = std::fill_n(out, pad_rows, 0.0f);
        out = std::copy_n(in, image_plane, out);
        out = std::fill_n(out, pad_rows + pad, 0.0f);
      }
    }
    source.images = slab + pad;
    source.image_stride = channels * plane;
    j0 -= n0 * out_hw;
    p0 -= c0 * taps;
  }
  source.image = j0 / out_hw;
  source.oh = j0 % out_hw / out_w;
  source.ow = j0 % out_w;
  // k row p is tap (kh, kw) of input channel c: p = (c*k + kh)*k + kw,
  // stepped without a division.
  const int k = g.kernel;
  int c = p0 / taps, kh = p0 % taps / k, kw = p0 % k;
  for (int p = 0; p < kc; ++p) {
    source.taps[p] = c * plane + kh * width + kw - pad;
    source.kws[p] = pad > 0 ? kw : 0;
    if (++kw == k) {
      kw = 0;
      if (++kh == k) {
        kh = 0;
        ++c;
      }
    }
  }
  // Panel t of the block starts at output column (ow0 + 16t) mod out_w,
  // so its masks repeat every out_w / gcd(out_w, 16) panels. Lane i of
  // that panel is output column (its first + i) mod out_w, whose tap
  // column ow * stride + kw - p must lie in [0, W).
  source.mask_k = pad > 0 ? k : 1;
  source.phases = pad > 0 ? std::min((nc + kNR - 1) / kNR, out_w / std::gcd(out_w, kNR)) : 1;
  const std::size_t count = static_cast<std::size_t>(source.phases + 1) * source.mask_k;
  source.masks = reinterpret_cast<std::uint16_t*>(
      Workspace::tls().byte_buffer(Workspace::kLaneMasks, count * sizeof(std::uint16_t)));
  source.ragged = source.masks + count - source.mask_k;
  if (pad == 0) {
    source.masks[0] = 0xFFFF;
    return source;
  }
  std::uint16_t* masks = source.masks;
  for (int t = 0; t < source.phases; ++t, masks += k) {
    std::fill_n(masks, k, 0);
    int ow = (source.ow + t * kNR) % out_w;
    for (int i = 0; i < kNR; ++i) {
      const int col = ow * g.stride - pad;
      for (int tap = 0; tap < k; ++tap) {
        if (col + tap >= 0 && col + tap < width) masks[tap] |= 1u << i;
      }
      if (++ow == out_w) ow = 0;
    }
  }
  return source;
}

detail::PanelRead detail::conv_b_panel(ConvBlockSource& source, int nr) {
  // Column (image, oh, ow) reads images[offset + taps[p]] in k row p,
  // with offset = image * image_stride + oh*stride*W + ow*stride. A
  // stride-1 panel inside one output row is consecutive, and so is one
  // inside one image when an output row is an input row (out_w == W:
  // the slab has no horizontal padding between rows); either is one
  // load per k row. Any other panel is one 16-lane gather per k row.
  const ConvGeometry& g = source.g;
  const int out_h = source.out_h, out_w = source.out_w;
  const std::ptrdiff_t row_step = static_cast<std::ptrdiff_t>(g.stride) * g.in_width;
  int image = source.image, oh = source.oh, ow = source.ow;
  PanelRead read;
  read.taps = source.taps;
  read.kws = source.kws;
  read.kc = source.kc;
  read.masks = source.masks + source.phase * source.mask_k;
  if (++source.phase == source.phases) source.phase = 0;
  for (source.ow += kNR; source.ow >= out_w; source.ow -= out_w) {
    if (++source.oh == out_h) {
      source.oh = 0;
      ++source.image;
    }
  }
  const auto offset = [&] { return image * source.image_stride + oh * row_step + ow * g.stride; };
  const std::ptrdiff_t first_offset = offset();
  read.first = source.images + first_offset;
  if (nr == kNR && g.stride == 1 &&
      (ow + kNR <= out_w || (out_w == g.in_width && oh * out_w + ow + kNR <= out_h * out_w))) {
    return read;
  }
  // Lane i reads `first` + lanes[i]; lanes past nr read lane 0 and are
  // masked off.
  std::int32_t* lanes = source.lanes;
  std::fill_n(lanes, kNR, 0);
  for (int i = 0; i < nr; ++i) {
    lanes[i] = static_cast<std::int32_t>(offset() - first_offset);
    if (++ow == out_w) {
      ow = 0;
      if (++oh == out_h) {
        oh = 0;
        ++image;
      }
    }
  }
  read.lanes = lanes;
  if (nr < kNR) {
    for (int kw = 0; kw < source.mask_k; ++kw) {
      source.ragged[kw] = static_cast<std::uint16_t>(read.masks[kw] & ((1u << nr) - 1u));
    }
    read.masks = source.ragged;
  }
  return read;
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
