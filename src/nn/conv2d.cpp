#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/qgemm.h"
#include "tensor/workspace.h"

namespace meanet::nn {

namespace {

/// Scratch budget of Conv2d::backward's input-gradient columns, in
/// floats (256 KiB). Images go through in groups that fit it, so the
/// scratch does not grow with the batch or the model; on ResNet-B a
/// whole-batch buffer ran no faster.
constexpr std::int64_t kGradColumnsFloats = 64 * 1024;

Tensor he_normal(Shape shape, int fan_in, util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::normal(std::move(shape), rng, 0.0f, stddev);
}

/// Guarded single-tap accumulation for the depthwise fringe pixels.
inline float dw_tap_guarded(const float* channel, const float* filt, int kernel, int stride,
                            int padding, int in_h, int in_w, int oh, int ow) {
  float acc = 0.0f;
  for (int kh = 0; kh < kernel; ++kh) {
    const int ih = oh * stride - padding + kh;
    if (ih < 0 || ih >= in_h) continue;
    const float* in_row = channel + static_cast<std::ptrdiff_t>(ih) * in_w;
    for (int kw = 0; kw < kernel; ++kw) {
      const int iw = ow * stride - padding + kw;
      if (iw < 0 || iw >= in_w) continue;
      acc += filt[kh * kernel + kw] * in_row[iw];
    }
  }
  return acc;
}

/// Stride-specialized unrolled 3x3 depthwise channel: interior rows and
/// columns (no bounds checks possible) run the fully unrolled 9-tap
/// kernel on three streaming row pointers; the fringe falls back to the
/// guarded tap. The accumulation order (kh, then kw) matches the
/// guarded tap's exactly, so the result is bit-identical to the guarded
/// per-pixel loop the other kernel sizes run.
template <int kStride>
void dw_channel_3x3(const float* channel, const float* filt, int padding, int in_h, int in_w,
                    int out_h, int out_w, float* out) {
  const float f00 = filt[0], f01 = filt[1], f02 = filt[2];
  const float f10 = filt[3], f11 = filt[4], f12 = filt[5];
  const float f20 = filt[6], f21 = filt[7], f22 = filt[8];
  // Interior output columns: every iw = ow*stride - padding + {0,1,2}
  // lands in [0, in_w). When the image is narrower than the kernel the
  // numerator goes negative and C++ division truncates toward zero, so
  // guard it explicitly — no interior exists then.
  const int ow_lo = std::min(out_w, (padding + kStride - 1) / kStride);
  const int interior_last = in_w - 3 + padding;  // largest ow*stride with all taps in bounds
  const int ow_hi = interior_last < 0
                        ? ow_lo
                        : std::max(ow_lo, std::min(out_w, interior_last / kStride + 1));
  for (int oh = 0; oh < out_h; ++oh) {
    const int ih0 = oh * kStride - padding;
    float* dst = out + static_cast<std::ptrdiff_t>(oh) * out_w;
    if (ih0 < 0 || ih0 + 2 >= in_h) {
      for (int ow = 0; ow < out_w; ++ow) {
        dst[ow] = dw_tap_guarded(channel, filt, 3, kStride, padding, in_h, in_w, oh, ow);
      }
      continue;
    }
    const float* r0 = channel + static_cast<std::ptrdiff_t>(ih0) * in_w;
    const float* r1 = r0 + in_w;
    const float* r2 = r1 + in_w;
    for (int ow = 0; ow < ow_lo; ++ow) {
      dst[ow] = dw_tap_guarded(channel, filt, 3, kStride, padding, in_h, in_w, oh, ow);
    }
    for (int ow = ow_lo; ow < ow_hi; ++ow) {
      const int iw = ow * kStride - padding;
      dst[ow] = f00 * r0[iw] + f01 * r0[iw + 1] + f02 * r0[iw + 2] +
                f10 * r1[iw] + f11 * r1[iw + 1] + f12 * r1[iw + 2] +
                f20 * r2[iw] + f21 * r2[iw + 1] + f22 * r2[iw + 2];
    }
    for (int ow = ow_hi; ow < out_w; ++ow) {
      dst[ow] = dw_tap_guarded(channel, filt, 3, kStride, padding, in_h, in_w, oh, ow);
    }
  }
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride, int padding, bool bias,
               util::Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              he_normal(Shape{out_channels, in_channels * kernel * kernel},
                        in_channels * kernel * kernel, rng)),
      bias_(name_ + ".bias", Tensor::zeros(Shape{out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || padding < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
}

ops::ConvGeometry Conv2d::geometry(const Shape& input) const {
  if (input.channels() != in_channels_) {
    throw std::invalid_argument(name_ + ": expected " + std::to_string(in_channels_) +
                                " input channels, got " + input.to_string());
  }
  ops::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_height = input.height();
  g.in_width = input.width();
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  return g;
}

Shape Conv2d::output_shape(const Shape& input) const {
  const ops::ConvGeometry g = geometry(input);
  return Shape{input.batch(), out_channels_, g.out_height(), g.out_width()};
}

Tensor Conv2d::forward_with(const Tensor& input, const float* weight, const float* bias,
                            const Tensor* residual, bool relu) const {
  const ops::ConvGeometry g = geometry(input.shape());
  const int batch = input.shape().batch();
  const int out_h = g.out_height(), out_w = g.out_width();
  const int out_hw = out_h * out_w;
  const int patch = g.patch_size();
  Tensor output(Shape{batch, out_channels_, out_h, out_w});
  if (residual != nullptr && residual->shape() != output.shape()) {
    throw std::invalid_argument(name_ + ": residual " + residual->shape().to_string() +
                                " does not match the output " + output.shape().to_string());
  }
  const std::int64_t in_stride = static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;
  const std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_hw;
  if (ops::quantized_inference()) {
    // int8 serving path: quantize the (possibly BN-folded) weights per
    // row once per call; per image quantize the input tile per-tensor
    // and expand it with the byte-domain im2col (quantization is
    // pointwise and im2col only replicates pixels / pads zero-point
    // bytes, so the byte matrix is exactly what quantizing a float
    // im2col would give — for C*H*W instead of patch*out_hw quantize
    // work and a quarter of the copy traffic). The bias lands in the
    // requantization epilogue. All scratch is per-thread workspace —
    // this path stays const-safe and cache-free like the float path.
    ops::Workspace& workspace = ops::Workspace::tls();
    const int k_padded = ops::quantized_k_padded(patch);
    auto* wq = reinterpret_cast<std::int8_t*>(workspace.byte_buffer(
        ops::Workspace::kQuantWeights, static_cast<std::size_t>(out_channels_) * k_padded));
    float* scales =
        workspace.buffer(ops::Workspace::kQuantScales, static_cast<std::size_t>(out_channels_));
    auto* row_sums = reinterpret_cast<std::int32_t*>(workspace.byte_buffer(
        ops::Workspace::kQuantRowSums,
        static_cast<std::size_t>(out_channels_) * sizeof(std::int32_t)));
    ops::quantize_weight_rows(weight, out_channels_, patch, wq, scales, row_sums);
    std::uint8_t* tile = workspace.byte_buffer(
        ops::Workspace::kQuantTile, static_cast<std::size_t>(in_stride));
    std::uint8_t* act = workspace.byte_buffer(
        ops::Workspace::kQuantAct, static_cast<std::size_t>(patch) * out_hw);
    for (int n = 0; n < batch; ++n) {
      const float* image = input.data() + n * in_stride;
      const float a_scale = ops::activation_scale(image, static_cast<std::size_t>(in_stride));
      ops::quantize_activations_u8(image, static_cast<std::size_t>(in_stride), a_scale, tile);
      ops::im2col_u8(tile, g, act);
      ops::qgemm_u8s8(out_channels_, out_hw, patch, k_padded, wq, scales, row_sums, act, a_scale,
                      bias, output.data() + n * out_stride, out_hw);
    }
    if (residual != nullptr || relu) {
      // The residual and ReLU follow the requantization, in the float
      // path's order.
      float* out = output.data();
      const float* res = residual != nullptr ? residual->data() : nullptr;
      for (std::int64_t i = 0, count = output.numel(); i < count; ++i) {
        float v = out[i];
        if (res != nullptr) v = v + res[i];
        if (relu) v = v > 0.0f ? v : 0.0f;
        out[i] = v;
      }
    }
    return output;
  }
  // output is zero-filled; the one implicit GEMM accumulates into it
  // and finishes each tile with the bias, residual and ReLU.
  ops::conv_gemm_nchw(out_channels_, weight, input.data(), batch, g, output.data(),
                      {bias, residual != nullptr ? residual->data() : nullptr, relu});
  return output;
}

Tensor Conv2d::forward(const Tensor& input, Mode mode) {
  Tensor output =
      forward_with(input, weight_.value.data(), has_bias_ ? bias_.value.data() : nullptr);
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, output_shape(cached_input_.shape()));
  if (frozen_) return;
  const ops::ConvGeometry g = geometry(cached_input_.shape());
  const int batch = cached_input_.shape().batch();
  const int out_hw = g.out_height() * g.out_width();
  const int patch = g.patch_size();
  const std::int64_t in_stride = static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;
  const std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_hw;
  float* columns = ops::Workspace::tls().buffer(ops::Workspace::kColumns,
                                                static_cast<std::size_t>(patch) * out_hw);
  for (int n = 0; n < batch; ++n) {
    const float* gout = grad_output.data() + n * out_stride;
    // dW += gout [out_c, out_hw] * columns^T [out_hw, patch]
    ops::im2col(cached_input_.data() + n * in_stride, g, columns);
    ops::gemm(false, true, out_channels_, patch, out_hw, gout, out_hw, columns, out_hw,
              weight_.grad.data(), patch);
    if (has_bias_) {
      for (int oc = 0; oc < out_channels_; ++oc) {
        const float* go = gout + static_cast<std::int64_t>(oc) * out_hw;
        float acc = 0.0f;
        for (int i = 0; i < out_hw; ++i) acc += go[i];
        bias_.grad[oc] += acc;
      }
    }
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const ops::ConvGeometry g = geometry(cached_input_.shape());
  const int batch = cached_input_.shape().batch();
  const int out_hw = g.out_height() * g.out_width();
  const std::int64_t per_image = static_cast<std::int64_t>(g.patch_size()) * out_hw;
  const std::int64_t in_stride = static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;
  const std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_hw;
  const int group = static_cast<int>(
      std::clamp<std::int64_t>(kGradColumnsFloats / std::max<std::int64_t>(per_image, 1), 1,
                               std::max(batch, 1)));
  float* grad_columns = ops::Workspace::tls().buffer(
      ops::Workspace::kColumns, static_cast<std::size_t>(group * per_image));
  Tensor grad_input(cached_input_.shape());
  for (int n0 = 0; n0 < batch; n0 += group) {
    const int images = std::min(group, batch - n0);
    // grad_columns[n] = W^T [patch, out_c] * gout[n] [out_c, out_hw]
    ops::conv_grad_columns(out_channels_, weight_.value.data(),
                           grad_output.data() + n0 * out_stride, images, g, grad_columns);
    for (int n = 0; n < images; ++n) {
      ops::col2im(grad_columns + n * per_image, g, grad_input.data() + (n0 + n) * in_stride);
    }
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

LayerStats Conv2d::stats(const Shape& input) const {
  const ops::ConvGeometry g = geometry(input);
  LayerStats s;
  s.params = weight_.numel() + (has_bias_ ? bias_.numel() : 0);
  s.macs = static_cast<std::int64_t>(out_channels_) * g.patch_size() * g.out_height() *
           g.out_width();
  s.activation_elems =
      static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;  // cached input
  return s;
}

DepthwiseConv2d::DepthwiseConv2d(int channels, int kernel, int stride, int padding, util::Rng& rng,
                                 std::string name)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      name_(std::move(name)),
      weight_(name_ + ".weight", he_normal(Shape{channels, kernel * kernel}, kernel * kernel, rng)) {
  if (channels <= 0 || kernel <= 0 || stride <= 0 || padding < 0) {
    throw std::invalid_argument("DepthwiseConv2d: invalid geometry");
  }
}

Shape DepthwiseConv2d::output_shape(const Shape& input) const {
  if (input.channels() != channels_) {
    throw std::invalid_argument(name_ + ": channel mismatch, got " + input.to_string());
  }
  const int out_h = (input.height() + 2 * padding_ - kernel_) / stride_ + 1;
  const int out_w = (input.width() + 2 * padding_ - kernel_) / stride_ + 1;
  return Shape{input.batch(), channels_, out_h, out_w};
}

Tensor DepthwiseConv2d::forward_with(const Tensor& input, const float* weight,
                                     const float* bias) const {
  const Shape out_shape = output_shape(input.shape());
  const int batch = input.shape().batch();
  const int in_h = input.shape().height(), in_w = input.shape().width();
  const int out_h = out_shape.height(), out_w = out_shape.width();
  const std::int64_t in_hw = static_cast<std::int64_t>(in_h) * in_w;
  const std::int64_t out_hw = static_cast<std::int64_t>(out_h) * out_w;
  // Per-call invariants, hoisted out of the (n, c) loop: the fast-path
  // predicate, the filter size, and the base pointers are identical for
  // every channel of every image.
  const bool fast = kernel_ == 3 && (stride_ == 1 || stride_ == 2);
  const int kk = kernel_ * kernel_;
  Tensor output(out_shape);
  const float* in_base = input.data();
  float* out_base = output.data();
  for (int item = 0; item < batch * channels_; ++item) {
    const int c = item % channels_;
    const float* channel = in_base + static_cast<std::int64_t>(item) * in_hw;
    const float* filt = weight + static_cast<std::int64_t>(c) * kk;
    float* out = out_base + static_cast<std::int64_t>(item) * out_hw;
    if (fast) {
      if (stride_ == 1) {
        dw_channel_3x3<1>(channel, filt, padding_, in_h, in_w, out_h, out_w, out);
      } else {
        dw_channel_3x3<2>(channel, filt, padding_, in_h, in_w, out_h, out_w, out);
      }
    } else {
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          out[static_cast<std::ptrdiff_t>(oh) * out_w + ow] =
              dw_tap_guarded(channel, filt, kernel_, stride_, padding_, in_h, in_w, oh, ow);
        }
      }
    }
    if (bias != nullptr) {
      const float b = bias[c];
      for (std::int64_t i = 0; i < out_hw; ++i) out[i] += b;
    }
  }
  return output;
}

Tensor DepthwiseConv2d::forward(const Tensor& input, Mode mode) {
  Tensor output = forward_with(input, weight_.value.data(), nullptr);
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, output_shape(cached_input_.shape()));
  const Shape& in_shape = cached_input_.shape();
  const int batch = in_shape.batch();
  const int in_h = in_shape.height(), in_w = in_shape.width();
  const int out_h = grad_output.shape().height(), out_w = grad_output.shape().width();
  const std::int64_t in_hw = static_cast<std::int64_t>(in_h) * in_w;
  const std::int64_t out_hw = static_cast<std::int64_t>(out_h) * out_w;
  const int kk = kernel_ * kernel_;
  const bool accumulate_weight = !frozen_;
  Tensor grad_input(in_shape);
  // Base pointers per (image, channel) plane; the visiting order — and
  // so every float sum — is the (n, c, oh, ow, kh, kw) loop of the
  // element-wise definition.
  for (int item = 0; item < batch * channels_; ++item) {
    const int c = item % channels_;
    const float* in = cached_input_.data() + item * in_hw;
    const float* gout = grad_output.data() + item * out_hw;
    float* gin = grad_input.data() + item * in_hw;
    const float* filt = weight_.value.data() + static_cast<std::int64_t>(c) * kk;
    float* gfilt = weight_.grad.data() + static_cast<std::int64_t>(c) * kk;
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ++ow) {
        const float go = gout[static_cast<std::ptrdiff_t>(oh) * out_w + ow];
        if (go == 0.0f) continue;
        for (int kh = 0; kh < kernel_; ++kh) {
          const int ih = oh * stride_ - padding_ + kh;
          if (ih < 0 || ih >= in_h) continue;
          const float* in_row = in + static_cast<std::ptrdiff_t>(ih) * in_w;
          float* gin_row = gin + static_cast<std::ptrdiff_t>(ih) * in_w;
          for (int kw = 0; kw < kernel_; ++kw) {
            const int iw = ow * stride_ - padding_ + kw;
            if (iw < 0 || iw >= in_w) continue;
            if (accumulate_weight) gfilt[kh * kernel_ + kw] += go * in_row[iw];
            gin_row[iw] += go * filt[kh * kernel_ + kw];
          }
        }
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> DepthwiseConv2d::parameters() { return {&weight_}; }

LayerStats DepthwiseConv2d::stats(const Shape& input) const {
  const Shape out = output_shape(input);
  LayerStats s;
  s.params = weight_.numel();
  s.macs = static_cast<std::int64_t>(channels_) * kernel_ * kernel_ * out.height() * out.width();
  s.activation_elems = static_cast<std::int64_t>(input.channels()) * input.height() * input.width();
  return s;
}

}  // namespace meanet::nn
