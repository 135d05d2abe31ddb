// 2-D convolutions: standard (one implicit GEMM over the whole batch,
// ops::conv_gemm_nchw) and depthwise.
//
// Conv2d's backward keeps the per-image float summation order of
// im2col + gemm() + col2im, so its gradients are bit-identical to that
// loop: the weight gradient is one GEMM per image
// (ops::conv_weight_grad) whose transposed im2col panels are packed
// straight from the cached input, no column matrix written; the input
// gradient is one GEMM per group of images (ops::conv_grad_columns:
// W^T packed once, B read straight from the NCHW output gradient) and
// one col2im per image.
// backward_params() skips the input gradient, which a layer reading
// the image never needs.
//
// Both layers expose forward_with(): a const, cache-free forward that
// takes the weights (and optional bias) as raw pointers. The eval-mode
// forward() delegates to it with the layer's own parameters;
// Sequential::forward delegates to it with BatchNorm-folded weights,
// which is how a Conv+BN pair collapses to one kernel in eval.
// Conv2d's also takes a residual and a ReLU: the bias, the residual add
// and the ReLU all run in the GEMM's tile epilogue (ops::ConvEpilogue),
// after the requantization on the int8 path.
#pragma once

#include "nn/layer.h"
#include "nn/parameter.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace meanet::nn {

/// Standard NCHW convolution with square kernels; see the file comment
/// for how its forward and backward run.
class Conv2d : public Layer {
 public:
  /// He-normal weight init; bias optional (ResNet-style convs followed by
  /// BatchNorm typically disable it).
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int padding, bool bias,
         util::Rng& rng, std::string name = "conv");

  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input) const override;
  LayerStats stats(const Shape& input) const override;
  std::int64_t activation_cache_elems() const override { return cached_input_.numel(); }

  /// Cache-free forward with externally supplied weights: `weight` has
  /// the layer's [out_c, in_c*k*k] layout, `bias` is [out_c] or null.
  /// Then `residual` (null, or a tensor of the output's shape) is added
  /// and, with `relu`, the sum is clamped at 0: per element, exactly
  /// the separate passes (bias, Tensor::add_, ReLU::forward), fused
  /// into the GEMM's tile epilogue. Thread-safe (scratch comes from the
  /// per-thread workspace).
  Tensor forward_with(const Tensor& input, const float* weight, const float* bias,
                      const Tensor* residual = nullptr, bool relu = false) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int padding() const { return padding_; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& bias() const { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  ops::ConvGeometry geometry(const Shape& input) const;

  int in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  std::string name_;
  Parameter weight_;  // [out_c, in_c * k * k]
  Parameter bias_;    // [out_c]
  Tensor cached_input_;
};

/// Depthwise convolution (one filter per channel), the core of the
/// MobileNetV2-style inverted-residual blocks. The 3x3 kernel (the only
/// size the MobileNet blocks use) runs a stride-specialized, fully
/// unrolled path with the bounds checks hoisted out of the interior.
class DepthwiseConv2d : public Layer {
 public:
  DepthwiseConv2d(int channels, int kernel, int stride, int padding, util::Rng& rng,
                  std::string name = "dwconv");

  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input) const override;
  LayerStats stats(const Shape& input) const override;
  std::int64_t activation_cache_elems() const override { return cached_input_.numel(); }

  /// Cache-free forward with externally supplied weights: `weight` has
  /// the layer's [channels, k*k] layout, `bias` is [channels] or null
  /// (the layer itself has no bias — a folded BatchNorm supplies one).
  Tensor forward_with(const Tensor& input, const float* weight, const float* bias) const;

  int channels() const { return channels_; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }

 private:
  int channels_, kernel_, stride_, padding_;
  std::string name_;
  Parameter weight_;  // [channels, k, k] stored flat as [channels, k*k]
  Tensor cached_input_;
};

}  // namespace meanet::nn
