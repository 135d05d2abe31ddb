// MobileNetV2 inverted residual block:
//   1x1 expand Conv+BN+ReLU6 -> 3x3 depthwise Conv+BN+ReLU6
//   -> 1x1 project Conv+BN (linear bottleneck), with a residual skip
//   when stride == 1 and in_channels == out_channels.
//
// The block is one Sequential of those layers plus the skip add; the
// expand stage is left out when expansion == 1. Eval-mode Conv+BN
// folding comes from Sequential::forward; in eval the skip add runs in
// the project conv's GEMM epilogue (Sequential::forward_eval).
#pragma once

#include "nn/layer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace meanet::nn {

class InvertedResidual : public Layer {
 public:
  InvertedResidual(int in_channels, int out_channels, int stride, int expansion, util::Rng& rng,
                   std::string name = "invres");

  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return main_.parameters(); }
  std::vector<NamedTensor> state() override { return main_.state(); }
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input) const override { return main_.output_shape(input); }
  LayerStats stats(const Shape& input) const override { return main_.stats(input); }
  std::int64_t activation_cache_elems() const override { return main_.activation_cache_elems(); }
  void set_frozen(bool frozen) override;

  bool has_skip() const { return use_skip_; }
  /// Every layer but the skip add, in order.
  Sequential& main_path() { return main_; }

 private:
  std::string name_;
  bool use_skip_;
  Sequential main_;
};

}  // namespace meanet::nn
