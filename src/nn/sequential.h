// Ordered container of layers with chained forward/backward.
//
// MEANet's main, adaptive and extension blocks are each a Sequential;
// the MEANet class wires them together (sum/concat fusion, two exits).
// ResidualBlock and InvertedResidual are built from Sequentials too.
//
// forward() is the one place that folds Conv+BatchNorm: in eval mode
// each adjacent (Conv2d | DepthwiseConv2d, BatchNorm2d) pair with
// matching channel counts runs as a single kernel whose weights and bias
// are folded from the BN's running statistics into per-thread scratch.
// A Conv2d pair also takes a ReLU that follows it, and — through
// forward_eval() — a residual block's add and ReLU, into its GEMM's
// tile epilogue (ops::ConvEpilogue), with the passes' own order, so
// the output is bit-identical to the unfused chain. Train mode is a
// plain layer-by-layer chain.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace meanet::nn {

class Sequential : public Layer {
 public:
  explicit Sequential(std::string name = "sequential") : name_(std::move(name)) {}

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input, Mode mode) override;
  /// The eval forward, whose output then gets `residual` (null, or a
  /// tensor of the output's shape) added and, with `relu`, a ReLU — both
  /// in the final Conv2d + BatchNorm2d pair's GEMM epilogue. Throws
  /// std::logic_error when either is asked for and the container does
  /// not end in such a pair.
  Tensor forward_eval(const Tensor& input, const Tensor* residual, bool relu);
  Tensor backward(const Tensor& grad_output) override;
  /// Chains the backward down to the first layer, which gets
  /// backward_params(): the container's input is data (an image), so
  /// nothing below it needs dL/d(input).
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<NamedTensor> state() override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input) const override;
  LayerStats stats(const Shape& input) const override;
  std::int64_t activation_cache_elems() const override;
  void set_frozen(bool frozen) override;

  int size() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int index) { return *layers_.at(static_cast<std::size_t>(index)); }
  const Layer& layer(int index) const { return *layers_.at(static_cast<std::size_t>(index)); }

  /// Per-layer stats for a given input shape (used by ModelStats).
  std::vector<LayerStats> layer_stats(const Shape& input) const;

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
};

}  // namespace meanet::nn
