// Basic residual block (ResNet v1 style):
//   out = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x) )
// with a 1x1 Conv+BN shortcut when the shape changes.
//
// The block is two Sequentials and a ReLU: main = {conv1, bn1, relu1,
// conv2, bn2}, shortcut = {conv_sc, bn_sc} (empty for an identity
// shortcut), and the ReLU after the add. Eval-mode Conv+BN folding comes
// from Sequential::forward. In train mode the block adds the two paths
// and runs the ReLU; in eval it computes the shortcut first and hands it
// to Sequential::forward_eval, so the add and the ReLU run in conv2's
// GEMM epilogue (no Tensor::add_ or ReLU pass).
#pragma once

#include "nn/activations.h"
#include "nn/layer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace meanet::nn {

class ResidualBlock : public Layer {
 public:
  ResidualBlock(int in_channels, int out_channels, int stride, util::Rng& rng,
                std::string name = "resblock");

  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<NamedTensor> state() override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input) const override { return main_.output_shape(input); }
  LayerStats stats(const Shape& input) const override;
  std::int64_t activation_cache_elems() const override;
  void set_frozen(bool frozen) override;

  bool has_projection() const { return shortcut_.size() > 0; }
  /// {conv1, bn1, relu1, conv2, bn2}.
  Sequential& main_path() { return main_; }
  /// {conv_sc, bn_sc}, or empty for an identity shortcut.
  Sequential& shortcut() { return shortcut_; }

 private:
  std::string name_;
  Sequential main_;
  Sequential shortcut_;  // empty => identity shortcut
  ReLU relu_;            // after the add
};

}  // namespace meanet::nn
