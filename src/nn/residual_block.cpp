#include "nn/residual_block.h"

#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"

namespace meanet::nn {

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride, util::Rng& rng,
                             std::string name)
    : name_(std::move(name)),
      main_(name_ + ".main"),
      shortcut_(name_ + ".shortcut"),
      relu_(name_ + ".relu") {
  // Weights are drawn conv1, conv2, conv_sc: the order saved models expect.
  main_.emplace<Conv2d>(in_channels, out_channels, 3, stride, 1, /*bias=*/false, rng,
                        name_ + ".conv1");
  main_.emplace<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".bn1");
  main_.emplace<ReLU>(name_ + ".relu1");
  main_.emplace<Conv2d>(out_channels, out_channels, 3, 1, 1, /*bias=*/false, rng,
                        name_ + ".conv2");
  main_.emplace<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".bn2");
  if (stride != 1 || in_channels != out_channels) {
    shortcut_.emplace<Conv2d>(in_channels, out_channels, 1, stride, 0, /*bias=*/false, rng,
                              name_ + ".conv_sc");
    shortcut_.emplace<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".bn_sc");
  }
}

Tensor ResidualBlock::forward(const Tensor& input, Mode mode) {
  if (mode == Mode::kEval) {
    // The add and the ReLU finish conv2's GEMM tiles.
    if (!has_projection()) return main_.forward_eval(input, &input, true);
    const Tensor shortcut = shortcut_.forward(input, mode);
    return main_.forward_eval(input, &shortcut, true);
  }
  Tensor sum = main_.forward(input, mode);
  if (has_projection()) {
    sum.add_(shortcut_.forward(input, mode));
  } else {
    sum.add_(input);
  }
  return relu_.forward(sum, mode);
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  const Tensor g = relu_.backward(grad_output);
  Tensor grad_input = main_.backward(g);
  if (has_projection()) {
    grad_input.add_(shortcut_.backward(g));
  } else {
    grad_input.add_(g);
  }
  return grad_input;
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> out = main_.parameters();
  for (Parameter* p : shortcut_.parameters()) out.push_back(p);
  return out;
}

std::vector<NamedTensor> ResidualBlock::state() {
  std::vector<NamedTensor> out = main_.state();
  for (const NamedTensor& s : shortcut_.state()) out.push_back(s);
  return out;
}

LayerStats ResidualBlock::stats(const Shape& input) const {
  LayerStats total = main_.stats(input);
  total += shortcut_.stats(input);
  total += relu_.stats(output_shape(input));
  return total;
}

std::int64_t ResidualBlock::activation_cache_elems() const {
  return main_.activation_cache_elems() + shortcut_.activation_cache_elems() +
         relu_.activation_cache_elems();
}

void ResidualBlock::set_frozen(bool frozen) {
  frozen_ = frozen;
  main_.set_frozen(frozen);
  shortcut_.set_frozen(frozen);
}

}  // namespace meanet::nn
