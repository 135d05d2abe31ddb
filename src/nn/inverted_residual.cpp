#include "nn/inverted_residual.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"

namespace meanet::nn {

InvertedResidual::InvertedResidual(int in_channels, int out_channels, int stride, int expansion,
                                   util::Rng& rng, std::string name)
    : name_(std::move(name)),
      use_skip_(stride == 1 && in_channels == out_channels),
      main_(name_ + ".main") {
  if (expansion < 1) throw std::invalid_argument("InvertedResidual: expansion must be >= 1");
  const int hidden = in_channels * expansion;
  // Weights are drawn depthwise, project, expand: the order saved models
  // expect, which is not the layer order.
  auto dw = std::make_unique<DepthwiseConv2d>(hidden, 3, stride, 1, rng, name_ + ".dwconv");
  auto project = std::make_unique<Conv2d>(hidden, out_channels, 1, 1, 0, /*bias=*/false, rng,
                                          name_ + ".project");
  if (expansion > 1) {
    main_.emplace<Conv2d>(in_channels, hidden, 1, 1, 0, /*bias=*/false, rng, name_ + ".expand");
    main_.emplace<BatchNorm2d>(hidden, 0.1f, 1e-5f, name_ + ".expandbn");
    main_.emplace<ReLU6>(name_ + ".expandrelu");
  }
  main_.add(std::move(dw));
  main_.emplace<BatchNorm2d>(hidden, 0.1f, 1e-5f, name_ + ".dwbn");
  main_.emplace<ReLU6>(name_ + ".dwrelu");
  main_.add(std::move(project));
  main_.emplace<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".projectbn");
}

Tensor InvertedResidual::forward(const Tensor& input, Mode mode) {
  // In eval the skip add runs in the project conv's GEMM epilogue.
  if (mode == Mode::kEval) return main_.forward_eval(input, use_skip_ ? &input : nullptr, false);
  Tensor x = main_.forward(input, mode);
  if (use_skip_) x.add_(input);
  return x;
}

Tensor InvertedResidual::backward(const Tensor& grad_output) {
  Tensor g = main_.backward(grad_output);
  if (use_skip_) g.add_(grad_output);
  return g;
}

void InvertedResidual::set_frozen(bool frozen) {
  frozen_ = frozen;
  main_.set_frozen(frozen);
}

}  // namespace meanet::nn
