#include "nn/linear.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace meanet::nn {

namespace {
Tensor xavier_uniform(Shape shape, int fan_in, int fan_out, util::Rng& rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::uniform(std::move(shape), rng, -limit, limit);
}
}  // namespace

Linear::Linear(int in_features, int out_features, util::Rng& rng, std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              xavier_uniform(Shape{out_features, in_features}, in_features, out_features, rng)),
      bias_(name_ + ".bias", Tensor::zeros(Shape{out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: invalid dimensions");
  }
}

Shape Linear::output_shape(const Shape& input) const {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument(name_ + ": expected [batch, " + std::to_string(in_features_) +
                                "], got " + input.to_string());
  }
  return Shape{input.dim(0), out_features_};
}

Tensor Linear::forward(const Tensor& input, Mode mode) {
  const Shape out_shape = output_shape(input.shape());
  const int batch = input.shape().dim(0);
  Tensor output(out_shape);
  // output = input [batch, in] * W^T [in, out]
  ops::gemm(false, true, batch, out_features_, in_features_, input.data(), in_features_,
            weight_.value.data(), in_features_, output.data(), out_features_);
  for (int n = 0; n < batch; ++n) {
    float* row = output.data() + static_cast<std::int64_t>(n) * out_features_;
    for (int o = 0; o < out_features_; ++o) row[o] += bias_.value[o];
  }
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, output_shape(cached_input_.shape()));
  const int batch = cached_input_.shape().dim(0);
  if (!frozen_) {
    // dW += gout^T [out, batch] * input [batch, in]
    ops::gemm(true, false, out_features_, in_features_, batch, grad_output.data(), out_features_,
              cached_input_.data(), in_features_, weight_.grad.data(), in_features_);
    for (int n = 0; n < batch; ++n) {
      const float* row = grad_output.data() + static_cast<std::int64_t>(n) * out_features_;
      for (int o = 0; o < out_features_; ++o) bias_.grad[o] += row[o];
    }
  }
  // dX = gout [batch, out] * W [out, in]
  Tensor grad_input(cached_input_.shape());
  ops::gemm(false, false, batch, in_features_, out_features_, grad_output.data(), out_features_,
            weight_.value.data(), in_features_, grad_input.data(), in_features_);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

LayerStats Linear::stats(const Shape& input) const {
  LayerStats s;
  s.params = weight_.numel() + bias_.numel();
  s.macs = static_cast<std::int64_t>(in_features_) * out_features_;
  s.activation_elems = input.dim(1);
  return s;
}

}  // namespace meanet::nn
