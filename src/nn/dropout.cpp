#include "nn/dropout.h"

#include <stdexcept>

namespace meanet::nn {

Dropout::Dropout(float probability, util::Rng& rng, std::string name)
    : probability_(probability), rng_(&rng), name_(std::move(name)) {
  if (probability < 0.0f || probability >= 1.0f) {
    throw std::invalid_argument("Dropout: probability must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, Mode mode) {
  if (mode == Mode::kEval) return input;  // identity; no member writes
  last_was_train_ = !frozen_;
  if (!last_was_train_ || probability_ == 0.0f) {
    mask_ = Tensor();  // identity; backward passes gradients through
    return input;
  }
  const float keep_scale = 1.0f / (1.0f - probability_);
  mask_ = Tensor(input.shape());
  Tensor output(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const bool keep = !rng_->bernoulli(probability_);
    mask_[i] = keep ? keep_scale : 0.0f;
    output[i] = input[i] * mask_[i];
  }
  return output;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;  // was identity
  check_grad_shape(grad_output, mask_.shape());
  Tensor grad_input(grad_output.shape());
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = grad_output[i] * mask_[i];
  }
  return grad_input;
}

LayerStats Dropout::stats(const Shape& input) const {
  LayerStats s;
  s.activation_elems = input.numel() / input.dim(0);
  return s;
}

}  // namespace meanet::nn
