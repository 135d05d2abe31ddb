#include "nn/activations.h"

#include <stdexcept>

namespace meanet::nn {

Tensor ReLU::forward(const Tensor& input, Mode mode) {
  Tensor output(input.shape());
  const float* in = input.data();
  float* out = output.data();
  for (std::int64_t i = 0, n = input.numel(); i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, cached_input_.shape());
  Tensor grad_input(grad_output.shape());
  const float* x = cached_input_.data();
  const float* g = grad_output.data();
  float* out = grad_input.data();
  // g[i] is loaded on both sides of the select so it compiles to a
  // branch-free blend; a conditional load costs a mispredict per element.
  for (std::int64_t i = 0, n = grad_output.numel(); i < n; ++i) {
    const float gi = g[i];
    out[i] = x[i] > 0.0f ? gi : 0.0f;
  }
  return grad_input;
}

LayerStats ReLU::stats(const Shape& input) const {
  LayerStats s;
  s.activation_elems = input.numel() / input.dim(0);
  return s;
}

Tensor ReLU6::forward(const Tensor& input, Mode mode) {
  Tensor output(input.shape());
  const float* in = input.data();
  float* out = output.data();
  for (std::int64_t i = 0, n = input.numel(); i < n; ++i) {
    const float v = in[i];
    out[i] = v <= 0.0f ? 0.0f : (v >= 6.0f ? 6.0f : v);
  }
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor ReLU6::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, cached_input_.shape());
  Tensor grad_input(grad_output.shape());
  const float* x = cached_input_.data();
  const float* g = grad_output.data();
  float* out = grad_input.data();
  for (std::int64_t i = 0, n = grad_output.numel(); i < n; ++i) {
    const float v = x[i], gi = g[i];  // unconditional load, as in ReLU
    out[i] = (v > 0.0f && v < 6.0f) ? gi : 0.0f;
  }
  return grad_input;
}

LayerStats ReLU6::stats(const Shape& input) const {
  LayerStats s;
  s.activation_elems = input.numel() / input.dim(0);
  return s;
}

}  // namespace meanet::nn
