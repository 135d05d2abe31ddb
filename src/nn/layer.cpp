#include "nn/layer.h"

#include <stdexcept>

#include "nn/parameter.h"

namespace meanet::nn {

void Layer::set_frozen(bool frozen) {
  frozen_ = frozen;
  for (Parameter* p : parameters()) p->trainable = !frozen;
}

void Layer::check_grad_shape(const Tensor& grad_output, const Shape& expected) const {
  if (grad_output.shape() != expected) {
    throw std::invalid_argument(name() + ": gradient " + grad_output.shape().to_string() +
                                " does not match the forward's output " + expected.to_string());
  }
}

}  // namespace meanet::nn
