#include "nn/maxpool.h"

#include <stdexcept>

namespace meanet::nn {

MaxPool2d::MaxPool2d(int kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {
  if (kernel <= 0) throw std::invalid_argument("MaxPool2d: kernel must be positive");
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  if (input.height() % kernel_ != 0 || input.width() % kernel_ != 0) {
    throw std::invalid_argument(name_ + ": input " + input.to_string() +
                                " not divisible by kernel " + std::to_string(kernel_));
  }
  return Shape{input.batch(), input.channels(), input.height() / kernel_,
               input.width() / kernel_};
}

Tensor MaxPool2d::forward(const Tensor& input, Mode mode) {
  const Shape out_shape = output_shape(input.shape());
  Tensor output(out_shape);
  const Shape& in_shape = input.shape();
  const bool track_argmax = (mode == Mode::kTrain);  // eval stays cache-free
  if (track_argmax) argmax_.assign(static_cast<std::size_t>(output.numel()), 0);
  std::int64_t out_index = 0;
  for (int n = 0; n < out_shape.batch(); ++n) {
    for (int c = 0; c < out_shape.channels(); ++c) {
      for (int oh = 0; oh < out_shape.height(); ++oh) {
        for (int ow = 0; ow < out_shape.width(); ++ow, ++out_index) {
          float best = input.at(n, c, oh * kernel_, ow * kernel_);
          std::int64_t best_idx =
              ((static_cast<std::int64_t>(n) * in_shape.channels() + c) * in_shape.height() +
               oh * kernel_) *
                  in_shape.width() +
              ow * kernel_;
          for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw) {
              const int ih = oh * kernel_ + kh, iw = ow * kernel_ + kw;
              const float v = input.at(n, c, ih, iw);
              if (v > best) {
                best = v;
                best_idx = ((static_cast<std::int64_t>(n) * in_shape.channels() + c) *
                                in_shape.height() +
                            ih) *
                               in_shape.width() +
                           iw;
              }
            }
          }
          output[out_index] = best;
          if (track_argmax) argmax_[static_cast<std::size_t>(out_index)] = best_idx;
        }
      }
    }
  }
  if (track_argmax) cached_input_shape_ = input.shape();
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.rank() != 4) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, output_shape(cached_input_shape_));
  Tensor grad_input(cached_input_shape_);
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[static_cast<std::size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

LayerStats MaxPool2d::stats(const Shape& input) const {
  LayerStats s;
  s.macs = input.numel() / input.dim(0);
  s.activation_elems = output_shape(input).numel() / input.dim(0);  // argmax indices
  return s;
}

}  // namespace meanet::nn
