#include "nn/pooling.h"

#include <stdexcept>

namespace meanet::nn {

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  return Shape{input.batch(), input.channels()};
}

Tensor GlobalAvgPool::forward(const Tensor& input, Mode mode) {
  const int batch = input.shape().batch(), channels = input.shape().channels();
  const std::int64_t hw = static_cast<std::int64_t>(input.shape().height()) * input.shape().width();
  Tensor output(Shape{batch, channels});
  const float inv = 1.0f / static_cast<float>(hw);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* src = input.data() + (static_cast<std::int64_t>(n) * channels + c) * hw;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < hw; ++i) acc += src[i];
      output.at(n, c) = acc * inv;
    }
  }
  if (mode == Mode::kTrain) cached_input_shape_ = input.shape();
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (cached_input_shape_.rank() != 4) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, output_shape(cached_input_shape_));
  const int batch = cached_input_shape_.batch(), channels = cached_input_shape_.channels();
  const std::int64_t hw =
      static_cast<std::int64_t>(cached_input_shape_.height()) * cached_input_shape_.width();
  const float inv = 1.0f / static_cast<float>(hw);
  Tensor grad_input(cached_input_shape_);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float g = grad_output.at(n, c) * inv;
      float* dst = grad_input.data() + (static_cast<std::int64_t>(n) * channels + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) dst[i] = g;
    }
  }
  return grad_input;
}

LayerStats GlobalAvgPool::stats(const Shape& input) const {
  LayerStats s;
  s.macs = input.numel() / input.dim(0);
  return s;
}

AvgPool2d::AvgPool2d(int kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {
  if (kernel <= 0) throw std::invalid_argument("AvgPool2d: kernel must be positive");
}

Shape AvgPool2d::output_shape(const Shape& input) const {
  if (input.height() % kernel_ != 0 || input.width() % kernel_ != 0) {
    throw std::invalid_argument(name_ + ": input " + input.to_string() +
                                " not divisible by kernel " + std::to_string(kernel_));
  }
  return Shape{input.batch(), input.channels(), input.height() / kernel_,
               input.width() / kernel_};
}

Tensor AvgPool2d::forward(const Tensor& input, Mode mode) {
  const Shape out_shape = output_shape(input.shape());
  Tensor output(out_shape);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (int n = 0; n < out_shape.batch(); ++n) {
    for (int c = 0; c < out_shape.channels(); ++c) {
      for (int oh = 0; oh < out_shape.height(); ++oh) {
        for (int ow = 0; ow < out_shape.width(); ++ow) {
          float acc = 0.0f;
          for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw) {
              acc += input.at(n, c, oh * kernel_ + kh, ow * kernel_ + kw);
            }
          }
          output.at(n, c, oh, ow) = acc * inv;
        }
      }
    }
  }
  if (mode == Mode::kTrain) cached_input_shape_ = input.shape();
  return output;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.rank() != 4) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, output_shape(cached_input_shape_));
  Tensor grad_input(cached_input_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const Shape& out_shape = grad_output.shape();
  for (int n = 0; n < out_shape.batch(); ++n) {
    for (int c = 0; c < out_shape.channels(); ++c) {
      for (int oh = 0; oh < out_shape.height(); ++oh) {
        for (int ow = 0; ow < out_shape.width(); ++ow) {
          const float g = grad_output.at(n, c, oh, ow) * inv;
          for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw) {
              grad_input.at(n, c, oh * kernel_ + kh, ow * kernel_ + kw) = g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

LayerStats AvgPool2d::stats(const Shape& input) const {
  LayerStats s;
  s.macs = input.numel() / input.dim(0);
  return s;
}

}  // namespace meanet::nn
