#include "nn/batchnorm2d.h"

#include <cmath>
#include <stdexcept>

namespace meanet::nn {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps, std::string name)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      name_(std::move(name)),
      gamma_(name_ + ".gamma", Tensor::ones(Shape{channels})),
      beta_(name_ + ".beta", Tensor::zeros(Shape{channels})),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels must be positive");
}

Shape BatchNorm2d::output_shape(const Shape& input) const {
  if (input.channels() != channels_) {
    throw std::invalid_argument(name_ + ": channel mismatch, got " + input.to_string());
  }
  return input;
}

void BatchNorm2d::fold_scale_shift(float* scale, float* shift) const {
  for (int c = 0; c < channels_; ++c) {
    const float s = gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
    scale[c] = s;
    shift[c] = beta_.value[c] - s * running_mean_[c];
  }
}

Tensor BatchNorm2d::forward(const Tensor& input, Mode mode) {
  (void)output_shape(input.shape());
  const int batch = input.shape().batch();
  const int h = input.shape().height(), w = input.shape().width();
  const std::int64_t hw = static_cast<std::int64_t>(h) * w;
  const std::int64_t count = static_cast<std::int64_t>(batch) * hw;

  if (mode == Mode::kEval) {
    // Cache-free inference path: the running statistics collapse to a
    // per-channel affine map, computed into locals — no member writes,
    // so concurrent eval forwards through a shared net are safe.
    std::vector<float> scale(static_cast<std::size_t>(channels_));
    std::vector<float> shift(static_cast<std::size_t>(channels_));
    fold_scale_shift(scale.data(), shift.data());
    Tensor output(input.shape());
    for (int n = 0; n < batch; ++n) {
      for (int c = 0; c < channels_; ++c) {
        const float* src = input.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        float* dst = output.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        const float s = scale[static_cast<std::size_t>(c)];
        const float t = shift[static_cast<std::size_t>(c)];
        for (std::int64_t i = 0; i < hw; ++i) dst[i] = s * src[i] + t;
      }
    }
    return output;
  }

  const bool use_batch_stats = !frozen_;  // mode is kTrain here

  std::vector<float> mean(static_cast<std::size_t>(channels_), 0.0f);
  std::vector<float> var(static_cast<std::size_t>(channels_), 0.0f);
  if (use_batch_stats) {
    for (int c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (int n = 0; n < batch; ++n) {
        const float* src = input.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        for (std::int64_t i = 0; i < hw; ++i) acc += src[i];
      }
      mean[static_cast<std::size_t>(c)] = static_cast<float>(acc / static_cast<double>(count));
    }
    for (int c = 0; c < channels_; ++c) {
      double acc = 0.0;
      const float m = mean[static_cast<std::size_t>(c)];
      for (int n = 0; n < batch; ++n) {
        const float* src = input.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = src[i] - m;
          acc += d * d;
        }
      }
      var[static_cast<std::size_t>(c)] = static_cast<float>(acc / static_cast<double>(count));
    }
    for (int c = 0; c < channels_; ++c) {
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[static_cast<std::size_t>(c)];
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var[static_cast<std::size_t>(c)];
    }
  } else {
    for (int c = 0; c < channels_; ++c) {
      mean[static_cast<std::size_t>(c)] = running_mean_[c];
      var[static_cast<std::size_t>(c)] = running_var_[c];
    }
  }

  inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
  for (int c = 0; c < channels_; ++c) {
    inv_std_[static_cast<std::size_t>(c)] = 1.0f / std::sqrt(var[static_cast<std::size_t>(c)] + eps_);
  }

  Tensor output(input.shape());
  cached_xhat_ = Tensor(input.shape());
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels_; ++c) {
      const float* src = input.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
      float* xh = cached_xhat_.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
      float* dst = output.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
      const float m = mean[static_cast<std::size_t>(c)];
      const float is = inv_std_[static_cast<std::size_t>(c)];
      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::int64_t i = 0; i < hw; ++i) {
        const float normalized = (src[i] - m) * is;
        xh[i] = normalized;
        dst[i] = g * normalized + b;
      }
    }
  }
  cached_batch_stats_ = use_batch_stats;
  return output;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  if (cached_xhat_.empty()) throw std::logic_error(name_ + ": backward before forward");
  check_grad_shape(grad_output, cached_xhat_.shape());
  const Shape& shape = grad_output.shape();
  const int batch = shape.batch();
  const std::int64_t hw = static_cast<std::int64_t>(shape.height()) * shape.width();
  const std::int64_t count = static_cast<std::int64_t>(batch) * hw;

  Tensor grad_input(shape);
  for (int c = 0; c < channels_; ++c) {
    // Channel-wise reductions of dL/dy and dL/dy * x_hat.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int n = 0; n < batch; ++n) {
      const float* dy = grad_output.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
      const float* xh = cached_xhat_.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    if (!frozen_) {
      gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad[c] += static_cast<float>(sum_dy);
    }
    const float g = gamma_.value[c];
    const float is = inv_std_[static_cast<std::size_t>(c)];
    if (cached_batch_stats_) {
      // Full train-mode gradient: mean and variance depend on the input.
      const float mean_dy = static_cast<float>(sum_dy / static_cast<double>(count));
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / static_cast<double>(count));
      for (int n = 0; n < batch; ++n) {
        const float* dy = grad_output.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        const float* xh = cached_xhat_.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        float* dx = grad_input.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        for (std::int64_t i = 0; i < hw; ++i) {
          dx[i] = g * is * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
        }
      }
    } else {
      // Eval-mode statistics are constants.
      for (int n = 0; n < batch; ++n) {
        const float* dy = grad_output.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        float* dx = grad_input.data() + ((static_cast<std::int64_t>(n) * channels_ + c) * hw);
        for (std::int64_t i = 0; i < hw; ++i) dx[i] = g * is * dy[i];
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

std::vector<NamedTensor> BatchNorm2d::state() {
  return {{name_ + ".running_mean", &running_mean_}, {name_ + ".running_var", &running_var_}};
}

LayerStats BatchNorm2d::stats(const Shape& input) const {
  LayerStats s;
  s.params = gamma_.numel() + beta_.numel();
  // Two multiply-adds per element (scale + shift counted as one MAC each).
  s.macs = input.channels() * static_cast<std::int64_t>(input.height()) * input.width();
  s.activation_elems =
      input.channels() * static_cast<std::int64_t>(input.height()) * input.width();
  return s;
}

}  // namespace meanet::nn
