#include "nn/sequential.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/parameter.h"
#include "tensor/workspace.h"

namespace meanet::nn {

namespace {

// Eval-mode Conv+BatchNorm folding: BN(W * x + b) = (scale ⊙ W) * x +
// (scale ⊙ b + shift). The fold is recomputed from the BN's running
// statistics into per-thread workspace scratch on every call, so no layer
// caches anything (nothing to invalidate when training resumes; shared-net
// serving stays const-safe). It is O(params), noise next to the conv.

/// Folds `bn` into `weight` ([channels, ...]) and the optional
/// `conv_bias`; returns {folded weight, folded bias} in scratch.
std::pair<const float*, const float*> fold(const BatchNorm2d& bn, const Tensor& weight,
                                           const float* conv_bias) {
  const int channels = bn.channels();
  ops::Workspace& ws = ops::Workspace::tls();
  float* scale = ws.buffer(ops::Workspace::kFoldedBias, 2 * static_cast<std::size_t>(channels));
  float* bias = scale + channels;
  bn.fold_scale_shift(scale, bias);
  if (conv_bias != nullptr) {
    for (int c = 0; c < channels; ++c) bias[c] += scale[c] * conv_bias[c];
  }
  const std::int64_t per_channel = weight.numel() / channels;
  const float* w = weight.data();
  float* folded =
      ws.buffer(ops::Workspace::kFoldedWeights, static_cast<std::size_t>(weight.numel()));
  for (int c = 0; c < channels; ++c) {
    for (std::int64_t i = c * per_channel; i < (c + 1) * per_channel; ++i) {
      folded[i] = scale[c] * w[i];
    }
  }
  return {folded, bias};
}

/// `layer` as a Conv2d that `next`, a BatchNorm2d of its channel count,
/// folds into; null otherwise.
const Conv2d* conv_bn_pair(const Layer& layer, const Layer* next) {
  const auto* conv = dynamic_cast<const Conv2d*>(&layer);
  const auto* bn = dynamic_cast<const BatchNorm2d*>(next);
  return conv != nullptr && bn != nullptr && conv->out_channels() == bn->channels() ? conv
                                                                                    : nullptr;
}

/// The DepthwiseConv2d counterpart of conv_bn_pair.
const DepthwiseConv2d* depthwise_bn_pair(const Layer& layer, const Layer* next) {
  const auto* dw = dynamic_cast<const DepthwiseConv2d*>(&layer);
  const auto* bn = dynamic_cast<const BatchNorm2d*>(next);
  return dw != nullptr && bn != nullptr && dw->channels() == bn->channels() ? dw : nullptr;
}

}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument(name_ + ": null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  if (mode == Mode::kEval) return forward_eval(input, nullptr, false);
  // Each layer reads its predecessor's output in place: `x` points at
  // the caller's input until the first layer has run.
  Tensor out;
  const Tensor* x = &input;
  for (auto& layer : layers_) {
    out = layer->forward(*x, mode);
    x = &out;
  }
  return layers_.empty() ? input : out;
}

Tensor Sequential::forward_eval(const Tensor& input, const Tensor* residual, bool relu) {
  const std::size_t count = layers_.size();
  if ((residual != nullptr || relu) &&
      (count < 2 || conv_bn_pair(*layers_[count - 2], layers_[count - 1].get()) == nullptr)) {
    throw std::logic_error(name_ + ": a fused residual or ReLU needs a final Conv2d + "
                                   "BatchNorm2d pair");
  }
  if (count == 0) return input;
  Tensor out;
  const Tensor* x = &input;
  for (std::size_t i = 0; i < count; x = &out) {
    const Layer* next = i + 1 < count ? layers_[i + 1].get() : nullptr;
    if (const Conv2d* conv = conv_bn_pair(*layers_[i], next)) {
      const auto& bn = static_cast<const BatchNorm2d&>(*next);
      const auto [weight, bias] =
          fold(bn, conv->weight().value, conv->has_bias() ? conv->bias().value.data() : nullptr);
      i += 2;
      // The pair takes a following ReLU into its GEMM epilogue, or —
      // ending the container — the caller's residual and ReLU.
      if (i == count) {
        out = conv->forward_with(*x, weight, bias, residual, relu);
      } else {
        const bool then_relu = dynamic_cast<const ReLU*>(layers_[i].get()) != nullptr;
        i += then_relu ? 1 : 0;
        out = conv->forward_with(*x, weight, bias, nullptr, then_relu);
      }
    } else if (const DepthwiseConv2d* dw = depthwise_bn_pair(*layers_[i], next)) {
      const auto& bn = static_cast<const BatchNorm2d&>(*next);
      const auto [weight, bias] = fold(bn, dw->weight().value, nullptr);
      out = dw->forward_with(*x, weight, bias);
      i += 2;
    } else {
      out = layers_[i++]->forward(*x, Mode::kEval);
    }
  }
  return out;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  if (layers_.empty()) return grad_output;
  Tensor g = layers_.back()->backward(grad_output);
  for (auto it = std::next(layers_.rbegin()); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (layers_.empty()) return;
  if (layers_.size() == 1) return layers_.front()->backward_params(grad_output);
  Tensor g = layers_.back()->backward(grad_output);
  for (auto it = std::next(layers_.rbegin()); std::next(it) != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  layers_.front()->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<NamedTensor> Sequential::state() {
  std::vector<NamedTensor> out;
  for (auto& layer : layers_) {
    for (const NamedTensor& s : layer->state()) out.push_back(s);
  }
  return out;
}

Shape Sequential::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

LayerStats Sequential::stats(const Shape& input) const {
  LayerStats total;
  for (const LayerStats& ls : layer_stats(input)) total += ls;
  return total;
}

std::vector<LayerStats> Sequential::layer_stats(const Shape& input) const {
  std::vector<LayerStats> out;
  Shape s = input;
  for (const auto& layer : layers_) {
    out.push_back(layer->stats(s));
    s = layer->output_shape(s);
  }
  return out;
}

std::int64_t Sequential::activation_cache_elems() const {
  std::int64_t total = 0;
  for (const auto& layer : layers_) total += layer->activation_cache_elems();
  return total;
}

void Sequential::set_frozen(bool frozen) {
  frozen_ = frozen;
  for (auto& layer : layers_) layer->set_frozen(frozen);
}

}  // namespace meanet::nn
