#include "nn/sequential.h"

#include <iterator>
#include <stdexcept>
#include <utility>

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

/// Runs `layer` then `next` as one cache-free folded kernel when they
/// are a (Conv2d | DepthwiseConv2d, BatchNorm2d) pair with matching
/// channel counts; returns false (and leaves `out` alone) otherwise.
/// The depthwise layer has no bias; the folded BN supplies one.
bool fused_conv_bn_eval(const Layer& layer, const Layer& next, const Tensor& input, Tensor& out) {
  const auto* bn = dynamic_cast<const BatchNorm2d*>(&next);
  if (bn == nullptr) return false;
  if (const auto* conv = dynamic_cast<const Conv2d*>(&layer);
      conv != nullptr && conv->out_channels() == bn->channels()) {
    const auto [weight, bias] = fold(*bn, conv->weight().value,
                                     conv->has_bias() ? conv->bias().value.data() : nullptr);
    out = conv->forward_with(input, weight, bias);
    return true;
  }
  if (const auto* dw = dynamic_cast<const DepthwiseConv2d*>(&layer);
      dw != nullptr && dw->channels() == bn->channels()) {
    const auto [weight, bias] = fold(*bn, dw->weight().value, nullptr);
    out = dw->forward_with(input, weight, bias);
    return true;
  }
  return false;
}

}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument(name_ + ": null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  if (layers_.empty()) return input;
  // Each layer reads its predecessor's output in place: `x` points at
  // the caller's input until the first layer has run.
  Tensor out;
  const Tensor* x = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i, x = &out) {
    if (mode == Mode::kEval && i + 1 < layers_.size() &&
        fused_conv_bn_eval(*layers_[i], *layers_[i + 1], *x, out)) {
      ++i;
      continue;
    }
    out = layers_[i]->forward(*x, mode);
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
