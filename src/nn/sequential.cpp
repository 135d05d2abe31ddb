#include "nn/sequential.h"

#include <stdexcept>

#include "nn/fuse.h"
#include "nn/parameter.h"

namespace meanet::nn {

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument(name_ + ": null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  // forward_chain folds adjacent Conv+BN pairs into one kernel in eval
  // mode; in train mode it is a plain layer-by-layer chain.
  return forward_chain(layers_, input, mode);
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it + 1 != layers_.rend(); ++it) g = (*it)->backward(g);
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
  Shape s = input;
  for (const auto& layer : layers_) {
    const LayerStats ls = layer->stats(s);
    total.params += ls.params;
    total.macs += ls.macs;
    total.activation_elems += ls.activation_elems;
    s = layer->output_shape(s);
  }
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
