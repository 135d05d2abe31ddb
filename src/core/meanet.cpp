#include "core/meanet.h"

#include <stdexcept>

namespace meanet::core {

MEANet::MEANet(nn::Sequential main_trunk, nn::Sequential main_exit, nn::Sequential adaptive,
               nn::Sequential extension, FusionMode fusion)
    : main_trunk_(std::move(main_trunk)),
      main_exit_(std::move(main_exit)),
      adaptive_(std::move(adaptive)),
      extension_(std::move(extension)),
      fusion_(fusion) {}

MainForward MEANet::forward_main(const Tensor& images, nn::Mode mode) {
  MainForward out;
  out.features = main_trunk_.forward(images, mode);
  out.logits = main_exit_.forward(out.features, mode);
  // Eval forwards must write no state at all — the serving workers run
  // them concurrently on one shared net (see nn/layer.h).
  if (mode == nn::Mode::kTrain) main_cached_ = true;
  return out;
}

Tensor MEANet::fuse(const Tensor& features, const Tensor& adaptive_out) const {
  if (fusion_ == FusionMode::kSum) {
    if (features.shape() != adaptive_out.shape()) {
      throw std::invalid_argument("MEANet: sum fusion requires matching shapes, got " +
                                  features.shape().to_string() + " vs " +
                                  adaptive_out.shape().to_string());
    }
    return features + adaptive_out;
  }
  // Channel concatenation.
  const Shape& fs = features.shape();
  const Shape& as = adaptive_out.shape();
  if (fs.batch() != as.batch() || fs.height() != as.height() || fs.width() != as.width()) {
    throw std::invalid_argument("MEANet: concat fusion requires matching spatial shapes");
  }
  Tensor fused(Shape{fs.batch(), fs.channels() + as.channels(), fs.height(), fs.width()});
  const std::int64_t hw = static_cast<std::int64_t>(fs.height()) * fs.width();
  for (int n = 0; n < fs.batch(); ++n) {
    float* dst = fused.data() +
                 static_cast<std::int64_t>(n) * (fs.channels() + as.channels()) * hw;
    const float* f = features.data() + static_cast<std::int64_t>(n) * fs.channels() * hw;
    const float* a = adaptive_out.data() + static_cast<std::int64_t>(n) * as.channels() * hw;
    std::copy(f, f + fs.channels() * hw, dst);
    std::copy(a, a + as.channels() * hw, dst + fs.channels() * hw);
  }
  return fused;
}

Tensor MEANet::forward_extension(const Tensor& images, const Tensor& features, nn::Mode mode) {
  const Tensor f2 = adaptive_.forward(images, mode);
  if (mode == nn::Mode::kTrain) cached_feature_shape_ = features.shape();
  const Tensor fused = fuse(features, f2);
  Tensor logits = extension_.forward(fused, mode);
  if (mode == nn::Mode::kTrain) extension_cached_ = true;
  return logits;
}

void MEANet::backward_main(const Tensor& grad_logits) {
  if (!main_cached_) throw std::logic_error("MEANet::backward_main before forward_main");
  const Tensor grad_features = main_exit_.backward(grad_logits);
  main_trunk_.backward_params(grad_features);
  main_cached_ = false;
}

void MEANet::backward_extension(const Tensor& grad_logits, bool into_main) {
  if (!extension_cached_) {
    throw std::logic_error("MEANet::backward_extension before forward_extension");
  }
  const Tensor grad_fused = extension_.backward(grad_logits);
  Tensor grad_f2;
  Tensor grad_features;
  if (fusion_ == FusionMode::kSum) {
    grad_f2 = grad_fused;
    if (into_main) grad_features = grad_fused;
  } else {
    const Shape& fs = cached_feature_shape_;
    const int a_channels = grad_fused.shape().channels() - fs.channels();
    const std::int64_t hw = static_cast<std::int64_t>(fs.height()) * fs.width();
    grad_f2 = Tensor(Shape{fs.batch(), a_channels, fs.height(), fs.width()});
    if (into_main) grad_features = Tensor(fs);
    for (int n = 0; n < fs.batch(); ++n) {
      const float* src = grad_fused.data() +
                         static_cast<std::int64_t>(n) * (fs.channels() + a_channels) * hw;
      if (into_main) {
        std::copy(src, src + fs.channels() * hw,
                  grad_features.data() + static_cast<std::int64_t>(n) * fs.channels() * hw);
      }
      std::copy(src + fs.channels() * hw, src + (fs.channels() + a_channels) * hw,
                grad_f2.data() + static_cast<std::int64_t>(n) * a_channels * hw);
    }
  }
  adaptive_.backward_params(grad_f2);
  if (into_main) {
    // Joint-optimization baseline: the extension loss also reaches the
    // main trunk. Add the exit-path gradient separately via
    // backward_main if a main loss is in play.
    main_trunk_.backward_params(grad_features);
  }
  extension_cached_ = false;
}

void MEANet::freeze_main() {
  main_trunk_.set_frozen(true);
  main_exit_.set_frozen(true);
}

void MEANet::unfreeze_main() {
  main_trunk_.set_frozen(false);
  main_exit_.set_frozen(false);
}

std::vector<nn::Parameter*> MEANet::main_parameters() {
  std::vector<nn::Parameter*> out = main_trunk_.parameters();
  for (nn::Parameter* p : main_exit_.parameters()) out.push_back(p);
  return out;
}

std::vector<nn::Parameter*> MEANet::edge_parameters() {
  std::vector<nn::Parameter*> out = adaptive_.parameters();
  for (nn::Parameter* p : extension_.parameters()) out.push_back(p);
  return out;
}

std::vector<nn::Parameter*> MEANet::all_parameters() {
  std::vector<nn::Parameter*> out = main_parameters();
  for (nn::Parameter* p : edge_parameters()) out.push_back(p);
  return out;
}

int MEANet::num_classes(const Shape& image_shape) const {
  const Shape f = main_trunk_.output_shape(image_shape);
  return main_exit_.output_shape(f).dim(-1);
}

int MEANet::num_hard_classes(const Shape& image_shape) const {
  return extension_.output_shape(extension_input_shape(image_shape)).dim(-1);
}

Shape MEANet::extension_input_shape(const Shape& image_shape) const {
  const Shape f = main_trunk_.output_shape(image_shape);
  if (fusion_ == FusionMode::kSum) return f;
  const Shape a = adaptive_.output_shape(image_shape);
  return Shape{f.batch(), f.channels() + a.channels(), f.height(), f.width()};
}

EdgeMacs MEANet::edge_macs(const Shape& instance) const {
  const Shape features = main_trunk_.output_shape(instance);
  EdgeMacs macs;
  macs.main = main_trunk_.stats(instance).macs + main_exit_.stats(features).macs;
  macs.extension =
      adaptive_.stats(instance).macs + extension_.stats(extension_input_shape(instance)).macs;
  return macs;
}

}  // namespace meanet::core
