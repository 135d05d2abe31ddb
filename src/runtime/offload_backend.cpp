#include "runtime/offload_backend.h"

#include <stdexcept>

#include "sim/cloud_node.h"
#include "sim/feature_cloud.h"

namespace meanet::runtime {

RawImageBackend::RawImageBackend(sim::CloudNode* cloud) : cloud_(cloud) {
  if (cloud_ == nullptr) throw std::invalid_argument("RawImageBackend: null CloudNode");
}

std::vector<int> RawImageBackend::classify(const OffloadPayload& payload) {
  return cloud_->classify(payload.images);
}

std::int64_t RawImageBackend::payload_bytes(const Shape& image_shape,
                                            const Shape& /*feature_shape*/) const {
  // 1 byte/pixel: the image travels as its 8-bit sensor representation.
  return image_shape.numel() / image_shape.dim(0);
}

FeatureBackend::FeatureBackend(sim::FeatureCloudNode* cloud) : cloud_(cloud) {
  if (cloud_ == nullptr) throw std::invalid_argument("FeatureBackend: null FeatureCloudNode");
}

std::vector<int> FeatureBackend::classify(const OffloadPayload& payload) {
  return cloud_->classify_features(payload.features);
}

std::int64_t FeatureBackend::payload_bytes(const Shape& /*image_shape*/,
                                           const Shape& feature_shape) const {
  return sim::FeatureCloudNode::feature_bytes(feature_shape);
}

std::vector<int> NullBackend::classify(const OffloadPayload& /*payload*/) { return {}; }

std::int64_t NullBackend::payload_bytes(const Shape& /*image_shape*/,
                                        const Shape& /*feature_shape*/) const {
  return 0;
}

}  // namespace meanet::runtime
