// Pluggable cloud side of Alg. 2 (paper §III-C).
//
// The paper compares two edge-cloud collaboration modes — uploading raw
// images to an independent cloud model, or uploading main-block features
// to a partitioned head. The seed hard-wired that choice into the type
// system (sim::CloudNode vs sim::FeatureCloudNode); OffloadBackend turns
// it into a runtime decision behind one interface so an InferenceSession
// can swap modes without touching its call sites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace meanet::sim {
class CloudNode;
class FeatureCloudNode;
}  // namespace meanet::sim

namespace meanet::runtime {

/// Everything the edge can ship for a batch of offloaded instances: the
/// raw images and the main-trunk features it already computed for them
/// (rows correspond). Backends read whichever representation they need.
struct OffloadPayload {
  Tensor images;    // [K, C, H, W] raw offloaded instances
  Tensor features;  // [K, c, h, w] main-trunk features of the same rows
};

class OffloadBackend {
 public:
  virtual ~OffloadBackend() = default;

  /// Classifies the offloaded instances (global label space). An empty
  /// result means the backend is unavailable; the caller keeps the
  /// edge's best guess for every instance in the payload. A throwing
  /// classify() is treated the same way by InferenceSession (an
  /// unreachable cloud must not take down edge-side answers).
  virtual std::vector<int> classify(const OffloadPayload& payload) = 0;

  /// Which payload representations classify() reads; the session skips
  /// gathering the ones a backend does not need.
  virtual bool needs_images() const { return false; }
  virtual bool needs_features() const { return false; }

  /// Upload bytes per offloaded instance for the given geometries
  /// ([1,C,H,W] image shape, [1,c,h,w] feature shape).
  virtual std::int64_t payload_bytes(const Shape& image_shape,
                                     const Shape& feature_shape) const = 0;

  /// Human-readable backend description for logs and reports.
  virtual std::string describe() const = 0;
};

/// Raw-data offload (the paper's preferred mode): ships images to an
/// independent, stronger cloud model. Payload priced at 1 byte/pixel
/// (the image as an 8-bit upload).
class RawImageBackend : public OffloadBackend {
 public:
  explicit RawImageBackend(sim::CloudNode* cloud);

  std::vector<int> classify(const OffloadPayload& payload) override;
  std::int64_t payload_bytes(const Shape& image_shape, const Shape& feature_shape) const override;
  std::string describe() const override { return "raw-image"; }
  bool needs_images() const override { return true; }

 private:
  sim::CloudNode* cloud_;
};

/// Feature offload (partitioned network, Table I row 4): ships the
/// main-trunk features to a cloud-side head. Payload priced at
/// 4 bytes/element (float32 feature maps).
class FeatureBackend : public OffloadBackend {
 public:
  explicit FeatureBackend(sim::FeatureCloudNode* cloud);

  std::vector<int> classify(const OffloadPayload& payload) override;
  std::int64_t payload_bytes(const Shape& image_shape, const Shape& feature_shape) const override;
  std::string describe() const override { return "feature"; }
  bool needs_features() const override { return true; }

 private:
  sim::FeatureCloudNode* cloud_;
};

/// Edge-only fallback: never answers, so cloud-marked instances keep the
/// edge's best guess. Stands in for an unreachable cloud.
class NullBackend : public OffloadBackend {
 public:
  std::vector<int> classify(const OffloadPayload& payload) override;
  std::int64_t payload_bytes(const Shape& image_shape, const Shape& feature_shape) const override;
  std::string describe() const override { return "null"; }
};

}  // namespace meanet::runtime
