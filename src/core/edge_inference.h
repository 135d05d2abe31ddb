// Edge half of Alg. 2: main-block pass, routing, extension-block pass
// with the confidence comparison between the two exits.
//
// Instances routed to the cloud are *marked*, not classified — the
// runtime::InferenceSession pairs this engine with an OffloadBackend to
// complete the algorithm.
#pragma once

#include <memory>
#include <vector>

#include "core/inference_policy.h"
#include "core/meanet.h"
#include "data/dataset.h"

namespace meanet::core {

struct InstanceDecision {
  Route route = Route::kMainExit;
  /// Final edge prediction in global label space; for kCloud routes this
  /// holds the edge's best guess (used when the cloud is unreachable).
  int prediction = -1;
  int main_prediction = -1;
  /// Exit-1 entropy; 0 when the routing policy's needed_signals() did
  /// not ask for it (the engine then skips the reduction).
  float entropy = 0.0f;
  /// Max softmax score at exit 1 (always computed: Alg. 2's exit
  /// comparison needs it).
  float main_confidence = 0.0f;
  /// Top-1 minus top-2 softmax score at exit 1; 0 unless the policy's
  /// needed_signals() asked for it.
  float margin = 0.0f;
  /// Max softmax score at exit 2 (0 when the extension did not run).
  float extension_confidence = 0.0f;
};

/// Decisions for one batch plus the main-trunk features that produced
/// them ([N, c, h, w]) — feature-offload backends upload exactly these.
struct BatchInference {
  std::vector<InstanceDecision> decisions;
  Tensor features;
};

class EdgeInferenceEngine {
 public:
  /// Classic construction from the paper's entropy-threshold config.
  EdgeInferenceEngine(MEANet& net, const data::ClassDict& dict, PolicyConfig config)
      : net_(&net), dict_(&dict) {
    set_config(config);
  }

  /// Construction with any RoutingPolicy.
  EdgeInferenceEngine(MEANet& net, const data::ClassDict& dict,
                      std::shared_ptr<const RoutingPolicy> policy);

  /// Runs Alg. 2 (edge part) on a batch of images.
  std::vector<InstanceDecision> infer(const Tensor& images);

  /// Like infer(), additionally returning the main-trunk features.
  BatchInference infer_batch(const Tensor& images);

  /// Convenience: whole dataset in batches of `batch_size`.
  std::vector<InstanceDecision> infer_dataset(const data::Dataset& dataset, int batch_size = 64);

  const RoutingPolicy& routing() const { return *routing_; }

  /// The single mutation path for the routing stage; every config change
  /// flows through here so the engine and its policy cannot drift.
  void set_routing(std::shared_ptr<const RoutingPolicy> policy);

  /// Rebuilds the entropy-threshold policy from `config` (delegates to
  /// set_routing — there is no second copy of the configuration).
  void set_config(PolicyConfig config) {
    set_routing(std::make_shared<EntropyThresholdPolicy>(*dict_, config));
  }

  const data::ClassDict& dict() const { return *dict_; }
  MEANet& net() { return *net_; }

 private:
  MEANet* net_;
  const data::ClassDict* dict_;
  std::shared_ptr<const RoutingPolicy> routing_;

  // Per-engine scratch reused across infer_batch calls so the routing
  // signals (softmax, argmax, entropy/margin reductions) allocate
  // nothing on the serving hot path. An engine is single-threaded by
  // contract (each InferenceSession worker owns one; the *net* is what
  // they share), so plain members are safe.
  Tensor probs_, ext_probs_;
  std::vector<int> pred_scratch_;
  std::vector<float> conf_scratch_, margin_scratch_, entropy_scratch_, ext_conf_scratch_;
  std::vector<int> ext_pred_scratch_;
  std::vector<int> extension_rows_;
};

/// Route occupancy summary over a set of decisions.
struct RouteCounts {
  std::int64_t main_exit = 0;
  std::int64_t extension_exit = 0;
  std::int64_t cloud = 0;

  /// Tallies one route; the switch is exhaustive over Route.
  void add(Route route);

  std::int64_t total() const { return main_exit + extension_exit + cloud; }
  double cloud_fraction() const {
    return total() == 0 ? 0.0 : static_cast<double>(cloud) / static_cast<double>(total());
  }
};

RouteCounts count_routes(const std::vector<InstanceDecision>& decisions);

}  // namespace meanet::core
