// MEANet — the paper's tripartite edge architecture (Fig. 1 / Fig. 4):
//
//   main trunk  : image -> features F
//   main exit   : F -> y1 logits over all classes        (exit 1)
//   adaptive    : image -> f2, same shape as F (a lightweight parallel
//                 path that gives the extension block a view of the raw
//                 input independent of the frozen main block)
//   extension   : fuse(F, f2) -> y2 logits over hard classes (exit 2)
//
// Fusion is element-wise sum or channel concatenation (paper §III-A).
// Training (Alg. 1) freezes the main trunk + exit and backpropagates the
// hard-class loss through the extension and adaptive blocks only; the
// gradient that reaches F is discarded because nothing upstream trains.
#pragma once

#include <memory>

#include "nn/sequential.h"

namespace meanet::core {

enum class FusionMode {
  kSum,
  kConcat,
};

/// Per-instance multiply-adds of the edge model, for the cost models.
struct EdgeMacs {
  std::int64_t main = 0;       // trunk + exit 1
  std::int64_t extension = 0;  // adaptive + extension (when activated)
};

/// Outputs of the main block for a batch.
struct MainForward {
  Tensor features;  // F: [N, c, h, w]
  Tensor logits;    // y1: [N, num_classes]
};

class MEANet {
 public:
  /// Blocks are moved in; shapes must be consistent:
  /// adaptive(image) must produce the same [c,h,w] as main_trunk(image)
  /// (for kConcat the extension must accept 2c input channels).
  MEANet(nn::Sequential main_trunk, nn::Sequential main_exit, nn::Sequential adaptive,
         nn::Sequential extension, FusionMode fusion);

  // ----- Forward -----

  /// Runs trunk + exit 1, caching for a later backward_main().
  MainForward forward_main(const Tensor& images, nn::Mode mode);

  /// Runs adaptive + fusion + extension, given the features produced by
  /// forward_main on the *same* images. Caches for backward_extension().
  Tensor forward_extension(const Tensor& images, const Tensor& features, nn::Mode mode);

  // ----- Backward (blockwise, Alg. 1) -----
  //
  // The trunk and the adaptive block read the images, so both run
  // Sequential::backward_params(): no image gradient is computed.

  /// Backpropagates a main-exit loss gradient through exit 1 and the
  /// trunk (used when the main block itself is trained, e.g. at the
  /// cloud, or for Model A's edge-trainable main).
  void backward_main(const Tensor& grad_logits);

  /// Backpropagates an extension-exit loss gradient through the
  /// extension and adaptive blocks. If `into_main` is true the F-part of
  /// the fused gradient is also pushed through the main trunk (joint
  /// optimization baseline); otherwise it is discarded (paper default).
  void backward_extension(const Tensor& grad_logits, bool into_main = false);

  // ----- Training control -----

  /// Freezes the main trunk and exit (paper: "fix the main block").
  void freeze_main();
  void unfreeze_main();
  bool main_frozen() const { return main_trunk_.frozen(); }

  /// Parameters of the main block (trunk + exit).
  std::vector<nn::Parameter*> main_parameters();
  /// Parameters trained at the edge under Alg. 1 (adaptive + extension).
  std::vector<nn::Parameter*> edge_parameters();
  std::vector<nn::Parameter*> all_parameters();

  // ----- Introspection -----

  nn::Sequential& main_trunk() { return main_trunk_; }
  nn::Sequential& main_exit() { return main_exit_; }
  nn::Sequential& adaptive() { return adaptive_; }
  nn::Sequential& extension() { return extension_; }
  const nn::Sequential& main_trunk() const { return main_trunk_; }
  const nn::Sequential& main_exit() const { return main_exit_; }
  const nn::Sequential& adaptive() const { return adaptive_; }
  const nn::Sequential& extension() const { return extension_; }
  FusionMode fusion() const { return fusion_; }

  /// Activation-cache elements currently held across all four blocks —
  /// 0 after eval-mode forwards (the shared-net serving invariant).
  std::int64_t activation_cache_elems() const {
    return main_trunk_.activation_cache_elems() + main_exit_.activation_cache_elems() +
           adaptive_.activation_cache_elems() + extension_.activation_cache_elems();
  }

  /// Classes at exit 1 (= all classes).
  int num_classes(const Shape& image_shape) const;
  /// Classes at exit 2 (= hard classes).
  int num_hard_classes(const Shape& image_shape) const;
  /// Shape the extension block sees: the trunk's feature shape, with
  /// the adaptive channels appended under kConcat.
  Shape extension_input_shape(const Shape& image_shape) const;
  /// Multiply-adds of one [1,C,H,W] instance on each edge path.
  EdgeMacs edge_macs(const Shape& instance) const;

 private:
  Tensor fuse(const Tensor& features, const Tensor& adaptive_out) const;

  nn::Sequential main_trunk_;
  nn::Sequential main_exit_;
  nn::Sequential adaptive_;
  nn::Sequential extension_;
  FusionMode fusion_;

  // Backward caches.
  bool main_cached_ = false;
  bool extension_cached_ = false;
  Shape cached_feature_shape_;
};

}  // namespace meanet::core
