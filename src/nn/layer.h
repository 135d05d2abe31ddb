// Layer interface for manual backpropagation.
//
// Layers own their parameters and cache whatever activations their
// backward pass needs. The contract is strict call pairing in train
// mode:
//   y = layer.forward(x, Mode::kTrain);  // caches
//   dx = layer.backward(dy);             // consumes the cache
// Mode::kEval forwards are inference-only and cache-free: they write no
// layer state whatsoever (no activation caches, no running-statistic
// updates), so any number of threads may run eval forwards through one
// shared net concurrently — this is what lets InferenceSession workers
// serve on a single net instead of weight-synced replicas. backward()
// after an eval-mode forward is a contract violation (it throws, or
// pairs with the last train-mode forward if one is still cached).
// Freezing a layer (paper Alg. 1 step 6, "fix the main block") marks its
// parameters non-trainable and pins BatchNorm to running statistics,
// matching the paper's "set main block to evaluation mode" detail.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace meanet::nn {

struct Parameter;

enum class Mode {
  kTrain,
  kEval,
};

/// A named non-trainable state tensor (e.g. BatchNorm running statistics),
/// included in serialization alongside parameters.
struct NamedTensor {
  std::string name;
  Tensor* tensor = nullptr;
};

/// Per-layer resource statistics used for Table VI (params / multiply-adds)
/// and Fig. 6 (training memory).
struct LayerStats {
  std::int64_t params = 0;
  /// Multiply-accumulate count for a single instance forward pass.
  std::int64_t macs = 0;
  /// Elements of activation state cached for backward, per instance.
  std::int64_t activation_elems = 0;

  LayerStats& operator+=(const LayerStats& other) {
    params += other.params;
    macs += other.macs;
    activation_elems += other.activation_elems;
    return *this;
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; `mode` selects train/eval behaviour
  /// (BatchNorm statistics). Caches state for a following backward().
  virtual Tensor forward(const Tensor& input, Mode mode) = 0;

  /// Given dL/d(output), accumulates parameter gradients (unless frozen)
  /// and returns dL/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a layer whose input is data rather than an
  /// activation: accumulates the parameter gradients (unless frozen)
  /// and computes no dL/d(input). Layers whose input gradient costs
  /// real work (Conv2d, Sequential) skip it; the default runs
  /// backward() and drops the result.
  virtual void backward_params(const Tensor& grad_output) { (void)backward(grad_output); }

  /// Owned parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Owned non-trainable state (e.g. BatchNorm running statistics);
  /// serialized together with the parameters so a model "downloaded to
  /// the edge" (paper Alg. 1 step 4) is bit-identical.
  virtual std::vector<NamedTensor> state() { return {}; }

  virtual std::string name() const = 0;

  /// Shape produced for a given input shape (no forward executed).
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Params / MACs / activation-cache size for one instance of `input`.
  virtual LayerStats stats(const Shape& input) const = 0;

  /// Elements of activation state the layer is holding for a backward
  /// pass *right now* (as opposed to stats(), which predicts the cost of
  /// a train-mode forward). Eval-mode forwards must leave this at 0 —
  /// the runtime's shared-net serving tests assert it.
  virtual std::int64_t activation_cache_elems() const { return 0; }

  /// Freezes or unfreezes all parameters; see file comment.
  virtual void set_frozen(bool frozen);

  bool frozen() const { return frozen_; }

 protected:
  /// Throws std::invalid_argument unless `grad_output` has the shape
  /// the cached forward produced: a backward indexes its cache by the
  /// gradient's extent, or the gradient by the cache's.
  void check_grad_shape(const Tensor& grad_output, const Shape& expected) const;

  bool frozen_ = false;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace meanet::nn
