// Cloud side of the distributed system: a deeper classifier that
// receives raw images (the paper's preferred mode, §III-C) and returns
// predictions.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "data/dataset.h"
#include "nn/sequential.h"

namespace meanet::sim {

class CloudNode {
 public:
  /// `forward_threads` (clamped to >= 1) is how many contiguous row
  /// shards classify() may split one batch into, each an eval forward
  /// on a slot of the ops::GemmPool. The default 1 runs every batch as
  /// one forward on the calling thread; meanet_cloudd passes the core
  /// count.
  explicit CloudNode(nn::Sequential model, int forward_threads = 1)
      : model_(std::move(model)), forward_threads_(std::max(1, forward_threads)) {}

  /// Classifies a batch of raw images. Safe to call from several
  /// sessions' dispatcher threads at once — e.g. two sessions on one
  /// SharedCell offloading to the same cloud: the eval forward is
  /// cache-free and const-safe (nn/layer.h) and the served counter is
  /// atomic.
  ///
  /// With forward_threads > 1 the batch is split into
  /// min(forward_threads, rows) shards, run on the GemmPool — the
  /// process's one fan-out; every GEMM and conv inside a shard runs on
  /// the shard's thread. Answers are byte-identical at any width: every
  /// eval layer computes each row independently of its batch
  /// neighbours. A throw in any shard reaches the caller.
  std::vector<int> classify(const Tensor& images);

  nn::Sequential& model() { return model_; }
  const nn::Sequential& model() const { return model_; }

  int forward_threads() const { return forward_threads_; }

  /// Number of classify() instances served so far.
  std::int64_t instances_served() const { return served_.load(std::memory_order_relaxed); }

 private:
  nn::Sequential model_;
  int forward_threads_;
  std::atomic<std::int64_t> served_{0};
};

}  // namespace meanet::sim
