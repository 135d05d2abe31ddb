#include "sim/cloud_node.h"

#include "tensor/ops.h"
#include "tensor/pool.h"

namespace meanet::sim {

std::vector<int> CloudNode::classify(const Tensor& images) {
  const Shape& shape = images.shape();
  const int rows = shape.rank() >= 2 ? shape.dim(0) : 0;
  const int shards = std::min(forward_threads_, rows);
  std::vector<int> labels;
  if (shards <= 1) {
    labels = ops::row_argmax(model_.forward(images, nn::Mode::kEval));
  } else {
    labels.resize(static_cast<std::size_t>(rows));
    ops::GemmPool::instance().run(shards, [&](int slot) {
      const auto [begin, end] = ops::GemmPool::split(rows, slot, shards);
      const std::vector<int> part = ops::row_argmax(
          model_.forward(images.slice_batch(begin, end - begin), nn::Mode::kEval));
      std::copy(part.begin(), part.end(), labels.begin() + begin);
    });
  }
  served_.fetch_add(shape.batch(), std::memory_order_relaxed);
  return labels;
}

}  // namespace meanet::sim
