// Per-layer replays of the traced run: public layer calls re-run on a
// workload's own inputs, timed from outside the library.
#pragma once

#include <cstdint>
#include <string>

#include "core/inference_policy.h"
#include "core/meanet.h"
#include "data/dataset.h"
#include "harness.h"
#include "nn/sequential.h"

namespace e2e {

/// Median wall time of `reps` calls of `fn` (one untimed warm-up first), s.
template <typename Fn>
double median_time_s(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    times.push_back(now_s() - t0);
  }
  return median(std::move(times));
}

/// nn.<tag>.<subnet>.<i>.ms / .gflops for every top-level layer of the
/// main trunk and the extension, and nn.<tag>.<subnet>.ms / .gflops totals
/// for the main exit, the adaptive block and (when given) the cloud model:
/// each layer's eval forward replayed at `batch` (the first rows of
/// `images`), int8 when `quantized`. GFLOP/s = 2·MACs ÷ time, with MACs
/// from Sequential::layer_stats.
void report_nn_table(Report& out, const std::string& tag, meanet::core::MEANet& net,
                     meanet::nn::Sequential* cloud, const meanet::Tensor& images, int batch,
                     bool quantized);

/// Replayed eval forwards of one batch: forward_main and forward_extension
/// (the extension on the same rows), median of `reps`, seconds.
struct ForwardTimes {
  double main_s = 0.0;
  double extension_s = 0.0;
};
ForwardTimes replay_forwards(meanet::core::MEANet& net, const meanet::Tensor& batch_images,
                             bool quantized, int reps);

/// Replayed routing of one batch: exit-1 softmax, argmax, max and entropy
/// reductions plus RoutingPolicy::route per row; median of `reps`, s.
double replay_route_s(meanet::core::MEANet& net, const meanet::core::RoutingPolicy& policy,
                      const meanet::Tensor& batch_images, bool quantized, int reps);

/// Per-instance MACs of the two edge paths (from layer_stats).
struct EdgeMacs {
  std::int64_t main = 0;       // trunk + exit 1
  std::int64_t extension = 0;  // adaptive + extension
};
EdgeMacs edge_macs(const meanet::core::MEANet& net, const meanet::Shape& instance);

/// train.forward.ms, train.backward.ms, train.sgd.ms (batch-32 main-block
/// steps on a fresh model), data.batch.ms and train.activation_cache_mb.
void report_train_replays(Report& out, const meanet::data::Dataset& train, std::uint64_t seed);

}  // namespace e2e
