#include "layers.h"

#include <algorithm>

#include "data/batcher.h"
#include "models.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "util/rng.h"

namespace e2e {

using namespace meanet;

namespace {

Shape per_instance(const Shape& batched) {
  return Shape{1, batched.channels(), batched.height(), batched.width()};
}

struct LayerTime {
  double seconds = 0.0;
  std::int64_t macs = 0;  // per instance
};

/// Times every top-level layer of `seq` on `input`, feeding each layer the
/// previous one's output; returns the per-layer figures and the final output.
std::vector<LayerTime> time_layers(nn::Sequential& seq, Tensor input, int reps,
                                   Tensor* output = nullptr) {
  const std::vector<nn::LayerStats> stats = seq.layer_stats(per_instance(input.shape()));
  std::vector<LayerTime> out;
  for (int i = 0; i < seq.size(); ++i) {
    nn::Layer& layer = seq.layer(i);
    Tensor next;
    const double t = median_time_s(reps, [&] { next = layer.forward(input, nn::Mode::kEval); });
    out.push_back(LayerTime{t, stats[static_cast<std::size_t>(i)].macs});
    input = std::move(next);
  }
  if (output != nullptr) *output = std::move(input);
  return out;
}

double gflops(std::int64_t macs, int batch, double seconds) {
  return seconds <= 0.0 ? 0.0
                        : 2.0 * static_cast<double>(macs) * batch / (seconds * 1e9);
}

void add_rows(Report& out, const std::string& base, const std::vector<LayerTime>& rows,
              int batch) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string name = base + "." + std::to_string(i);
    out.add(name + ".ms", rows[i].seconds * 1e3, "ms");
    out.add(name + ".gflops", gflops(rows[i].macs, batch, rows[i].seconds), "GFLOP/s");
  }
}

void add_total(Report& out, const std::string& base, const std::vector<LayerTime>& rows,
               int batch) {
  double seconds = 0.0;
  std::int64_t macs = 0;
  for (const LayerTime& row : rows) {
    seconds += row.seconds;
    macs += row.macs;
  }
  out.add(base + ".ms", seconds * 1e3, "ms");
  out.add(base + ".gflops", gflops(macs, batch, seconds), "GFLOP/s");
}

}  // namespace

void report_nn_table(Report& out, const std::string& tag, core::MEANet& net,
                     nn::Sequential* cloud, const Tensor& images, int batch, bool quantized) {
  const ops::QuantizedScope precision(quantized);
  const int reps = batch == 1 ? 41 : 15;
  const Tensor input = images.slice_batch(0, batch);
  const std::string base = "nn." + tag;

  Tensor features, adaptive_out;
  add_rows(out, base + ".main_trunk", time_layers(net.main_trunk(), input, reps, &features),
           batch);
  add_total(out, base + ".main_exit", time_layers(net.main_exit(), features, reps), batch);
  add_total(out, base + ".adaptive", time_layers(net.adaptive(), input, reps, &adaptive_out),
            batch);
  // The benchmark's models use sum fusion (see models.cpp).
  Tensor fused = features;
  fused.add_(adaptive_out);
  add_rows(out, base + ".extension", time_layers(net.extension(), fused, reps), batch);
  if (cloud != nullptr) {
    // The cloud serves float: its dispatcher thread never enters the
    // session's int8 scope.
    const ops::QuantizedScope cloud_precision(false);
    add_total(out, base + ".cloud", time_layers(*cloud, input, reps), batch);
  }
}

ForwardTimes replay_forwards(core::MEANet& net, const Tensor& batch_images, bool quantized,
                             int reps) {
  const ops::QuantizedScope precision(quantized);
  ForwardTimes times;
  core::MainForward fwd;
  times.main_s = median_time_s(reps, [&] { fwd = net.forward_main(batch_images, nn::Mode::kEval); });
  times.extension_s = median_time_s(reps, [&] {
    net.forward_extension(batch_images, fwd.features, nn::Mode::kEval);
  });
  return times;
}

double replay_route_s(core::MEANet& net, const core::RoutingPolicy& policy,
                      const Tensor& batch_images, bool quantized, int reps) {
  const ops::QuantizedScope precision(quantized);
  const core::MainForward fwd = net.forward_main(batch_images, nn::Mode::kEval);
  Tensor probs;
  std::vector<int> pred;
  std::vector<float> conf, entropy;
  int sink = 0;
  const double t = median_time_s(reps, [&] {
    ops::softmax_into(fwd.logits, probs);
    ops::row_argmax_into(probs, pred);
    ops::row_max_into(probs, conf);
    ops::row_entropy_into(probs, entropy);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      core::RouteSignals signals;
      signals.entropy = entropy[i];
      signals.main_confidence = conf[i];
      signals.main_prediction = pred[i];
      sink += static_cast<int>(policy.route(signals));
    }
  });
  // Keep the routing result observable so the loop is not optimised out.
  if (sink < 0) std::abort();
  return t;
}

EdgeMacs edge_macs(const core::MEANet& net, const Shape& instance) {
  const Shape features = net.main_trunk().output_shape(instance);
  EdgeMacs macs;
  macs.main = net.main_trunk().stats(instance).macs + net.main_exit().stats(features).macs;
  // Sum fusion: the extension sees the trunk's feature shape.
  macs.extension = net.adaptive().stats(instance).macs + net.extension().stats(features).macs;
  return macs;
}

void report_train_replays(Report& out, const data::Dataset& train, std::uint64_t seed) {
  constexpr int kBatch = 32;
  constexpr int kSteps = 9;
  core::MEANet net = build_edge(Family::kResNetCifar, seed);
  util::Rng rng(seed);
  data::Batcher batcher(train.size(), kBatch, rng);
  std::vector<std::vector<int>> batches = batcher.epoch();

  std::vector<double> batch_s;
  for (const std::vector<int>& indices : batches) {
    const double t0 = now_s();
    data::gather_batch(train, indices);
    batch_s.push_back(now_s() - t0);
  }
  out.add("data.batch.ms", median(batch_s) * 1e3, "ms");

  nn::SGD sgd(net.main_parameters(), nn::SgdOptions{});
  std::vector<double> forward_s, backward_s, sgd_s;
  for (int step = 0; step <= kSteps; ++step) {
    const auto [images, labels] =
        data::gather_batch(train, batches[static_cast<std::size_t>(step) % batches.size()]);
    const double t0 = now_s();
    const core::MainForward fwd = net.forward_main(images, nn::Mode::kTrain);
    const double t1 = now_s();
    const nn::LossResult loss = nn::softmax_cross_entropy(fwd.logits, labels);
    net.backward_main(loss.grad);
    const double t2 = now_s();
    sgd.step();
    sgd.zero_grad();
    const double t3 = now_s();
    if (step == 0) continue;  // warm-up step
    forward_s.push_back(t1 - t0);
    backward_s.push_back(t2 - t1);
    sgd_s.push_back(t3 - t2);
  }
  out.add("train.forward.ms", median(forward_s) * 1e3, "ms");
  out.add("train.backward.ms", median(backward_s) * 1e3, "ms");
  out.add("train.sgd.ms", median(sgd_s) * 1e3, "ms");

  // Activation cache of one batch-32 train-mode pass through both paths.
  const auto [images, labels] = data::gather_batch(train, batches.front());
  const core::MainForward fwd = net.forward_main(images, nn::Mode::kTrain);
  net.forward_extension(images, fwd.features, nn::Mode::kTrain);
  out.add("train.activation_cache_mb",
          static_cast<double>(net.activation_cache_elems()) * 4.0 / 1e6, "MB");
}

}  // namespace e2e
