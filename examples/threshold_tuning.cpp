// Threshold tuning: the paper (§III-C) derives the cloud-offload
// entropy threshold range (mu_correct, mu_wrong) from validation
// statistics and lets the operator pick inside it based on system
// requirements. This example shows the full tuning loop:
//
//  1. train an MEANet system and measure validation entropy statistics;
//  2. sweep candidate thresholds across (mu_c, mu_w) on the validation
//     set, recording accuracy and offload rate;
//  3. pick the cheapest threshold meeting an accuracy target;
//  4. verify the choice on the held-out test set.
//
// Build & run:  ./build/examples/threshold_tuning
#include <cstdio>

#include "core/builders.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "runtime/offload_backend.h"
#include "sim/cloud_node.h"
#include "sim/system.h"

using namespace meanet;

int main() {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.height = 16;
  spec.width = 16;
  spec.train_per_class = 70;
  spec.test_per_class = 30;
  spec.min_difficulty = 0.35f;
  spec.max_difficulty = 0.95f;
  spec.noise_stddev = 0.45f;
  const data::SyntheticDataset ds = data::make_synthetic(spec, 29);
  util::Rng split_rng(1);
  const data::SplitResult parts = data::split(ds.train, 0.9, split_rng);

  // Train the edge system (Alg. 1) and a cloud model.
  util::Rng model_rng(2);
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.channels = {8, 16, 32};
  config.num_classes = spec.num_classes;
  core::MEANet net = core::build_resnet_meanet_b(config, 5, core::FusionMode::kSum, model_rng);
  core::DistributedTrainer trainer(net);
  core::TrainOptions opts;
  opts.epochs = 10;
  opts.batch_size = 32;
  opts.milestones = {6, 8};
  util::Rng train_rng(3);
  trainer.train_main(parts.first, opts, train_rng);
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(parts.second, 5);
  opts.sgd.learning_rate = 0.05f;
  trainer.train_edge_blocks(parts.first, dict, opts, train_rng);

  util::Rng cloud_rng(4);
  nn::Sequential cloud_net = core::build_cloud_classifier(3, spec.num_classes, cloud_rng);
  core::TrainOptions cloud_opts;
  cloud_opts.epochs = 14;
  cloud_opts.batch_size = 32;
  cloud_opts.milestones = {8, 12};
  core::train_classifier(cloud_net, parts.first, cloud_opts, train_rng);
  sim::CloudNode cloud(std::move(cloud_net));

  // 1. Validation entropy statistics define the threshold range.
  const core::MainProfile val_profile = core::profile_main(net, parts.second);
  const auto [mu_c, mu_w] = val_profile.entropy.threshold_range();
  std::printf("validation entropy: mu_correct=%.3f, mu_wrong=%.3f\n", mu_c, mu_w);
  // On a small validation split mu_wrong can be degenerate (few or no
  // wrong predictions); clamp to a usable ascending interval.
  const double sweep_lo = std::min(mu_c, mu_w);
  const double sweep_hi = std::max({mu_c, mu_w, sweep_lo + 0.2});
  std::printf("candidate thresholds are swept across this range (paper §III-C)\n\n");

  sim::EdgeNodeCosts costs;
  costs.upload_bytes_per_instance = ds.test.instance_shape().numel();
  costs.device.compute_power_w = 5.0;
  costs.device.macs_per_second = 5e9;
  const core::EdgeMacs macs = net.edge_macs(ds.test.instance_shape());
  costs.main_macs = macs.main;
  costs.extension_macs = macs.extension;

  runtime::EngineConfig serve;
  serve.net = &net;
  serve.dict = &dict;
  serve.policy_config.cloud_available = true;
  serve.backend = std::make_shared<runtime::RawImageBackend>(&cloud);
  serve.costs = costs;
  auto evaluate = [&](const data::Dataset& dataset, double threshold) {
    serve.policy_config.entropy_threshold = threshold;
    return sim::run_system(serve, dataset);
  };

  // 2./3. Sweep and pick: cheapest threshold with >= target accuracy.
  const double accuracy_target = 0.80;
  std::printf("%-10s %12s %12s %14s\n", "threshold", "val acc%", "offload%", "edge energy J");
  double chosen = sweep_hi;  // fallback: least offload
  bool found = false;
  const int steps = 8;
  for (int i = 0; i <= steps; ++i) {
    const double t = sweep_lo + (sweep_hi - sweep_lo) * i / steps;
    const sim::SystemReport r = evaluate(parts.second, t);
    std::printf("%-10.3f %12.1f %12.1f %14.3f\n", t, 100.0 * r.accuracy,
                100.0 * r.cloud_fraction, r.edge_energy_j());
    // Higher threshold = less offload = cheaper; keep raising while the
    // accuracy target is still met.
    if (r.accuracy >= accuracy_target) {
      chosen = t;
      found = true;
    }
  }
  std::printf("\nchosen threshold: %.3f (%s %.0f%% validation accuracy target)\n", chosen,
              found ? "meets" : "closest to", 100.0 * accuracy_target);

  // 4. Verify on the test set.
  const sim::SystemReport test_report = evaluate(ds.test, chosen);
  std::printf("test: %.1f%% accuracy, %.1f%% offloaded, %.3f J edge energy\n",
              100.0 * test_report.accuracy, 100.0 * test_report.cloud_fraction,
              test_report.edge_energy_j());
  return 0;
}
