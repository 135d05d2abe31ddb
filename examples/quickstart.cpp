// Quickstart: the whole MEANet workflow in one file.
//
//  1. generate a synthetic image-classification workload;
//  2. build an MEANet (Model B on a small ResNet);
//  3. run the paper's Alg. 1: train the main block, discover hard
//     classes from validation statistics, freeze the main block, and
//     train the extension + adaptive blocks on hard-class data only;
//  4. serve the paper's Alg. 2 at the edge through the unified
//     meanet::runtime API: early exit for easy classes, extension
//     re-classification for hard ones;
//  5. print accuracy before/after and the exit distribution.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/builders.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/classification_metrics.h"
#include "runtime/session.h"

using namespace meanet;

int main() {
  // ---- 1. Data: 8 classes, some intentionally confusable. ----
  data::SyntheticSpec spec;
  spec.num_classes = 8;
  spec.height = 12;
  spec.width = 12;
  spec.train_per_class = 60;
  spec.test_per_class = 25;
  spec.max_difficulty = 0.85f;
  const data::SyntheticDataset ds = data::make_synthetic(spec, /*seed=*/7);
  util::Rng split_rng(1);
  const data::SplitResult parts = data::split(ds.train, 0.9, split_rng);
  std::printf("dataset: %d train / %d validation / %d test instances, %d classes\n",
              parts.first.size(), parts.second.size(), ds.test.size(), spec.num_classes);

  // ---- 2. Model: ResNet-style MEANet, half the classes treated hard. ----
  util::Rng model_rng(2);
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.channels = {8, 16, 32};
  config.image_channels = 3;
  config.num_classes = spec.num_classes;
  core::MEANet net =
      core::build_resnet_meanet_b(config, /*num_hard=*/4, core::FusionMode::kSum, model_rng);

  // ---- 3. Alg. 1: distributed training. ----
  core::DistributedTrainer trainer(net);
  core::TrainOptions opts;
  opts.epochs = 10;
  opts.batch_size = 32;
  opts.milestones = {6, 8};
  util::Rng train_rng(3);
  trainer.train_main(parts.first, opts, train_rng);  // at the "cloud"
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(parts.second, 4);
  std::printf("hard classes discovered from validation precision:");
  for (int c : dict.hard_classes()) std::printf(" %d", c);
  std::printf("\n");
  opts.sgd.learning_rate = 0.05f;
  trainer.train_edge_blocks(parts.first, dict, opts, train_rng);  // at the edge

  // ---- 4./5. Alg. 2 edge serving through the runtime API. ----
  const core::MainProfile main_only = core::profile_main(net, ds.test);

  runtime::EngineConfig serve;
  serve.net = &net;
  serve.dict = &dict;  // edge-only: no backend means NullBackend
  runtime::InferenceSession session(serve);
  const auto results = session.run(ds.test);
  std::vector<int> predictions;
  predictions.reserve(results.size());
  for (const auto& r : results) predictions.push_back(r.prediction);
  const core::RouteCounts routes = runtime::count_routes(results);

  std::printf("\nmain block alone : %.1f%% test accuracy\n", 100.0 * main_only.accuracy);
  std::printf("MEANet (routed)  : %.1f%% test accuracy\n",
              100.0 * metrics::accuracy(predictions, ds.test.labels));
  std::printf("exits: %lld at main (early exit), %lld at extension\n",
              static_cast<long long>(routes.main_exit),
              static_cast<long long>(routes.extension_exit));

  std::printf("\nNext steps: see examples/smart_camera.cpp for edge-cloud offload\n");
  std::printf("and examples/threshold_tuning.cpp for choosing the entropy threshold.\n");
  return 0;
}
