// End-to-end test of the full paper pipeline: Alg. 1 distributed
// training followed by Alg. 2 distributed inference, checking the
// paper's qualitative claims on the synthetic workload.
#include <gtest/gtest.h>

#include "core/builders.h"
#include "core/trainer.h"
#include "metrics/classification_metrics.h"
#include "runtime/offload_backend.h"
#include "sim/cloud_node.h"
#include "sim/system.h"
#include "tiny_models.h"

namespace meanet {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_resnet_config;

class PipelineTest : public ::testing::TestWithParam<core::FusionMode> {};

TEST_P(PipelineTest, Algorithm1ThenAlgorithm2EndToEnd) {
  const core::FusionMode fusion = GetParam();
  util::Rng rng(31);
  data::SyntheticSpec spec = tiny_data_spec();
  spec.train_per_class = 30;
  const data::SyntheticDataset ds = data::make_synthetic(spec, 41);

  // ---- Alg. 1 ----
  core::MEANet net = core::build_resnet_meanet_b(tiny_resnet_config(), 2, fusion, rng);
  core::DistributedTrainer trainer(net);
  core::TrainOptions options;
  options.epochs = 6;
  options.batch_size = 16;
  util::Rng train_rng(32);
  // Step 1: train main (at the "cloud").
  trainer.train_main(ds.train, options, train_rng);
  // Steps 2-4: hard classes from validation statistics.
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(ds.test, 2);
  // Steps 5-8: blockwise edge training on hard data.
  trainer.train_edge_blocks(ds.train, dict, options, train_rng);

  // ---- Edge-only inference (no cloud) ----
  sim::EdgeNodeCosts costs;
  costs.upload_bytes_per_instance = 2 * 8 * 8;
  costs.main_macs = 1'000'000;
  costs.extension_macs = 400'000;
  runtime::EngineConfig config;
  config.net = &net;
  config.dict = &dict;
  config.costs = costs;
  const sim::SystemReport edge_report = sim::run_system(config, ds.test);
  EXPECT_GT(edge_report.accuracy, 0.4);

  // ---- Full distributed inference ----
  nn::Sequential cloud_model = core::build_cloud_classifier(2, 4, rng);
  core::TrainOptions cloud_options;
  cloud_options.epochs = 10;
  cloud_options.batch_size = 16;
  core::train_classifier(cloud_model, ds.train, cloud_options, train_rng);
  sim::CloudNode cloud(std::move(cloud_model));

  config.policy_config.cloud_available = true;
  config.policy_config.entropy_threshold = 0.4;
  config.backend = std::make_shared<runtime::RawImageBackend>(&cloud);
  const sim::SystemReport report = sim::run_system(config, ds.test);

  // Paper claims: distributed inference >= edge-only accuracy while
  // sending only part of the data. The test set has 40 samples, so one
  // sample is 0.025 of accuracy — the tolerance must cover at least
  // two quanta or the claim degenerates into an exact-match assertion
  // on which side of a decision boundary a borderline sample falls,
  // which flips with the float kernel's accumulation order.
  EXPECT_GE(report.accuracy + 0.05, edge_report.accuracy);
  EXPECT_GT(report.cloud_fraction, 0.0);
  EXPECT_LT(report.cloud_fraction, 1.0);
  // Energy: edge-cloud communicates, edge-only does not.
  EXPECT_GT(report.communication_energy_j, 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothFusionModes, PipelineTest,
                         ::testing::Values(core::FusionMode::kSum, core::FusionMode::kConcat));

TEST(Integration, HardClassSelectionTracksDifficulty) {
  // The generator's per-class difficulty should be *discovered* by the
  // precision ranking: the selected hard classes should have higher
  // ground-truth difficulty on average than the easy ones.
  util::Rng rng(33);
  data::SyntheticSpec spec = tiny_data_spec();
  spec.num_classes = 6;
  spec.train_per_class = 25;
  spec.min_difficulty = 0.05f;
  spec.max_difficulty = 0.8f;
  const data::SyntheticDataset ds = data::make_synthetic(spec, 43);

  core::ResNetConfig config = tiny_resnet_config(6);
  core::MEANet net = core::build_resnet_meanet_b(config, 3, core::FusionMode::kSum, rng);
  core::DistributedTrainer trainer(net);
  core::TrainOptions options;
  options.epochs = 8;
  options.batch_size = 16;
  util::Rng train_rng(34);
  trainer.train_main(ds.train, options, train_rng);
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(ds.test, 3);

  double hard_difficulty = 0.0, easy_difficulty = 0.0;
  for (int c : dict.hard_classes()) hard_difficulty += ds.difficulty[static_cast<std::size_t>(c)];
  for (int c : dict.easy_classes()) easy_difficulty += ds.difficulty[static_cast<std::size_t>(c)];
  hard_difficulty /= dict.num_hard();
  easy_difficulty /= dict.num_easy();
  EXPECT_GT(hard_difficulty, easy_difficulty);
}

TEST(Integration, ErrorTypeIVDominatesAfterMainTraining) {
  // Fig. 5's premise: with half the classes hard, hard-as-hard errors
  // are the biggest error bucket (the extension block's opportunity).
  util::Rng rng(35);
  data::SyntheticSpec spec = tiny_data_spec();
  spec.train_per_class = 30;
  const data::SyntheticDataset ds = data::make_synthetic(spec, 44);
  core::MEANet net = core::build_resnet_meanet_b(tiny_resnet_config(), 2,
                                                 core::FusionMode::kSum, rng);
  core::DistributedTrainer trainer(net);
  core::TrainOptions options;
  options.epochs = 8;
  options.batch_size = 16;
  util::Rng train_rng(36);
  trainer.train_main(ds.train, options, train_rng);
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(ds.test, 2);

  const core::MainProfile profile = core::profile_main(net, ds.test);
  std::vector<bool> is_hard(4, false);
  for (int c : dict.hard_classes()) is_hard[static_cast<std::size_t>(c)] = true;
  const metrics::ErrorTypeBreakdown breakdown =
      metrics::error_types(profile.predictions, ds.test.labels, is_hard);
  ASSERT_GT(breakdown.total_errors(), 0);
  // Hard-class confusions (II + IV) should carry most of the error mass
  // since hard classes are the confusable ones.
  EXPECT_GT(breakdown.hard_as_hard + breakdown.hard_as_easy,
            breakdown.easy_as_easy);
}

TEST(Integration, DeterministicEndToEnd) {
  // Identical seeds must give identical trained parameters and reports.
  auto run_once = [] {
    util::Rng rng(37);
    const data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 45);
    core::MEANet net = core::build_resnet_meanet_b(tiny_resnet_config(), 2,
                                                   core::FusionMode::kSum, rng);
    core::DistributedTrainer trainer(net);
    core::TrainOptions options;
    options.epochs = 3;
    options.batch_size = 16;
    util::Rng train_rng(38);
    trainer.train_main(ds.train, options, train_rng);
    const core::MainProfile profile = core::profile_main(net, ds.test);
    return profile.accuracy;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace meanet
