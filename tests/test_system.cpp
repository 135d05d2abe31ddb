#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/builders.h"
#include "core/trainer.h"
#include "runtime/offload_backend.h"
#include "sim/cloud_node.h"
#include "sim/system.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tiny_models.h"

namespace meanet::sim {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;
using meanet::testing::tiny_resnet_config;

struct Fixture {
  data::SyntheticDataset ds;
  core::MEANet net;
  data::ClassDict dict;
  nn::Sequential cloud_model;

  static Fixture make() {
    util::Rng rng(1);
    data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 21);
    core::MEANet net = tiny_meanet_b(rng, 2);
    core::DistributedTrainer trainer(net);
    core::TrainOptions options;
    options.epochs = 5;
    options.batch_size = 16;
    util::Rng train_rng(2);
    trainer.train_main(ds.train, options, train_rng);
    data::ClassDict dict = trainer.select_hard_classes_from_validation(ds.test, 2);
    trainer.train_edge_blocks(ds.train, dict, options, train_rng);

    nn::Sequential cloud_model = core::build_cloud_classifier(2, 4, rng);
    core::TrainOptions cloud_options;
    cloud_options.epochs = 8;
    cloud_options.batch_size = 16;
    core::train_classifier(cloud_model, ds.train, cloud_options, train_rng);
    return Fixture{std::move(ds), std::move(net), std::move(dict), std::move(cloud_model)};
  }

  static EdgeNodeCosts costs() {
    EdgeNodeCosts c;
    c.upload_bytes_per_instance = 2 * 8 * 8;  // raw image bytes
    c.main_macs = 1000000;
    c.extension_macs = 500000;
    return c;
  }

  /// Serving config over the fixture's net: edge-only when `cloud` is
  /// null, else raw-image offload above `threshold`.
  runtime::EngineConfig config(CloudNode* cloud = nullptr, double threshold = 0.0) {
    runtime::EngineConfig c;
    c.net = &net;
    c.dict = &dict;
    c.costs = costs();
    if (cloud != nullptr) {
      c.policy_config.cloud_available = true;
      c.policy_config.entropy_threshold = threshold;
      c.backend = std::make_shared<runtime::RawImageBackend>(cloud);
    }
    return c;
  }
};

TEST(RunSystem, NoCloudMeansNoCommunication) {
  Fixture f = Fixture::make();
  const SystemReport report = run_system(f.config(), f.ds.test);
  EXPECT_EQ(report.routes.cloud, 0);
  EXPECT_DOUBLE_EQ(report.communication_energy_j, 0.0);
  EXPECT_GT(report.edge_compute_energy_j, 0.0);
  EXPECT_GT(report.accuracy, 0.4);
}

TEST(RunSystem, ZeroThresholdSendsEverythingToCloud) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  const SystemReport report = run_system(f.config(&cloud, 0.0), f.ds.test);
  // All test instances have strictly positive entropy in practice.
  EXPECT_GT(report.cloud_fraction, 0.99);
  EXPECT_GT(report.communication_energy_j, 0.0);
  EXPECT_EQ(cloud.instances_served(), f.ds.test.size());
}

TEST(RunSystem, HigherThresholdSendsLess) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  const SystemReport low = run_system(f.config(&cloud, 0.2), f.ds.test);
  const SystemReport high = run_system(f.config(&cloud, 1.0), f.ds.test);
  EXPECT_GE(low.cloud_fraction, high.cloud_fraction);
  EXPECT_GE(low.communication_energy_j, high.communication_energy_j);
}

TEST(RunSystem, CloudImprovesAccuracyOverEdgeOnly) {
  Fixture f = Fixture::make();
  const SystemReport edge_report = run_system(f.config(), f.ds.test);  // edge-only baseline

  CloudNode cloud(std::move(f.cloud_model));
  const SystemReport cloud_report = run_system(f.config(&cloud, 0.3), f.ds.test);
  EXPECT_GE(cloud_report.accuracy, edge_report.accuracy);
}

TEST(RunSystem, ReportInternallyConsistent) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  runtime::EngineConfig config = f.config(&cloud, 0.5);
  config.batch_size = 13;  // odd batch size
  const SystemReport report = run_system(config, f.ds.test);
  EXPECT_EQ(report.routes.total(), f.ds.test.size());
  EXPECT_EQ(static_cast<int>(report.predictions.size()), f.ds.test.size());
  EXPECT_EQ(static_cast<int>(report.instance_routes.size()), f.ds.test.size());
  EXPECT_NEAR(report.cloud_fraction,
              static_cast<double>(report.routes.cloud) / f.ds.test.size(), 1e-12);
  EXPECT_DOUBLE_EQ(report.edge_energy_j(),
                   report.edge_compute_energy_j + report.communication_energy_j);
  // Energy accounting: every instance pays main MACs; extension extra.
  const EdgeNodeCosts costs = Fixture::costs();
  DeviceModel device;  // default throughput used in costs()
  const double expected_compute =
      device.compute_energy_j(costs.main_macs) * report.routes.total() +
      device.compute_energy_j(costs.extension_macs) * report.routes.extension_exit;
  EXPECT_NEAR(report.edge_compute_energy_j, expected_compute, 1e-9);
}

TEST(RunSystem, ThreadedRunMatchesSingleThreadedAndReportsServing) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  runtime::EngineConfig config = f.config(&cloud, 0.3);
  config.batch_size = 16;
  const SystemReport single = run_system(config, f.ds.test);

  // Two workers sharing the one net, small batches: the routed
  // predictions must be identical to the single-worker run.
  config.batch_size = 8;
  config.worker_threads = 2;
  const SystemReport threaded = run_system(config, f.ds.test);
  ASSERT_EQ(threaded.predictions.size(), single.predictions.size());
  for (std::size_t i = 0; i < single.predictions.size(); ++i) {
    EXPECT_EQ(threaded.predictions[i], single.predictions[i]) << i;
  }
  EXPECT_DOUBLE_EQ(threaded.accuracy, single.accuracy);
  // The report now carries the session's serving counters.
  EXPECT_EQ(threaded.serving.completed_instances, f.ds.test.size());
  EXPECT_GE(threaded.serving.queue_depth_high_water, 1);
  EXPECT_EQ(threaded.serving.route_count(core::Route::kCloud), threaded.routes.cloud);
}

TEST(EdgeNodeCosts, PerRouteCosts) {
  const EdgeNodeCosts costs = Fixture::costs();
  EXPECT_GT(costs.compute_energy_j(core::Route::kExtensionExit),
            costs.compute_energy_j(core::Route::kMainExit));
  EXPECT_DOUBLE_EQ(costs.compute_energy_j(core::Route::kCloud),
                   costs.compute_energy_j(core::Route::kMainExit));
  EXPECT_DOUBLE_EQ(costs.comm_energy_j(core::Route::kMainExit), 0.0);
  EXPECT_GT(costs.comm_energy_j(core::Route::kCloud), 0.0);
  EXPECT_GT(costs.comm_time_s(core::Route::kCloud), 0.0);
}

// ---- Row-sharded CloudNode::classify ----

/// Untrained cloud classifier over tiny_data_spec's 2×8×8 images; the
/// same seed gives the same weights to every node built from it.
CloudNode sharded_cloud(int forward_threads) {
  util::Rng rng(31);
  return CloudNode(core::build_cloud_classifier(2, 4, rng), forward_threads);
}

Tensor cloud_images(int rows, int channels = 2) {
  util::Rng rng(static_cast<std::uint64_t>(100 + rows));
  return Tensor::normal(Shape{rows, channels, 8, 8}, rng);
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

TEST(CloudNodeSharding, EveryWidthMatchesTheUnshardedForward) {
  for (const int rows : {1, 3, 64, 130}) {
    const Tensor images = cloud_images(rows);
    for (const int width : {1, 2, 3, 4, 7}) {
      CloudNode node = sharded_cloud(width);
      const Tensor logits = node.model().forward(images, nn::Mode::kEval);
      EXPECT_EQ(node.classify(images), ops::row_argmax(logits))
          << "rows=" << rows << " width=" << width;
      // The property the sharding rests on: each shard's logits are the
      // unsharded logits' rows, byte for byte.
      const int shards = std::min(width, rows);
      for (int slot = 0; slot < shards; ++slot) {
        const auto [begin, end] = ops::GemmPool::split(rows, slot, shards);
        const Tensor shard =
            node.model().forward(images.slice_batch(begin, end - begin), nn::Mode::kEval);
        const Tensor expected = logits.slice_batch(begin, end - begin);
        EXPECT_TRUE(same_bytes(shard, expected))
            << "rows=" << rows << " width=" << width << " slot=" << slot;
      }
    }
  }
}

TEST(CloudNodeSharding, ConcurrentCallersBothGetTheirAnswers) {
  CloudNode node = sharded_cloud(4);
  const Tensor first = cloud_images(64);
  const Tensor second = cloud_images(130);
  const std::vector<int> want_first = ops::row_argmax(node.model().forward(first, nn::Mode::kEval));
  const std::vector<int> want_second =
      ops::row_argmax(node.model().forward(second, nn::Mode::kEval));
  std::vector<int> got_first, got_second;
  std::thread a([&] { got_first = node.classify(first); });
  std::thread b([&] { got_second = node.classify(second); });
  a.join();
  b.join();
  EXPECT_EQ(got_first, want_first);
  EXPECT_EQ(got_second, want_second);
  EXPECT_EQ(node.instances_served(), 64 + 130);
}

TEST(CloudNodeSharding, WrongChannelBatchThrowsAndTheNodeKeepsServing) {
  CloudNode node = sharded_cloud(4);
  EXPECT_THROW(node.classify(cloud_images(64, 3)), std::invalid_argument);
  EXPECT_EQ(node.instances_served(), 0);
  const Tensor images = cloud_images(64);
  EXPECT_EQ(node.classify(images), ops::row_argmax(node.model().forward(images, nn::Mode::kEval)));
  EXPECT_EQ(node.instances_served(), 64);
}

TEST(CloudNodeSharding, ServedCountsEveryRowOnce) {
  CloudNode node = sharded_cloud(4);
  EXPECT_EQ(node.forward_threads(), 4);
  EXPECT_EQ(sharded_cloud(0).forward_threads(), 1);  // clamped to >= 1
  node.classify(cloud_images(1));
  // A width-4 batch of 64 rows is one fan-out job of 4 shards.
  const ops::GemmPool::Stats before = ops::GemmPool::instance().stats();
  node.classify(cloud_images(64));
  const ops::GemmPool::Stats after = ops::GemmPool::instance().stats();
  EXPECT_EQ(after.fanout_jobs - before.fanout_jobs, 1u);
  EXPECT_EQ(after.stripes - before.stripes, 4u);
  node.classify(cloud_images(130));
  EXPECT_EQ(node.instances_served(), 1 + 64 + 130);
}

}  // namespace
}  // namespace meanet::sim
