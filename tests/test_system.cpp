#include <gtest/gtest.h>

#include "core/builders.h"
#include "core/trainer.h"
#include "sim/system.h"
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

  EdgeNodeCosts costs() const {
    EdgeNodeCosts c;
    c.upload_bytes_per_instance = 2 * 8 * 8;  // raw image bytes
    c.main_macs = 1000000;
    c.extension_macs = 500000;
    return c;
  }
};

TEST(DistributedSystem, NoCloudMeansNoCommunication) {
  Fixture f = Fixture::make();
  EdgeNode edge(f.net, f.dict, core::PolicyConfig{}, f.costs());
  DistributedSystem system(std::move(edge), nullptr);
  const SystemReport report = system.run(f.ds.test);
  EXPECT_EQ(report.routes.cloud, 0);
  EXPECT_DOUBLE_EQ(report.communication_energy_j, 0.0);
  EXPECT_GT(report.edge_compute_energy_j, 0.0);
  EXPECT_GT(report.accuracy, 0.4);
}

TEST(DistributedSystem, ZeroThresholdSendsEverythingToCloud) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.0;
  EdgeNode edge(f.net, f.dict, policy, f.costs());
  DistributedSystem system(std::move(edge), &cloud);
  const SystemReport report = system.run(f.ds.test);
  // All test instances have strictly positive entropy in practice.
  EXPECT_GT(report.cloud_fraction, 0.99);
  EXPECT_GT(report.communication_energy_j, 0.0);
  EXPECT_EQ(cloud.instances_served(), f.ds.test.size());
}

TEST(DistributedSystem, HigherThresholdSendsLess) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  auto run_with_threshold = [&](double threshold) {
    core::PolicyConfig policy;
    policy.cloud_available = true;
    policy.entropy_threshold = threshold;
    EdgeNode edge(f.net, f.dict, policy, f.costs());
    DistributedSystem system(std::move(edge), &cloud);
    return system.run(f.ds.test);
  };
  const SystemReport low = run_with_threshold(0.2);
  const SystemReport high = run_with_threshold(1.0);
  EXPECT_GE(low.cloud_fraction, high.cloud_fraction);
  EXPECT_GE(low.communication_energy_j, high.communication_energy_j);
}

TEST(DistributedSystem, CloudImprovesAccuracyOverEdgeOnly) {
  Fixture f = Fixture::make();
  // Edge-only baseline.
  EdgeNode edge_only(f.net, f.dict, core::PolicyConfig{}, f.costs());
  DistributedSystem baseline(std::move(edge_only), nullptr);
  const SystemReport edge_report = baseline.run(f.ds.test);

  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.3;
  EdgeNode edge(f.net, f.dict, policy, f.costs());
  DistributedSystem system(std::move(edge), &cloud);
  const SystemReport cloud_report = system.run(f.ds.test);
  EXPECT_GE(cloud_report.accuracy, edge_report.accuracy);
}

TEST(DistributedSystem, ReportInternallyConsistent) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.5;
  EdgeNode edge(f.net, f.dict, policy, f.costs());
  DistributedSystem system(std::move(edge), &cloud);
  const SystemReport report = system.run(f.ds.test, 13);  // odd batch size
  EXPECT_EQ(report.routes.total(), f.ds.test.size());
  EXPECT_EQ(static_cast<int>(report.predictions.size()), f.ds.test.size());
  EXPECT_EQ(static_cast<int>(report.instance_routes.size()), f.ds.test.size());
  EXPECT_NEAR(report.cloud_fraction,
              static_cast<double>(report.routes.cloud) / f.ds.test.size(), 1e-12);
  EXPECT_DOUBLE_EQ(report.edge_energy_j(),
                   report.edge_compute_energy_j + report.communication_energy_j);
  // Energy accounting: every instance pays main MACs; extension extra.
  const EdgeNodeCosts costs = f.costs();
  DeviceModel device;  // default throughput used in costs()
  const double expected_compute =
      device.compute_energy_j(costs.main_macs) * report.routes.total() +
      device.compute_energy_j(costs.extension_macs) * report.routes.extension_exit;
  EXPECT_NEAR(report.edge_compute_energy_j, expected_compute, 1e-9);
}

TEST(DistributedSystem, ThreadedRunMatchesSingleThreadedAndReportsServing) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.3;
  EdgeNode edge(f.net, f.dict, policy, f.costs());
  DistributedSystem system(std::move(edge), &cloud);
  const SystemReport single = system.run(f.ds.test, 16);

  // Two workers sharing the one net, small batches: the routed
  // predictions must be identical to the single-worker run.
  const SystemReport threaded = system.run(f.ds.test, 8, 2);
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

TEST(EdgeNode, PerRouteCosts) {
  Fixture f = Fixture::make();
  EdgeNodeCosts costs = f.costs();
  EdgeNode edge(f.net, f.dict, core::PolicyConfig{}, costs);
  core::InstanceDecision main_exit;
  main_exit.route = core::Route::kMainExit;
  core::InstanceDecision ext_exit;
  ext_exit.route = core::Route::kExtensionExit;
  core::InstanceDecision cloud;
  cloud.route = core::Route::kCloud;
  EXPECT_GT(edge.compute_energy_j(ext_exit), edge.compute_energy_j(main_exit));
  EXPECT_DOUBLE_EQ(edge.compute_energy_j(cloud), edge.compute_energy_j(main_exit));
  EXPECT_DOUBLE_EQ(edge.comm_energy_j(main_exit), 0.0);
  EXPECT_GT(edge.comm_energy_j(cloud), 0.0);
  EXPECT_GT(edge.comm_time_s(cloud), 0.0);
}

}  // namespace
}  // namespace meanet::sim
