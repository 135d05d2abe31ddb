// Fig. 7 of the paper: distributed inference by edge and cloud —
// overall accuracy and percentage of data sent to the cloud as a
// function of the entropy threshold (threshold 0 sends everything).
// Paper shapes: accuracy falls and cloud traffic falls monotonically as
// the threshold rises; at low thresholds distributed accuracy
// approaches cloud-only accuracy.
#include <cstdio>

#include "common.h"
#include "core/complexity.h"
#include "sim/cloud_node.h"
#include "util/stopwatch.h"

using namespace meanet;

namespace {

void sweep(bench::EdgeModel model, bench::DatasetKind kind) {
  bench::TrainedSystem system = bench::train_system(model, kind, bench::default_num_hard(kind),
                                                    core::FusionMode::kSum, bench::TrainBudget{});
  nn::Sequential cloud_model = bench::train_cloud_model(system);
  sim::CloudNode cloud(std::move(cloud_model));

  const core::MainProfile cloud_profile =
      core::profile_classifier(cloud.model(), system.data.test);

  const Shape instance = system.data.test.instance_shape();
  const core::EdgeMacs macs = system.net.edge_macs(instance);
  sim::EdgeNodeCosts costs;
  costs.upload_bytes_per_instance = instance.numel();
  costs.main_macs = macs.main;
  costs.extension_macs = macs.extension;

  std::printf("%s, %s  (cloud-only accuracy: %.1f%%)\n", bench::edge_model_name(model),
              bench::dataset_name(kind), 100.0 * cloud_profile.accuracy);
  std::printf("%-10s %12s %14s\n", "threshold", "accuracy%", "sent-to-cloud%");
  // Thresholds span the validation entropy range of the scaled models
  // (mu_correct ~0.25, mu_wrong ~0.6 nats on 10-20 classes); the paper's
  // 0-3 range corresponds to 100-class softmax entropies.
  runtime::EngineConfig config;
  config.net = &system.net;
  config.dict = &system.dict;
  config.policy_config.cloud_available = true;
  config.backend = std::make_shared<runtime::RawImageBackend>(&cloud);
  config.costs = costs;
  for (const double threshold :
       {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0}) {
    config.policy_config.entropy_threshold = threshold;
    const sim::SystemReport report = sim::run_system(config, system.data.test);
    std::printf("%-10.2f %12.2f %14.1f\n", threshold, 100.0 * report.accuracy,
                100.0 * report.cloud_fraction);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  util::Stopwatch sw;
  std::printf("=== Fig. 7: accuracy & cloud traffic vs entropy threshold ===\n\n");
  sweep(bench::EdgeModel::kResNetA, bench::DatasetKind::kCifarLike);
  sweep(bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike);
  sweep(bench::EdgeModel::kResNetB, bench::DatasetKind::kImageNetLike);
  std::printf("[fig7] done in %.1f s\n", sw.seconds());
  return 0;
}
