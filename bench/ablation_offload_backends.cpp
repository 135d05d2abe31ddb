// Ablation (paper §III-C): raw-data offload (independent cloud model,
// the paper's choice) vs feature offload (partitioned network) vs no
// cloud at all — all three served through the SAME runtime
// InferenceSession, differing only in the EngineConfig's backend.
// Measures end-to-end routed accuracy, cloud-path accuracy and upload
// payload per offloaded instance for each backend.
#include <cstdio>

#include "common.h"
#include "core/complexity.h"
#include "runtime/session.h"
#include "sim/cloud_node.h"
#include "sim/feature_cloud.h"
#include "util/stopwatch.h"

using namespace meanet;

int main() {
  util::Stopwatch sw;
  std::printf("=== Ablation: raw-data vs feature offload (one serving API) ===\n\n");

  bench::TrainedSystem system = bench::train_system(
      bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike,
      bench::default_num_hard(bench::DatasetKind::kCifarLike), core::FusionMode::kSum,
      bench::TrainBudget{});
  const data::Dataset& test = system.data.test;

  // Raw-data mode: independent deep cloud model.
  nn::Sequential cloud_model = bench::train_cloud_model(system);
  const core::MainProfile raw_profile = core::profile_classifier(cloud_model, test);
  sim::CloudNode cloud(std::move(cloud_model));

  // Feature mode: partitioned head on the main-trunk features.
  const Shape feature_shape = system.net.main_trunk().output_shape(test.instance_shape());
  util::Rng head_rng(31);
  sim::FeatureCloudNode feature_cloud(feature_shape, test.num_classes, head_rng);
  core::TrainOptions opts;
  opts.epochs = 14;
  opts.batch_size = 32;
  opts.milestones = {8, 12};
  util::Rng train_rng(32);
  feature_cloud.train(system.net, system.train, opts, train_rng);
  const data::Dataset test_features = sim::extract_features(system.net, test);
  const std::vector<int> feature_preds = feature_cloud.classify_features(test_features.images);
  std::int64_t feature_correct = 0;
  for (std::size_t i = 0; i < feature_preds.size(); ++i) {
    if (feature_preds[i] == test.labels[i]) ++feature_correct;
  }
  const double feature_acc = static_cast<double>(feature_correct) / test.size();

  // One serving configuration; only the backend changes per row (null =
  // edge only).
  const sim::WifiModel wifi;
  const auto raw = std::make_shared<runtime::RawImageBackend>(&cloud);
  const auto feature = std::make_shared<runtime::FeatureBackend>(&feature_cloud);
  auto serve_with = [&](std::shared_ptr<runtime::OffloadBackend> backend) {
    runtime::EngineConfig cfg;
    cfg.net = &system.net;
    cfg.dict = &system.dict;
    cfg.policy_config.cloud_available = backend != nullptr;
    cfg.policy_config.entropy_threshold = 0.6;
    cfg.backend = std::move(backend);
    runtime::InferenceSession session(cfg);
    const auto results = session.run(test);
    std::int64_t correct = 0;
    for (const auto& r : results) {
      if (r.prediction == test.labels[static_cast<std::size_t>(r.id)]) ++correct;
    }
    struct Row {
      double accuracy;
      double cloud_fraction;
    };
    return Row{static_cast<double>(correct) / test.size(),
               runtime::count_routes(results).cloud_fraction()};
  };
  const auto raw_row = serve_with(raw);
  const auto feature_row = serve_with(feature);
  const auto none_row = serve_with(nullptr);

  // Price the payloads through the same backends the session served
  // with, so the printed columns cannot diverge from what serving charges.
  const Shape image_shape = test.instance_shape();
  const std::int64_t raw_bytes = raw->payload_bytes(image_shape, feature_shape);
  const std::int64_t feature_bytes = feature->payload_bytes(image_shape, feature_shape);

  std::printf("%-26s %10s %12s %10s %14s %16s\n", "mode", "acc%", "cloud acc%", "offload%",
              "payload bytes", "upload energy mJ");
  std::printf("%-26s %10.2f %12.2f %10.1f %14lld %16.3f\n", "raw data (paper choice)",
              100.0 * raw_row.accuracy, 100.0 * raw_profile.accuracy,
              100.0 * raw_row.cloud_fraction, static_cast<long long>(raw_bytes),
              1e3 * wifi.upload_energy_j(raw_bytes));
  std::printf("%-26s %10.2f %12.2f %10.1f %14lld %16.3f\n", "features (partitioned)",
              100.0 * feature_row.accuracy, 100.0 * feature_acc,
              100.0 * feature_row.cloud_fraction, static_cast<long long>(feature_bytes),
              1e3 * wifi.upload_energy_j(feature_bytes));
  std::printf("%-26s %10.2f %12s %10.1f %14d %16.3f\n", "edge only (null backend)",
              100.0 * none_row.accuracy, "-", 100.0 * none_row.cloud_fraction, 0, 0.0);

  std::printf("\npaper observations reproduced: (1) for small images the feature\n");
  std::printf("payload exceeds the raw payload (Table I note), and (2) the\n");
  std::printf("independent cloud model is free to be stronger than a partitioned\n");
  std::printf("head that is locked to the edge's frozen features.\n");
  std::printf("\n[ablation_offload_backends] done in %.1f s\n", sw.seconds());
  return 0;
}
