// Fig. 8 of the paper: total energy consumed *at the edge* (compute +
// communication) to infer the whole test set, for edge-only inference,
// several entropy thresholds, and cloud-only inference.
//
// The routing fractions (beta per threshold) come from our trained
// synthetic systems; the per-image cost constants are the paper's own
// published values (56 W / 75 W device power, 5.48 W WiFi upload,
// 32x32x3- and 224x224x3-byte payloads), so the energy *shape* —
// compute-visible CIFAR vs communication-dominated ImageNet — matches
// Fig. 8 directly (see DESIGN.md §1).
#include <cstdio>

#include "common.h"
#include "sim/cloud_node.h"
#include "util/stopwatch.h"

using namespace meanet;

namespace {

struct PaperCosts {
  sim::DeviceModel device;
  std::int64_t upload_bytes;
  std::int64_t images;         // paper's test-set size
  std::int64_t main_macs;      // paper model MACs per image
  std::int64_t extension_macs;
};

void run(bench::EdgeModel model, bench::DatasetKind kind, const PaperCosts& paper) {
  bench::TrainedSystem system = bench::train_system(model, kind, bench::default_num_hard(kind),
                                                    core::FusionMode::kSum, bench::TrainBudget{});
  nn::Sequential cloud_model = bench::train_cloud_model(system);
  sim::CloudNode cloud(std::move(cloud_model));

  const sim::WifiModel wifi;
  const double comm_per_image = wifi.upload_energy_j(paper.upload_bytes);
  const double main_energy = paper.device.compute_energy_j(paper.main_macs);
  const double ext_energy = paper.device.compute_energy_j(paper.extension_macs);

  std::printf("%s, %s — energy to infer %lld images (J)\n", bench::dataset_name(kind),
              bench::edge_model_name(model), static_cast<long long>(paper.images));
  std::printf("%-12s %12s %12s %12s %10s %10s\n", "mode", "comm J", "edge comp J", "total J",
              "beta%", "acc%");

  auto print_row = [&](const char* name, double beta, double ext_fraction, double accuracy) {
    const double n = static_cast<double>(paper.images);
    const double comm = beta * n * comm_per_image;
    const double comp = n * main_energy + ext_fraction * n * ext_energy;
    std::printf("%-12s %12.1f %12.1f %12.1f %10.1f %10.1f\n", name, comm, comp, comm + comp,
                100.0 * beta, 100.0 * accuracy);
  };

  // Edge-only row. Energy is recomputed from the paper constants, so
  // the session runs with default costs.
  runtime::EngineConfig config;
  config.net = &system.net;
  config.dict = &system.dict;
  {
    const sim::SystemReport r = sim::run_system(config, system.data.test);
    const double ext_fraction =
        static_cast<double>(r.routes.extension_exit) / r.routes.total();
    print_row("edge only", 0.0, ext_fraction, r.accuracy);
  }

  // Threshold rows; the paper uses 1.2 / 1.0 / 0.8 / 0.5 on 100-class
  // entropies — scaled here to the ~2x smaller entropy range of the
  // 10-20 class models.
  config.policy_config.cloud_available = true;
  config.backend = std::make_shared<runtime::RawImageBackend>(&cloud);
  for (const double threshold : {0.6, 0.5, 0.4, 0.25}) {
    config.policy_config.entropy_threshold = threshold;
    const sim::SystemReport r = sim::run_system(config, system.data.test);
    const double ext_fraction =
        static_cast<double>(r.routes.extension_exit) / r.routes.total();
    char name[32];
    std::snprintf(name, sizeof(name), "thre=%.2f", threshold);
    print_row(name, r.cloud_fraction, ext_fraction, r.accuracy);
  }

  // Cloud-only row: upload everything, no edge compute.
  {
    const core::MainProfile cloud_profile =
        core::profile_classifier(cloud.model(), system.data.test);
    const double n = static_cast<double>(paper.images);
    std::printf("%-12s %12.1f %12.1f %12.1f %10.1f %10.1f\n", "cloud only",
                n * comm_per_image, 0.0, n * comm_per_image, 100.0,
                100.0 * cloud_profile.accuracy);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  util::Stopwatch sw;
  std::printf("=== Fig. 8: edge energy (compute + communication) vs threshold ===\n\n");

  PaperCosts cifar;
  cifar.device = sim::DeviceModel::paper_cifar_gpu();
  cifar.upload_bytes = 32 * 32 * 3;
  cifar.images = 10000;
  cifar.main_macs = 69'000'000;       // paper Table VI: ResNet32 B fixed
  cifar.extension_macs = 31'000'000;  // paper Table VI: trained blocks
  run(bench::EdgeModel::kResNetA, bench::DatasetKind::kCifarLike, cifar);

  PaperCosts imagenet;
  imagenet.device = sim::DeviceModel::paper_imagenet_gpu();
  imagenet.upload_bytes = 224 * 224 * 3;
  imagenet.images = 50000;
  imagenet.main_macs = 1'722'000'000;  // paper Table VI: ResNet18 B fixed
  imagenet.extension_macs = 2'058'000'000;
  run(bench::EdgeModel::kResNetB, bench::DatasetKind::kImageNetLike, imagenet);

  std::printf("expected shapes (paper): CIFAR — at thre=0.5 edge energy approaches\n");
  std::printf("cloud-only; ImageNet — communication dominates, distributed reaches\n");
  std::printf("cloud accuracy at ~60%% of cloud-only edge energy.\n");
  std::printf("\n[fig8] done in %.1f s\n", sw.seconds());
  return 0;
}
