// Table VII of the paper: per-image computation and communication
// power / time / energy at the edge. The first two rows evaluate the
// cost models at the paper's own constants (GTX-1080Ti power, WiFi
// power model, CIFAR/ImageNet image and model sizes) and should match
// the published numbers; the remaining rows price this repo's scaled
// synthetic models on an edge-class device.
#include <cstdio>

#include "common.h"
#include "util/stopwatch.h"

using namespace meanet;

namespace {

void print_row(const char* name, const sim::DeviceModel& device, const sim::WifiModel& wifi,
               std::int64_t macs, std::int64_t upload_bytes) {
  const double tcp_ms = device.compute_time_s(macs) * 1e3;
  const double tcu_ms = wifi.upload_time_s(upload_bytes) * 1e3;
  const double ecp_mj = device.compute_energy_j(macs) * 1e3;
  const double ecu_mj = wifi.upload_energy_j(upload_bytes) * 1e3;
  std::printf("%-34s %8.1f %8.2f %9.3f %8.1f %9.2f %9.1f\n", name, device.compute_power_w,
              wifi.upload_power_w(), tcp_ms, tcu_ms, ecp_mj, ecu_mj);
}

}  // namespace

int main() {
  util::Stopwatch sw;
  std::printf("=== Table VII: per-image power, time and energy at the edge ===\n\n");
  std::printf("%-34s %8s %8s %9s %8s %9s %9s\n", "configuration", "GPU W", "WiFi W", "tcp ms",
              "tcu ms", "Ecp mJ", "Ecu mJ");

  const sim::WifiModel wifi;

  // Paper rows (constants from the paper; expected: 0.056/1.3 ms and
  // 3.14/7.12 mJ for CIFAR; 0.203/63.7 ms and 15.23/349 mJ for ImageNet).
  print_row("paper CIFAR-100, ResNet32 A", sim::DeviceModel::paper_cifar_gpu(), wifi, 69'000'000,
            32 * 32 * 3);
  print_row("paper ImageNet, ResNet18 B", sim::DeviceModel::paper_imagenet_gpu(), wifi,
            1'722'000'000, 224 * 224 * 3);

  // Synthetic-model rows: a 5 GMAC/s, 5 W edge-class accelerator.
  sim::DeviceModel edge_device;
  edge_device.compute_power_w = 5.0;
  edge_device.macs_per_second = 5e9;
  for (const auto& [model, kind, label] :
       {std::tuple{bench::EdgeModel::kResNetA, bench::DatasetKind::kCifarLike,
                   "synthetic CIFAR-like, ResNet A"},
        std::tuple{bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike,
                   "synthetic CIFAR-like, ResNet B"},
        std::tuple{bench::EdgeModel::kResNetB, bench::DatasetKind::kImageNetLike,
                   "synthetic ImageNet-like, ResNet B"},
        std::tuple{bench::EdgeModel::kMobileNetB, bench::DatasetKind::kImageNetLike,
                   "synthetic ImageNet-like, MNetV2 B"}}) {
    util::Rng rng(3);
    core::MEANet net =
        bench::build_edge_model(model, kind, bench::default_num_hard(kind),
                                core::FusionMode::kSum, rng);
    const data::SyntheticSpec spec = bench::spec_for(kind);
    const Shape image{1, spec.channels, spec.height, spec.width};
    const core::EdgeMacs macs = net.edge_macs(image);
    print_row(label, edge_device, wifi, macs.main, image.numel());
  }

  std::printf("\n[table7] done in %.1f s\n", sw.seconds());
  return 0;
}
