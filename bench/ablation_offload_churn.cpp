// Ablation: the cloud link under churn. The paper's Alg. 2 assumes the
// cloud answers instantly; here the same serving configuration is run
// against links that misbehave in every way the runtime models:
// decorator chains that inject round-trip latency, drop uploads, and
// retry; a WiFi-timed transport whose upload time scales with the
// payload's byte size (paper §IV-B, with seeded jitter); finite offload
// timeouts; and per-route deadlines that bound a request's end-to-end
// completion. Slow answers fall back to the edge prediction exactly
// like an unreachable cloud (NullBackend), so accuracy degrades to
// edge-only parity and never below. Reports routed accuracy, offload
// completion, timeout/expiry counts, and the cloud route's end-to-end
// latency percentiles from session.metrics().
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "common.h"
#include "runtime/backend_decorators.h"
#include "runtime/session.h"
#include "sim/cloud_node.h"
#include "sim/shared_cell.h"
#include "util/stopwatch.h"

using namespace meanet;

int main() {
  util::Stopwatch sw;
  std::printf("=== Ablation: offload under churn (latency / loss / WiFi / deadlines) ===\n\n");

  bench::TrainedSystem system = bench::train_system(
      bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike,
      bench::default_num_hard(bench::DatasetKind::kCifarLike), core::FusionMode::kSum,
      bench::TrainBudget{});
  const data::Dataset& test = system.data.test;

  nn::Sequential cloud_model = bench::train_cloud_model(system);
  sim::CloudNode cloud(std::move(cloud_model));
  const auto raw = std::make_shared<runtime::RawImageBackend>(&cloud);

  // WiFi cells: the paper's 18.88 Mb/s cell, and the same cell
  // congested 20x (≈0.94 Mb/s — a 16x16x3 frame upload takes ~6.5ms).
  // Each scenario's session gets a fresh cell of its own.
  sim::SharedCellConfig paper_wifi;
  sim::SharedCellConfig congested_wifi;
  congested_wifi.uplink = congested_wifi.uplink.congested(20.0);
  congested_wifi.jitter_s = 0.004;
  congested_wifi.seed = 0x51F1;

  struct Scenario {
    const char* name;
    std::shared_ptr<runtime::OffloadBackend> backend;
    double timeout_s;
    std::optional<sim::SharedCellConfig> cell;
    double cloud_deadline_s;
  };
  const double kInf = std::numeric_limits<double>::infinity();
  const Scenario scenarios[] = {
      {"ideal link (baseline)", raw, kInf, std::nullopt, kInf},
      {"2ms RTT, no timeout",
       std::make_shared<runtime::LatencyInjectingBackend>(raw, 0.002), kInf, std::nullopt, kInf},
      {"40ms RTT, 5ms timeout",
       std::make_shared<runtime::LatencyInjectingBackend>(raw, 0.040), 0.005, std::nullopt,
       kInf},
      {"30% loss",
       std::make_shared<runtime::LossyBackend>(raw, 0.3), kInf, std::nullopt, kInf},
      {"30% loss, 5 retries",
       std::make_shared<runtime::RetryingBackend>(
           std::make_shared<runtime::LossyBackend>(raw, 0.3), 5), kInf, std::nullopt, kInf},
      {"wifi 18.88Mb/s (paper)", raw, kInf, paper_wifi, kInf},
      {"wifi /20 + jitter", raw, kInf, congested_wifi, kInf},
      {"wifi /20, 25ms deadline", raw, kInf, congested_wifi, 0.025},
      {"cloud down (null)", std::make_shared<runtime::NullBackend>(), kInf, std::nullopt, kInf},
  };

  std::printf("%-24s %8s %9s %9s %9s %9s %12s %12s\n", "link", "acc%", "offload%", "timeout",
              "expired", "dropped", "cloud p50ms", "cloud p99ms");
  for (const Scenario& s : scenarios) {
    runtime::EngineConfig cfg;
    cfg.net = &system.net;
    cfg.dict = &system.dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.6;
    cfg.backend = s.backend;
    cfg.offload_timeout_s = s.timeout_s;
    if (s.cell) cfg.cell = std::make_shared<sim::SharedCell>(*s.cell);
    cfg.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = s.cloud_deadline_s;
    runtime::InferenceSession session(cfg);
    const auto results = session.run(test);

    std::int64_t correct = 0, cloud_routed = 0, answered = 0;
    for (const auto& r : results) {
      if (r.prediction == test.labels[static_cast<std::size_t>(r.id)]) ++correct;
      if (r.route == core::Route::kCloud) {
        ++cloud_routed;
        if (r.offloaded) ++answered;
      }
    }
    const runtime::SessionMetrics m = session.metrics();
    const runtime::RouteLatencyStats& cloud_lat = m.route(core::Route::kCloud);
    const std::int64_t dropped =
        cloud_routed - answered - m.offload_timeouts - m.deadline_expirations;
    std::printf("%-24s %8.2f %9.1f %9lld %9lld %9lld %12.3f %12.3f\n", s.name,
                100.0 * static_cast<double>(correct) / test.size(),
                cloud_routed == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(answered) / static_cast<double>(cloud_routed),
                static_cast<long long>(m.offload_timeouts),
                static_cast<long long>(m.deadline_expirations),
                static_cast<long long>(dropped < 0 ? 0 : dropped),
                1e3 * cloud_lat.p50_s, 1e3 * cloud_lat.p99_s);
  }

  std::printf("\nreading: a slow link behind a tight timeout or deadline degrades to\n");
  std::printf("the edge-only (null backend) accuracy instead of stalling the workers;\n");
  std::printf("retries buy back the accuracy a lossy link drops, priced purely in\n");
  std::printf("cloud-route latency. On the WiFi-timed link the upload time scales\n");
  std::printf("with payload bytes, so the congested cell inflates the cloud tail —\n");
  std::printf("and the 25ms deadline caps that tail at edge-parity accuracy.\n");
  std::printf("\n[ablation_offload_churn] done in %.1f s\n", sw.seconds());
  return 0;
}
