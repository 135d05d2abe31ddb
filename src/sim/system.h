// The full distributed inference system (paper Alg. 2 + Fig. 1),
// now a thin aggregation shim over runtime::InferenceSession: EdgeNode
// supplies the model + routing + cost pricing, any OffloadBackend
// completes cloud-routed instances, and run() folds the per-instance
// results into the report the benches consume.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/offload_backend.h"
#include "runtime/transport.h"
#include "sim/clock.h"
#include "sim/cloud_node.h"
#include "sim/edge_node.h"

namespace meanet::sim {

struct SystemReport {
  // Accuracy.
  double accuracy = 0.0;
  double hard_class_accuracy = 0.0;
  // Routing.
  core::RouteCounts routes;
  double cloud_fraction = 0.0;  // the paper's beta
  // Edge-side energy (Fig. 8 quantities).
  double edge_compute_energy_j = 0.0;
  double communication_energy_j = 0.0;
  double edge_energy_j() const { return edge_compute_energy_j + communication_energy_j; }
  // Latency (seconds, summed over all instances).
  double edge_compute_time_s = 0.0;
  double communication_time_s = 0.0;
  // Per-instance outcome (prediction in global label space).
  std::vector<int> predictions;
  std::vector<core::Route> instance_routes;
  /// Which offload backend served the cloud route.
  std::string backend_description;
  /// Serving counters of the session that produced this report (queue
  /// depth high-water mark, per-route latency percentiles, offload
  /// timeouts, cache hits).
  runtime::SessionMetrics serving;
};

class DistributedSystem {
 public:
  /// Offload through any backend (runtime-selectable mode).
  DistributedSystem(EdgeNode edge, std::shared_ptr<runtime::OffloadBackend> backend);

  /// Raw-image offload; `cloud` may be null: the edge then answers every
  /// instance itself (its cloud-marked instances fall back to the
  /// main-exit prediction).
  DistributedSystem(EdgeNode edge, CloudNode* cloud);

  /// Times every offload payload over a simulated WiFi link (upload
  /// time from payload bytes, plus base RTT and seeded jitter) instead
  /// of the ideal instant link.
  void set_transport(runtime::TransportConfig transport) { transport_ = transport; }

  /// Per-route completion deadline in seconds from submission (see
  /// runtime::EngineConfig::route_deadline_s); a cloud-routed instance
  /// past its deadline keeps its edge prediction.
  void set_route_deadline_s(core::Route route, double seconds) {
    route_deadline_s_[static_cast<std::size_t>(route)] = seconds;
  }

  /// Per-route scheduling priority (see
  /// runtime::EngineConfig::route_priority): pending work and uploads
  /// are served highest priority first, earliest deadline next, arrival
  /// order last.
  void set_route_priority(core::Route route, int priority) {
    route_priority_[static_cast<std::size_t>(route)] = priority;
  }

  /// Aging bound of the priority scheduler (see
  /// runtime::EngineConfig::starvation_bound); 0 disables aging.
  void set_starvation_bound(int bound) { starvation_bound_ = bound; }

  /// Time source of the serving session run() builds (see
  /// runtime::EngineConfig::clock). Null (the default) = wall time;
  /// inject a sim::VirtualClock to run the scenario in virtual time.
  void set_clock(std::shared_ptr<Clock> clock) { clock_ = std::move(clock); }

  /// Runs Alg. 2 over the dataset and aggregates accuracy / energy;
  /// all `worker_threads` serve on the edge's one net.
  SystemReport run(const data::Dataset& dataset, int batch_size = 64, int worker_threads = 1);

  EdgeNode& edge() { return edge_; }
  const runtime::OffloadBackend& backend() const { return *backend_; }

 private:
  EdgeNode edge_;
  std::shared_ptr<runtime::OffloadBackend> backend_;
  std::optional<runtime::TransportConfig> transport_;
  std::array<double, core::kNumRoutes> route_deadline_s_{
      std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  std::array<int, core::kNumRoutes> route_priority_{0, 0, 0};
  int starvation_bound_ = 64;
  std::shared_ptr<Clock> clock_;
};

}  // namespace meanet::sim
