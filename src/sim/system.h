// The full distributed inference system (paper Alg. 2 + Fig. 1) as one
// call: run_system() serves a dataset through a runtime::InferenceSession
// (model, routing, cost pricing and OffloadBackend all come from its
// EngineConfig) and folds the per-instance results into the report the
// benches consume.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.h"
#include "runtime/metrics.h"
#include "runtime/session.h"

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
  /// timeouts).
  runtime::SessionMetrics serving;
};

/// Runs Alg. 2 over `dataset` through one runtime::InferenceSession
/// built from `config` and folds its per-instance results into a
/// report. Throws std::invalid_argument on an empty dataset.
SystemReport run_system(runtime::EngineConfig config, const data::Dataset& dataset);

}  // namespace meanet::sim
