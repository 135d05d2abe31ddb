#include "sim/system.h"

#include <stdexcept>
#include <utility>

namespace meanet::sim {

SystemReport run_system(runtime::EngineConfig config, const data::Dataset& dataset) {
  if (dataset.size() == 0) throw std::invalid_argument("run_system: empty dataset");

  const data::ClassDict* dict = config.dict;  // the session rejects a null one
  runtime::InferenceSession session(std::move(config));
  const std::vector<runtime::InferenceResult> results = session.run(dataset);

  SystemReport report;
  report.backend_description = session.backend().describe();
  report.serving = session.metrics();
  report.predictions.reserve(results.size());
  report.instance_routes.reserve(results.size());
  std::int64_t correct = 0;
  std::int64_t hard_correct = 0, hard_total = 0;
  for (const runtime::InferenceResult& r : results) {
    const int label = dataset.labels[static_cast<std::size_t>(r.id)];
    report.predictions.push_back(r.prediction);
    report.instance_routes.push_back(r.route);
    if (r.prediction == label) ++correct;
    if (dict->is_hard(label)) {
      ++hard_total;
      if (r.prediction == label) ++hard_correct;
    }
    report.routes.add(r.route);
    report.edge_compute_energy_j += r.compute_energy_j;
    report.communication_energy_j += r.comm_energy_j;
    report.edge_compute_time_s += r.compute_time_s;
    report.communication_time_s += r.comm_time_s;
  }

  report.accuracy = static_cast<double>(correct) / static_cast<double>(dataset.size());
  report.hard_class_accuracy =
      hard_total == 0 ? 0.0 : static_cast<double>(hard_correct) / static_cast<double>(hard_total);
  report.cloud_fraction = report.routes.cloud_fraction();
  return report;
}

}  // namespace meanet::sim
