#include "sim/system.h"

#include <stdexcept>
#include <utility>

#include "runtime/session.h"

namespace meanet::sim {

DistributedSystem::DistributedSystem(EdgeNode edge,
                                     std::shared_ptr<runtime::OffloadBackend> backend)
    : edge_(std::move(edge)), backend_(std::move(backend)) {
  if (!backend_) throw std::invalid_argument("DistributedSystem: null backend");
}

DistributedSystem::DistributedSystem(EdgeNode edge, CloudNode* cloud)
    : DistributedSystem(std::move(edge),
                        cloud == nullptr
                            ? std::shared_ptr<runtime::OffloadBackend>(
                                  std::make_shared<runtime::NullBackend>())
                            : std::make_shared<runtime::RawImageBackend>(cloud)) {}

SystemReport DistributedSystem::run(const data::Dataset& dataset, int batch_size,
                                    int worker_threads) {
  if (dataset.size() == 0) throw std::invalid_argument("DistributedSystem::run: empty dataset");

  runtime::EngineConfig config;
  config.net = &edge_.engine().net();
  config.dict = &edge_.engine().dict();
  config.policy = edge_.engine().routing_ptr();
  config.backend = backend_;
  config.batch_size = batch_size;
  config.worker_threads = worker_threads;
  config.costs = edge_.costs();
  config.transport = transport_;
  config.route_deadline_s = route_deadline_s_;
  config.route_priority = route_priority_;
  config.starvation_bound = starvation_bound_;
  config.clock = clock_;
  runtime::InferenceSession session(std::move(config));
  const std::vector<runtime::InferenceResult> results = session.run(dataset);

  const data::ClassDict& dict = edge_.engine().dict();
  SystemReport report;
  report.backend_description = backend_->describe();
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
    if (dict.is_hard(label)) {
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
