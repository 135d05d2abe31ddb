#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>

namespace meanet::runtime {

double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::min(1.0, std::max(0.0, p));
  // Nearest-rank: the smallest sample with at least p of the mass at or
  // below it; rank 1-based. The product p*n is snapped to the nearest
  // integer when it is within an ulp-scale epsilon of one, BEFORE the
  // ceil: 0.95 * 20 is 19.000000000000004 in IEEE doubles, and a bare
  // ceil turned that exact rank 19 into rank 20 — a whole-sample drift
  // on small sets (p99 of 100 samples read the max instead of the 99th).
  const double pos = clamped * static_cast<double>(sorted.size());
  const double snapped = std::nearbyint(pos);
  const double effective =
      std::abs(pos - snapped) <= 1e-9 * std::max(1.0, snapped) ? snapped : pos;
  const std::size_t rank = static_cast<std::size_t>(std::ceil(effective));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, p);
}

namespace {

// One table drives both counter_names() and to_value(): a scalar that
// exists in the struct but not here (or the reverse) cannot silently
// diverge between the documented list and the emitted tree.
struct ScalarField {
  const char* name;
  diag::Value (*get)(const SessionMetrics&);
};

const ScalarField kScalarFields[] = {
    {"submitted_instances", [](const SessionMetrics& m) { return diag::Value(m.submitted_instances); }},
    {"completed_instances", [](const SessionMetrics& m) { return diag::Value(m.completed_instances); }},
    {"cancelled_instances", [](const SessionMetrics& m) { return diag::Value(m.cancelled_instances); }},
    {"failed_instances", [](const SessionMetrics& m) { return diag::Value(m.failed_instances); }},
    {"deadline_expirations", [](const SessionMetrics& m) { return diag::Value(m.deadline_expirations); }},
    {"queue_depth_high_water", [](const SessionMetrics& m) { return diag::Value(m.queue_depth_high_water); }},
    {"admission_rejections", [](const SessionMetrics& m) { return diag::Value(m.admission_rejections); }},
    {"offload_dispatches", [](const SessionMetrics& m) { return diag::Value(m.offload_dispatches); }},
    {"offload_timeouts", [](const SessionMetrics& m) { return diag::Value(m.offload_timeouts); }},
    {"offload_failures", [](const SessionMetrics& m) { return diag::Value(m.offload_failures); }},
    {"starvation_promotions", [](const SessionMetrics& m) { return diag::Value(m.starvation_promotions); }},
    {"cell_busy_s", [](const SessionMetrics& m) { return diag::Value(m.cell_busy_s); }},
    {"cell_airtime_utilization",
     [](const SessionMetrics& m) { return diag::Value(m.cell_airtime_utilization); }},
};

diag::Value percentile_tree(std::int64_t count, double p50, double p95, double p99) {
  diag::Value v = diag::Value::object();
  v.set("count", count);
  v.set("p50_s", p50);
  v.set("p95_s", p95);
  v.set("p99_s", p99);
  return v;
}

}  // namespace

const std::vector<const char*>& SessionMetrics::counter_names() {
  static const std::vector<const char*> names = [] {
    std::vector<const char*> out;
    for (const ScalarField& field : kScalarFields) out.push_back(field.name);
    return out;
  }();
  return names;
}

diag::Value SessionMetrics::to_value() const {
  diag::Value v = diag::Value::object();
  for (const ScalarField& field : kScalarFields) v.set(field.name, field.get(*this));
  diag::Value routes = diag::Value::object();
  for (int r = 0; r < core::kNumRoutes; ++r) {
    const RouteLatencyStats& stats = per_route[static_cast<std::size_t>(r)];
    routes.set(core::route_name(static_cast<core::Route>(r)),
               percentile_tree(stats.count, stats.p50_s, stats.p95_s, stats.p99_s));
  }
  v.set("routes", std::move(routes));
  diag::Value waits = diag::Value::array();
  for (const PriorityWaitStats& stats : queue_wait_by_priority) {
    diag::Value row = diag::Value::object();
    row.set("priority", stats.priority);
    row.set("requests", stats.requests);
    row.set("p50_s", stats.p50_s);
    row.set("p95_s", stats.p95_s);
    row.set("p99_s", stats.p99_s);
    waits.push(std::move(row));
  }
  v.set("queue_wait_by_priority", std::move(waits));
  return v;
}

void SampleReservoir::add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // Algorithm R: replace a uniformly drawn slot with probability
  // capacity / seen, keeping the held set a uniform sample.
  const std::uint64_t j = next_random() % static_cast<std::uint64_t>(seen_);
  if (j < capacity_) samples_[static_cast<std::size_t>(j)] = value;
}

std::uint64_t SampleReservoir::next_random() {
  // splitmix64: tiny, seedable, and plenty for replacement draws.
  std::uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void MetricsCollector::record_submitted(std::int64_t instances) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.submitted_instances += instances;
}

void MetricsCollector::record_completion(core::Route route, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.completed_instances;
  auto& stats = counters_.per_route[static_cast<std::size_t>(route)];
  ++stats.count;
  samples_[static_cast<std::size_t>(route)].add(seconds);
}

void MetricsCollector::record_queue_wait(int priority, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = wait_samples_.find(priority);
  if (it == wait_samples_.end()) {
    it = wait_samples_
             .emplace(priority, SampleReservoir(SampleReservoir::kDefaultCapacity,
                                                static_cast<std::uint64_t>(priority) + 17))
             .first;
  }
  it->second.add(seconds);
}

void MetricsCollector::record_cancelled(std::int64_t instances) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.cancelled_instances += instances;
}

void MetricsCollector::record_failed(std::int64_t instances) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.failed_instances += instances;
}

void MetricsCollector::record_deadline_expired(std::int64_t instances) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.deadline_expirations += instances;
}

void MetricsCollector::record_admission_rejected(std::int64_t instances) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.admission_rejections += instances;
}

void MetricsCollector::record_offload_dispatch() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.offload_dispatches;
}

void MetricsCollector::record_offload_timeout(std::int64_t instances) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.offload_timeouts += instances;
}

void MetricsCollector::record_offload_failure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.offload_failures;
}

SessionMetrics MetricsCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionMetrics out = counters_;
  // One sorted copy per held set (bounded by the reservoir capacity),
  // three rank reads — the old code copied and re-sorted every set
  // once per percentile while holding the lock.
  std::vector<double> sorted;
  for (std::size_t r = 0; r < samples_.size(); ++r) {
    sorted = samples_[r].samples();
    std::sort(sorted.begin(), sorted.end());
    out.per_route[r].p50_s = sorted_percentile(sorted, 0.50);
    out.per_route[r].p95_s = sorted_percentile(sorted, 0.95);
    out.per_route[r].p99_s = sorted_percentile(sorted, 0.99);
  }
  out.queue_wait_by_priority.reserve(wait_samples_.size());
  for (const auto& [priority, waits] : wait_samples_) {
    sorted = waits.samples();
    std::sort(sorted.begin(), sorted.end());
    PriorityWaitStats stats;
    stats.priority = priority;
    stats.requests = waits.count();
    stats.p50_s = sorted_percentile(sorted, 0.50);
    stats.p95_s = sorted_percentile(sorted, 0.95);
    stats.p99_s = sorted_percentile(sorted, 0.99);
    out.queue_wait_by_priority.push_back(stats);
  }
  return out;
}

}  // namespace meanet::runtime
