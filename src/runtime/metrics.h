// Session observability: counters and per-route service-latency
// percentiles for an InferenceSession, snapshotted via
// session.metrics().
//
// Latency accounting: every completed instance records its end-to-end
// latency — wall-clock from the submit() that accepted it to the moment
// its request settled, so queue wait, the edge pass, and the offload
// round-trip (or its timeout / deadline expiry) are all included. This
// is the latency a per-route deadline bounds. Percentiles are computed
// at snapshot time by nearest-rank over all recorded samples of a
// route.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "core/inference_policy.h"
#include "diag/value.h"

namespace meanet::runtime {

/// Latency distribution of one route's completed instances.
struct RouteLatencyStats {
  std::int64_t count = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// Queue-wait distribution (submit() -> entering a worker batch) of the
/// requests served at one priority level.
struct PriorityWaitStats {
  int priority = 0;
  std::int64_t requests = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// Point-in-time view of a session's counters. Plain data: safe to copy
/// out and diff across rounds.
struct SessionMetrics {
  /// Instances accepted by submit() (including run()'s chunks). Every
  /// accepted instance ends up in exactly one of completed_instances,
  /// cancelled_instances, or failed_instances.
  std::int64_t submitted_instances = 0;
  /// Instances with a settled result.
  std::int64_t completed_instances = 0;
  /// Instances of requests cancelled before their results settled
  /// (ResultHandle::cancel() won the race).
  std::int64_t cancelled_instances = 0;
  /// Instances of requests that failed with a worker error.
  std::int64_t failed_instances = 0;
  /// Completed instances whose routed deadline expired
  /// (EngineConfig::route_deadline_s / the per-submit override). A
  /// cloud-routed expiry keeps its edge prediction — distinct from
  /// offload_timeouts, which fire offload_timeout_s after dispatch;
  /// each instance is attributed to at most one of the two.
  std::int64_t deadline_expirations = 0;
  /// Most requests ever waiting in the bounded submit queue at once.
  std::int64_t queue_depth_high_water = 0;
  /// Instances rejected at submit() by deadline-aware admission: the
  /// estimated queue wait alone already exceeded every finite route
  /// deadline, so serving them could only produce expired results.
  /// Rejected instances are not counted in submitted_instances.
  std::int64_t admission_rejections = 0;

  /// Offload payloads handed to the dispatcher thread.
  std::int64_t offload_dispatches = 0;
  /// Instances that fell back to their edge prediction because the
  /// backend missed the offload timeout.
  std::int64_t offload_timeouts = 0;
  /// Dispatches whose backend threw or answered with the wrong shape.
  std::int64_t offload_failures = 0;

  /// Pops where the scheduler force-served the oldest waiting request
  /// because the starvation bound (EngineConfig::starvation_bound) was
  /// reached — the aging counter. Covers the worker queue and the
  /// offload dispatch queue.
  std::int64_t starvation_promotions = 0;

  /// Airtime charged on the session's (possibly shared) radio cell so
  /// far, in seconds, and that figure per wall-clock second of the
  /// cell's life. Utilization above ~1.0 means the attached stations
  /// jointly demand more airtime than the medium has — a saturated
  /// cell. Both 0 when the session has no cell (EngineConfig::cell).
  double cell_busy_s = 0.0;
  double cell_airtime_utilization = 0.0;

  /// Completed instances and latency percentiles per route, indexed by
  /// core::Route (use the accessors below).
  std::array<RouteLatencyStats, core::kNumRoutes> per_route{};

  /// Queue-wait percentiles of the served requests at each priority
  /// level that appeared, highest priority first. What the scheduler
  /// actually controls: under contention the high-priority rows should
  /// show the smaller tails.
  std::vector<PriorityWaitStats> queue_wait_by_priority;

  const RouteLatencyStats& route(core::Route route) const {
    return per_route[static_cast<std::size_t>(route)];
  }
  std::int64_t route_count(core::Route route) const { return this->route(route).count; }

  /// Queue-wait stats of one priority level; zeros when nothing was
  /// served at it.
  PriorityWaitStats priority_wait(int priority) const {
    for (const PriorityWaitStats& stats : queue_wait_by_priority) {
      if (stats.priority == priority) return stats;
    }
    return PriorityWaitStats{priority, 0, 0.0, 0.0, 0.0};
  }

  /// The metrics as a diag::Value tree — the shape an InferenceSession
  /// exports through the diagnostic registry (schema diag::
  /// kSchemaVersion). Every scalar in counter_names() appears as a
  /// top-level key; per-route percentiles live under "routes" keyed by
  /// core::route_name(), queue waits under "queue_wait_by_priority" as
  /// an array ordered highest priority first.
  diag::Value to_value() const;

  /// Names of every documented scalar counter in to_value()'s export,
  /// in emission order. The diag regression test walks this list, so a
  /// counter added to the struct without being wired into the export
  /// (or vice versa) fails loudly.
  static const std::vector<const char*>& counter_names();
};

/// Bounded, deterministic uniform sample of an unbounded stream
/// (Vitter's Algorithm R with a seeded splitmix64 replacement draw).
/// The first `capacity` values are kept verbatim; afterwards each new
/// value replaces a random held sample with probability capacity/seen,
/// so the held set stays a uniform sample of everything observed.
/// Memory is O(capacity) forever — the fix for the collector storing
/// every latency sample of a long-running serving process — and the
/// seeded draw makes percentile estimates reproducible for a given
/// record order.
class SampleReservoir {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SampleReservoir(std::size_t capacity = kDefaultCapacity, std::uint64_t seed = 0)
      : capacity_(capacity == 0 ? 1 : capacity), rng_state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}

  void add(double value);

  /// Values observed (not held) so far.
  std::int64_t count() const { return seen_; }
  /// Values currently held — never exceeds capacity().
  std::size_t size() const { return samples_.size(); }
  std::size_t capacity() const { return capacity_; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::uint64_t next_random();

  std::size_t capacity_;
  std::uint64_t rng_state_;
  std::int64_t seen_ = 0;
  std::vector<double> samples_;
};

/// Thread-safe accumulator behind SessionMetrics. Workers record raw
/// samples into bounded reservoirs; snapshot() sorts each held set
/// once and reads the three percentile ranks, so the hot path never
/// pays for order maintenance and a long-lived session's memory stays
/// O(routes + priorities), not O(requests).
class MetricsCollector {
 public:
  void record_submitted(std::int64_t instances);
  /// One completed instance: tallies the route and stores its
  /// end-to-end (submit -> settle) latency sample.
  void record_completion(core::Route route, double seconds);
  /// One request entering a worker batch after `seconds` in the queue,
  /// scheduled at `priority`.
  void record_queue_wait(int priority, double seconds);
  void record_cancelled(std::int64_t instances);
  void record_failed(std::int64_t instances);
  void record_deadline_expired(std::int64_t instances);
  void record_admission_rejected(std::int64_t instances);
  void record_offload_dispatch();
  void record_offload_timeout(std::int64_t instances);
  void record_offload_failure();

  /// Current counters with percentiles reduced from the samples.
  /// queue_depth_high_water, starvation_promotions and the cell
  /// airtime figures are owned by the session and left 0 here.
  SessionMetrics snapshot() const;

 private:
  mutable std::mutex mutex_;
  SessionMetrics counters_;  // percentiles stay empty until snapshot()
  std::array<SampleReservoir, core::kNumRoutes> samples_;
  // Queue-wait samples keyed by priority, highest first (the snapshot
  // order of queue_wait_by_priority). Reservoirs are seeded from the
  // priority so a rebuilt collector reproduces the same estimates.
  std::map<int, SampleReservoir, std::greater<int>> wait_samples_;
};

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample set; 0 for
/// an empty set. Exposed for the metrics tests. Copies and sorts —
/// fine for tests; snapshot paths sort once and use sorted_percentile.
double percentile(std::vector<double> samples, double p);

/// Nearest-rank percentile of an ALREADY ASCENDING-SORTED sample set;
/// 0 for an empty set. The O(1) read snapshot() uses after its single
/// per-set sort (the old code copied + re-sorted each set once per
/// percentile).
double sorted_percentile(const std::vector<double>& sorted, double p);

}  // namespace meanet::runtime
