// Composable OffloadBackend decorators for studying the cloud link
// under churn (ROADMAP "offload transport realism" item).
//
// Each decorator wraps any OffloadBackend and forwards its payload
// contract (needs_images / needs_features / payload_bytes), so chains
// compose freely around either offload mode:
//
//   auto flaky = std::make_shared<RetryingBackend>(
//       std::make_shared<LossyBackend>(
//           std::make_shared<LatencyInjectingBackend>(raw, 0.020), 0.3),
//       3);
//
// Decorators run on the session's offload dispatcher thread, so an
// injected latency delays (and, past the offload timeout, times out)
// cloud-routed instances without ever blocking the edge workers'
// non-cloud traffic.
#pragma once

#include <memory>
#include <mutex>

#include "runtime/offload_backend.h"
#include "sim/clock.h"
#include "util/rng.h"

namespace meanet::runtime {

/// Base decorator: forwards everything to the wrapped backend. Derive
/// and override classify() (and describe()) to perturb the link.
class BackendDecorator : public OffloadBackend {
 public:
  explicit BackendDecorator(std::shared_ptr<OffloadBackend> inner);

  std::vector<int> classify(const OffloadPayload& payload) override;
  bool needs_images() const override { return inner_->needs_images(); }
  bool needs_features() const override { return inner_->needs_features(); }
  std::int64_t payload_bytes(const Shape& image_shape,
                             const Shape& feature_shape) const override {
    return inner_->payload_bytes(image_shape, feature_shape);
  }
  std::string describe() const override { return inner_->describe(); }

 protected:
  OffloadBackend& inner() { return *inner_; }
  const OffloadBackend& inner() const { return *inner_; }

 private:
  std::shared_ptr<OffloadBackend> inner_;
};

/// Sleeps for a delay before every classify() — a fixed floor plus an
/// optional seeded uniform jitter — modelling the WiFi + cloud
/// round-trip the seed's backends answered instantly. Pair with
/// EngineConfig::offload_timeout_s to study the timeout -> edge-fallback
/// path. (For a link whose delay scales with the payload's byte size,
/// set EngineConfig::cell instead.)
class LatencyInjectingBackend : public BackendDecorator {
 public:
  /// `clock` times the injected sleep (null = the process WallClock).
  /// Under a sim::VirtualClock the delay is a scheduled event — it
  /// still gates the dispatcher and the offload timeout, but costs no
  /// wall time — which is what makes latency-heavy soak scenarios run
  /// in milliseconds.
  LatencyInjectingBackend(std::shared_ptr<OffloadBackend> inner, double latency_s,
                          double jitter_s = 0.0, std::uint64_t seed = 0x117e5ULL,
                          std::shared_ptr<sim::Clock> clock = nullptr);

  std::vector<int> classify(const OffloadPayload& payload) override;
  std::string describe() const override;

  double latency_s() const { return latency_s_; }
  double jitter_s() const { return jitter_s_; }

 private:
  double latency_s_;
  double jitter_s_;
  std::shared_ptr<sim::Clock> clock_;
  std::mutex rng_mutex_;
  util::Rng rng_;
};

/// Drops a classify() entirely (returns the "backend unavailable" empty
/// answer) with probability `loss_rate`, from a seeded deterministic
/// stream — the lossy uplink of a congested WiFi cell.
class LossyBackend : public BackendDecorator {
 public:
  LossyBackend(std::shared_ptr<OffloadBackend> inner, double loss_rate,
               std::uint64_t seed = 0x10551ULL);

  std::vector<int> classify(const OffloadPayload& payload) override;
  std::string describe() const override;

  double loss_rate() const { return loss_rate_; }

 private:
  double loss_rate_;
  std::mutex rng_mutex_;
  util::Rng rng_;
};

/// Re-sends a payload until the wrapped backend answers: a throw or an
/// empty reply consumes one attempt. After `max_attempts` the empty
/// answer propagates (the session falls back to the edge prediction).
/// An optional exponential backoff (backoff_s, 2*backoff_s, 4*...)
/// sleeps on the given clock between failed attempts.
class RetryingBackend : public BackendDecorator {
 public:
  RetryingBackend(std::shared_ptr<OffloadBackend> inner, int max_attempts);
  RetryingBackend(std::shared_ptr<OffloadBackend> inner, int max_attempts, double backoff_s,
                  std::shared_ptr<sim::Clock> clock = nullptr);

  std::vector<int> classify(const OffloadPayload& payload) override;
  std::string describe() const override;

  int max_attempts() const { return max_attempts_; }
  double backoff_s() const { return backoff_s_; }

 private:
  int max_attempts_;
  double backoff_s_ = 0.0;
  std::shared_ptr<sim::Clock> clock_;
};

}  // namespace meanet::runtime
