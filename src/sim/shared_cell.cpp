#include "sim/shared_cell.h"

#include <atomic>
#include <cmath>
#include <stdexcept>

namespace meanet::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, width) from a splitmix64 hash of (seed, key).
double hashed_jitter_s(std::uint64_t seed, std::uint64_t key, double width) {
  if (width <= 0.0) return 0.0;
  // Two mixing rounds so adjacent keys decorrelate; the top 53 bits give
  // a uniform double in [0, 1).
  const std::uint64_t mixed = splitmix64(splitmix64(seed) ^ key);
  const double unit = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  return unit * width;
}

}  // namespace

SharedCell::SharedCell(SharedCellConfig config)
    : config_(std::move(config)), clock_(resolve_clock(config_.clock)) {
  // Phrased so that NaN fails too: a NaN or infinite parameter makes a
  // delay NaN or infinite, and hold() would then wait forever.
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto non_negative = [](double v) { return std::isfinite(v) && v >= 0.0; };
  if (!positive(config_.uplink.throughput_mbps) || !positive(config_.downlink.throughput_mbps)) {
    throw std::invalid_argument("SharedCell: throughput must be finite and positive");
  }
  if (!non_negative(config_.base_latency_s) || !non_negative(config_.jitter_s)) {
    throw std::invalid_argument("SharedCell: latency and jitter must be finite and >= 0");
  }
  created_ = clock_->now();
  static std::atomic<std::uint64_t> next_cell_id{0};
  diag_name_ = "cell/" + std::to_string(next_cell_id.fetch_add(1));
  diag_registration_ =
      diag::ScopedRegistration(diag::DiagnosticRegistry::global(), this);
}

diag::Value SharedCell::diag_snapshot() const {
  diag::Value v = diag::Value::object();
  v.set("stations", stations());
  v.set("busy_s", busy_seconds());
  v.set("airtime_utilization", utilization());
  diag::Value cfg = diag::Value::object();
  cfg.set("uplink_mbps", config_.uplink.throughput_mbps);
  cfg.set("downlink_mbps", config_.downlink.throughput_mbps);
  cfg.set("base_latency_s", config_.base_latency_s);
  cfg.set("jitter_s", config_.jitter_s);
  v.set("config", std::move(cfg));
  return v;
}

int SharedCell::attach() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attached_;
  return next_station_++;
}

void SharedCell::detach(int station) {
  (void)station;  // ids are never reused; only the contention count drops
  std::lock_guard<std::mutex> lock(mutex_);
  if (attached_ > 0) --attached_;
}

int SharedCell::stations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attached_;
}

double SharedCell::jitter_for(int station, std::uint64_t key,
                              std::uint64_t direction_salt) const {
  const std::uint64_t salted =
      config_.seed ^ (static_cast<std::uint64_t>(station) * 0x9E3779B97F4A7C15ULL) ^
      direction_salt;
  return hashed_jitter_s(salted, key, config_.jitter_s);
}

double SharedCell::delay_s(const WifiModel& model, int station, std::uint64_t key,
                           std::int64_t bytes, std::uint64_t direction_salt) {
  const double jitter_s = jitter_for(station, key, direction_salt);
  // One critical section: the contention factor and the airtime charge
  // must agree on the station count.
  std::lock_guard<std::mutex> lock(mutex_);
  const double contention = attached_ > 1 ? static_cast<double>(attached_) : 1.0;
  const double transfer_s = model.upload_time_s(bytes) * contention;
  busy_s_ += transfer_s + jitter_s;  // the base floor is not airtime
  return transfer_s + jitter_s + config_.base_latency_s;
}

double SharedCell::uplink_delay_s(int station, std::uint64_t key, std::int64_t bytes) {
  return delay_s(config_.uplink, station, key, bytes, 0);
}

double SharedCell::downlink_delay_s(int station, std::uint64_t key, std::int64_t bytes) {
  // A fixed direction salt keeps an uplink and a downlink transfer with
  // the same key on independent jitter draws.
  return delay_s(config_.downlink, station, key, bytes, 0xD0D0D0D0D0D0D0D0ULL);
}

void SharedCell::poke() {
  {
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    ++poke_epoch_;
  }
  clock_->notify(transfer_cv_);
}

TransferOutcome SharedCell::hold(double delay_s, const std::function<bool()>& cancel) {
  const Clock::TimePoint deadline = Clock::after(clock_->now(), delay_s);
  std::unique_lock<std::mutex> lock(transfer_mutex_);
  while (true) {
    if (cancel && cancel()) return TransferOutcome{delay_s, true};
    if (clock_->now() >= deadline) return TransferOutcome{delay_s, false};
    // The wake on abandonment is the poke-epoch bump (cancel state
    // lives under mutexes the cell cannot see, so the epoch — guarded
    // by transfer_mutex_ — is what makes the wait race-free).
    const std::uint64_t seen = poke_epoch_;
    clock_->wait(lock, transfer_cv_, deadline,
                 [&] { return poke_epoch_ != seen || (cancel && cancel()); });
  }
}

TransferOutcome SharedCell::uplink_transfer(int station, std::uint64_t key, std::int64_t bytes,
                                            const std::function<bool()>& cancel) {
  return hold(uplink_delay_s(station, key, bytes), cancel);
}

TransferOutcome SharedCell::downlink_transfer(int station, std::uint64_t key,
                                              std::int64_t bytes,
                                              const std::function<bool()>& cancel) {
  return hold(downlink_delay_s(station, key, bytes), cancel);
}

double SharedCell::busy_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_s_;
}

double SharedCell::utilization() const {
  const double elapsed_s = Clock::seconds_between(created_, clock_->now());
  // Guard the zero-elapsed (and any clock-skew negative) window: a cell
  // created and polled within one virtual instant has demanded no
  // airtime per unit time yet.
  if (elapsed_s <= 0.0) return 0.0;
  return busy_seconds() / elapsed_s;
}

}  // namespace meanet::sim
