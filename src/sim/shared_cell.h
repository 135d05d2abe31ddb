// A shared radio cell arbitrating uplink AND downlink airtime between
// every station attached to it (paper §IV-B generalized to multiple
// devices under one access point).
//
// The cell is the session's only link model: an InferenceSession whose
// EngineConfig::cell is set attaches to it as one station, and a
// session alone on a link is simply a cell with one station. Every
// transfer — an offload payload going up, its answer coming down —
// costs airtime, plus the base round-trip floor and a seeded jitter
// draw. Sharing is static: a transfer is charged the full rate divided
// by the number of *attached* stations (the congestion model
// WifiModel::congested exposes for a single link), computed once at
// reservation. Delays are a pure function of (cell seed, station id,
// transfer key, byte size, direction, attached stations) — the jitter
// comes from hashing, not a shared RNG stream — so same-seed runs see
// bit-identical delays at any worker count.
//
// Timing: the cell blocks transferring callers on its clock
// (SharedCellConfig::clock; null = the process WallClock) for the
// transfer's duration — scheduled events under a VirtualClock, real
// waits under WallClock — and a `cancel` predicate cuts an occupancy
// short (the sender abandoned mid-flight). Cancellation signals from
// outside the clock's wait/notify discipline must call poke().
//
// Airtime accounting: every transfer adds its duration (minus the
// base-latency floor, which models propagation + cloud compute, not
// medium occupancy) to busy_seconds() at reservation — *offered*
// airtime, an abandoned transfer still counts in full. utilization()
// divides by the cell's age on its own clock: above ~1.0 the attached
// stations jointly demand more airtime than the medium has — a
// saturated cell.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "diag/provider.h"
#include "diag/registry.h"
#include "sim/clock.h"
#include "sim/wifi_model.h"

namespace meanet::sim {

struct SharedCellConfig {
  /// Uplink throughput/power model of the whole cell; each attached
  /// station transfers at throughput / attached_stations.
  WifiModel uplink;
  /// Downlink model (answers coming back). Defaults to the same cell
  /// geometry as the uplink; responses are small, so with default
  /// payloads the added delay is microseconds — but it is no longer
  /// free, and it scales with the response's byte size.
  WifiModel downlink;
  /// Fixed round-trip floor (propagation + cloud compute), seconds,
  /// charged per transfer but not counted as airtime.
  double base_latency_s = 0.0;
  /// Width of the uniform jitter added per transfer, seconds. 0 = none.
  double jitter_s = 0.0;
  /// Seed of the jitter hash: the same seed reproduces the same
  /// per-transfer delays for the same (station, key, direction).
  std::uint64_t seed = 0x1f1ULL;
  /// Clock the cell times its transfers and utilization window on; null
  /// = the process WallClock. Every session transferring on the cell
  /// must share this clock (InferenceSession's constructor enforces it
  /// by pointer).
  std::shared_ptr<Clock> clock;
};

/// One completed (or cut-short) timed occupancy of the cell.
struct TransferOutcome {
  /// The transfer's nominal simulated delay, seconds: fair-share
  /// transfer time + jitter + base floor (in full even when cancelled).
  double delay_s = 0.0;
  /// True when `cancel` fired before the transfer finished.
  bool cancelled = false;
};

class SharedCell : public diag::DiagnosticProvider {
 public:
  explicit SharedCell(SharedCellConfig config);

  /// Registers a station (one InferenceSession's link) and returns its
  /// id. Ids count up from 0 in attach order and are never reused, so a
  /// deterministic attach order gives deterministic jitter streams.
  int attach();
  /// Deregisters a station; later transfers of the remaining stations
  /// see the smaller contention factor.
  void detach(int station);
  /// Stations currently sharing the cell (the static contention
  /// factor).
  int stations() const;

  /// Seconds station `station` occupies the uplink shipping `bytes`
  /// (fair-share transfer time + base RTT + one jitter draw keyed by
  /// `key`), charged at reservation.
  /// Deterministic: see the header comment.
  double uplink_delay_s(int station, std::uint64_t key, std::int64_t bytes);
  /// Same for a response of `bytes` coming down to `station`. The jitter
  /// draw is salted by direction, so an uplink and a downlink transfer
  /// with the same key do not share one.
  double downlink_delay_s(int station, std::uint64_t key, std::int64_t bytes);

  /// Performs a full timed uplink transfer on the cell's clock: charges
  /// uplink_delay_s() and blocks the caller for that long. `cancel` —
  /// checked at every wake — cuts the occupancy short; pair an
  /// out-of-band cancellation signal with poke().
  TransferOutcome uplink_transfer(int station, std::uint64_t key, std::int64_t bytes,
                                  const std::function<bool()>& cancel = nullptr);
  /// The downlink counterpart.
  TransferOutcome downlink_transfer(int station, std::uint64_t key, std::int64_t bytes,
                                    const std::function<bool()>& cancel = nullptr);

  /// Wakes every in-flight transfer to re-check its cancel predicate
  /// (for cancellation state guarded by mutexes the cell cannot see).
  void poke();

  /// Total airtime charged so far (upload + downlink transfer time and
  /// jitter, excluding the base-latency floor), seconds.
  double busy_seconds() const;
  /// busy_seconds() per second of the cell's age on its own clock.
  /// Above ~1.0 the stations jointly demand more airtime than one
  /// medium has: the cell is saturated. 0 when no time has elapsed yet
  /// (a cell created and polled within one virtual instant).
  double utilization() const;

  /// The resolved clock every attached session must share.
  const std::shared_ptr<Clock>& clock() const { return clock_; }

  // DiagnosticProvider: cells self-register as "cell/N" (N counts up
  // per process in construction order).
  std::string diag_name() const override { return diag_name_; }
  diag::Value diag_snapshot() const override;

 private:
  double delay_s(const WifiModel& model, int station, std::uint64_t key, std::int64_t bytes,
                 std::uint64_t direction_salt);
  /// The per-transfer jitter draw.
  double jitter_for(int station, std::uint64_t key, std::uint64_t direction_salt) const;
  /// Occupies the caller for `delay_s` as one transfer; `cancelled`
  /// when cancel fired first. Takes transfer_mutex_.
  TransferOutcome hold(double delay_s, const std::function<bool()>& cancel);

  SharedCellConfig config_;
  std::shared_ptr<Clock> clock_;
  mutable std::mutex mutex_;
  int next_station_ = 0;   // guarded by mutex_
  int attached_ = 0;       // guarded by mutex_
  double busy_s_ = 0.0;    // guarded by mutex_
  Clock::TimePoint created_;

  // Blocking-transfer state: what hold() waits on. Never held together
  // with mutex_.
  std::mutex transfer_mutex_;
  std::condition_variable transfer_cv_;
  std::uint64_t poke_epoch_ = 0;  // guarded by transfer_mutex_

  // Diagnostics. The registration is the LAST member, so it is torn
  // down FIRST: an in-flight registry snapshot blocks the unregister
  // until it finishes, and only then does the rest of the cell die.
  std::string diag_name_;
  diag::ScopedRegistration diag_registration_;
};

}  // namespace meanet::sim
