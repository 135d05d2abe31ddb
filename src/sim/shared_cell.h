// A shared radio cell arbitrating uplink AND downlink airtime between
// every station attached to it (paper §IV-B generalized to multiple
// devices under one access point).
//
// The cell is the session's only link model: an InferenceSession whose
// EngineConfig::cell is set attaches to it as one station, and a
// session alone on a link is simply a cell with one station. Every
// transfer — an offload payload going up, its answer coming down —
// costs airtime, plus the base round-trip floor and a seeded jitter
// draw. Two sharing models:
//
//  * Static share (default): a transfer is charged the full rate
//    divided by the number of *attached* stations (the congestion
//    model WifiModel::congested exposes for a single link), computed
//    once at reservation. Delays are a pure function of (cell seed,
//    station id, transfer key, byte size, direction, attached
//    stations) — the jitter comes from hashing, not a shared RNG
//    stream — so same-seed runs see bit-identical delays at any worker
//    count.
//
//  * Activity-dependent share (SharedCellConfig::
//    activity_dependent_sharing, the model PR 5 deferred): each
//    direction is a processor-sharing lane over the transfers
//    *instantaneously in flight* — a transfer alone on the lane moves
//    at the full rate no matter how many idle stations are attached,
//    and N concurrent transfers each progress at rate/N, re-settled on
//    every join/leave. Durations then depend on the overlap
//    trajectory: deterministic under a VirtualClock-driven seeded
//    scenario, approximate under WallClock. Jitter and the base floor
//    are appended after the shared phase, drawn from the same hash as
//    the static model.
//
// Timing: the cell blocks transferring callers on its clock
// (SharedCellConfig::clock; null = the process WallClock) for the
// transfer's duration — scheduled events under a VirtualClock, real
// waits under WallClock — and a `cancel` predicate cuts an occupancy
// short (the sender abandoned mid-flight). Cancellation signals from
// outside the clock's wait/notify discipline must call poke().
//
// Airtime accounting: every static-share transfer adds its duration
// (minus the base-latency floor, which models propagation + cloud
// compute, not medium occupancy) to busy_seconds() at reservation —
// *offered* airtime, an abandoned transfer still counts in full.
// Activity-dependent transfers charge the lane time they actually
// occupied (plus jitter on completion) — carried airtime. Either way
// utilization() divides by the cell's age on its own clock: above ~1.0
// the attached stations jointly demand more airtime than the medium
// has — a saturated cell.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "diag/provider.h"
#include "diag/registry.h"
#include "sim/clock.h"
#include "sim/wifi_model.h"

namespace meanet::sim {

struct SharedCellConfig {
  /// Uplink throughput/power model of the whole cell; each attached
  /// station transfers at throughput / attached_stations (static
  /// share) or throughput / concurrent transfers (activity-dependent).
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
  /// Fair-share over *instantaneously transmitting* stations instead of
  /// the static attached-station split — see the header comment. Off by
  /// default: the static model stays the oracle the existing suites
  /// pin down.
  bool activity_dependent_sharing = false;
  /// Clock the cell times its transfers and utilization window on; null
  /// = the process WallClock. Every session transferring on the cell
  /// must share this clock (InferenceSession's constructor enforces it
  /// by pointer).
  std::shared_ptr<Clock> clock;
};

/// One completed (or cut-short) timed occupancy of the cell.
struct TransferOutcome {
  /// The transfer's nominal simulated delay, seconds: share phase +
  /// jitter + base floor. For a cancelled activity-dependent transfer
  /// this is the time actually occupied before the abandonment.
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
  /// under the *static* model (fair-share transfer time + base RTT +
  /// one jitter draw keyed by `key`), charged at reservation.
  /// Deterministic: see the header comment.
  double uplink_delay_s(int station, std::uint64_t key, std::int64_t bytes);
  /// Same for a response of `bytes` coming down to `station`. The jitter
  /// draw is salted by direction, so an uplink and a downlink transfer
  /// with the same key do not share one.
  double downlink_delay_s(int station, std::uint64_t key, std::int64_t bytes);

  /// Performs a full timed uplink transfer on the cell's clock: blocks
  /// the caller for the transfer's simulated duration (static share,
  /// or the processor-sharing lane when activity_dependent_sharing is
  /// set). `cancel` — checked at every wake — cuts the occupancy
  /// short; pair an out-of-band cancellation signal with poke().
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

  const SharedCellConfig& config() const { return config_; }
  /// The resolved clock every attached session must share.
  const std::shared_ptr<Clock>& clock() const { return clock_; }

  // DiagnosticProvider: cells self-register as "cell/N" (N counts up
  // per process in construction order).
  std::string diag_name() const override { return diag_name_; }
  diag::Value diag_snapshot() const override;

 private:
  /// One direction's processor-sharing state: in-flight transfers and
  /// the solo-seconds each still needs. Guarded by transfer_mutex_.
  struct Lane {
    std::map<std::uint64_t, double> remaining_s;  // flow id -> solo-seconds left
    Clock::TimePoint last_settle{};
    std::uint64_t next_flow = 0;
    std::uint64_t epoch = 0;  // bumped on every join/leave
  };

  double delay_s(const WifiModel& model, int station, std::uint64_t key, std::int64_t bytes,
                 std::uint64_t direction_salt);
  /// The per-transfer jitter draw both sharing models use.
  double jitter_for(int station, std::uint64_t key, std::uint64_t direction_salt) const;
  TransferOutcome transfer(Lane& lane, const WifiModel& model, int station, std::uint64_t key,
                           std::int64_t bytes, std::uint64_t direction_salt,
                           const std::function<bool()>& cancel);
  /// Occupies the caller for `delay_s` on the clock; false when cancel
  /// fired first. Takes transfer_mutex_.
  bool hold(double delay_s, const std::function<bool()>& cancel);
  /// Accrues lane progress up to `now` (each in-flight transfer
  /// advanced by dt / concurrency). Caller holds transfer_mutex_.
  static void settle_lane(Lane& lane, Clock::TimePoint now);

  SharedCellConfig config_;
  std::shared_ptr<Clock> clock_;
  mutable std::mutex mutex_;
  int next_station_ = 0;   // guarded by mutex_
  int attached_ = 0;       // guarded by mutex_
  double busy_s_ = 0.0;    // guarded by mutex_
  Clock::TimePoint created_;

  // Blocking-transfer state. transfer_mutex_ may acquire mutex_ (to
  // charge airtime) but never the reverse.
  std::mutex transfer_mutex_;
  std::condition_variable transfer_cv_;
  std::uint64_t poke_epoch_ = 0;  // guarded by transfer_mutex_
  Lane uplink_lane_, downlink_lane_;

  // Diagnostics. The registration is the LAST member, so it is torn
  // down FIRST: an in-flight registry snapshot blocks the unregister
  // until it finishes, and only then does the rest of the cell die.
  std::string diag_name_;
  diag::ScopedRegistration diag_registration_;
};

}  // namespace meanet::sim
