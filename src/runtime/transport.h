// Simulated offload transport for the session's dispatcher thread.
//
// PR 2 modelled the cloud link as a fixed injected latency
// (LatencyInjectingBackend). PR 3 replaced that constant with a
// WiFi-derived upload time per payload (payload bytes / throughput,
// paper §IV-B) plus an optional base round-trip and seeded jitter. This
// PR adds the other two halves of the radio picture: a *downlink* model
// — the answer's bytes now cost transfer time on the way back, gating
// when the waiting worker sees it — and a *shared cell*
// (sim::SharedCell) several sessions attach to, contending for airtime.
//
// A SimulatedLink is one station's view of a cell. When
// TransportConfig::cell is set, the link attaches to that shared cell
// at construction (and detaches at destruction); otherwise it builds a
// private single-station cell from the config's wifi/downlink/latency
// fields — a plain config and an explicit one-station cell with the
// same parameters therefore produce identical timings by construction
// (asserted in tests/test_shared_cell.cpp). Every delay is a pure
// function of (seed, station, transfer key, bytes, direction, attached
// stations) — see sim/shared_cell.h — so same-seed runs are
// bit-identical at any worker count. Note the jitter *generator*
// changed in PR 5: PR 3 drew from a seeded Rng stream in dispatch
// order, this draws from a per-transfer hash, so a jittered experiment
// re-run at a PR 3 seed sees different (still seeded, still bounded)
// delay values than it did before PR 5.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/clock.h"
#include "sim/shared_cell.h"
#include "sim/wifi_model.h"

namespace meanet::runtime {

/// Link parameters applied by the offload dispatcher to every
/// dispatched payload: upload delay = wifi.upload_time_s(payload bytes)
/// + base_latency_s + U[0, jitter_s), and — new — a downlink delay for
/// the response computed the same way from the downlink model.
struct TransportConfig {
  /// Upload throughput / power model; the default is the paper's
  /// 18.88 Mb/s cell.
  sim::WifiModel wifi;
  /// Downlink throughput model for the response. Defaults to the same
  /// 18.88 Mb/s cell — answers are a few bytes, so the default downlink
  /// cost is microseconds, but it is no longer free and it scales with
  /// response_bytes_per_instance.
  sim::WifiModel downlink;
  /// Fixed round-trip floor (propagation + cloud compute), seconds,
  /// charged once per direction.
  double base_latency_s = 0.0;
  /// Width of the uniform jitter added per transfer, seconds. 0 = none.
  double jitter_s = 0.0;
  /// Seed of the jitter stream; the same seed reproduces the same
  /// per-transfer delays for the same transfer keys.
  std::uint64_t seed = 0x1f1ULL;
  /// Response payload priced per answered instance (a label plus
  /// framing). Multiplied by the payload's instance count to get the
  /// downlink transfer size; 0 restores PR 3's free answers.
  std::int64_t response_bytes_per_instance = 4;
  /// When set, this link is one station of the shared cell: delays use
  /// the cell's models and contention factor, and the wifi / downlink /
  /// base_latency_s / jitter_s / seed fields above are ignored. All
  /// sessions holding the same pointer contend for the same airtime.
  std::shared_ptr<sim::SharedCell> cell;
};

/// One station's transport endpoint, used by the session's offload
/// dispatcher. Thread-safe; delays are deterministic per (seed, station,
/// key, bytes, direction, attached stations).
class SimulatedLink {
 public:
  /// `clock` is the session's time source (null = the process
  /// WallClock): a private cell is built on it, and a shared cell must
  /// already be on the same clock instance (throws otherwise — two
  /// stations timing one medium on different clocks cannot contend
  /// coherently).
  explicit SimulatedLink(TransportConfig config,
                         std::shared_ptr<sim::Clock> clock = nullptr);
  ~SimulatedLink();

  SimulatedLink(const SimulatedLink&) = delete;
  SimulatedLink& operator=(const SimulatedLink&) = delete;

  /// Seconds the uplink is busy shipping `payload_bytes`, jitter keyed
  /// by `key` (the dispatcher keys by the payload's first result id, so
  /// a request's draw does not depend on dispatch interleaving).
  double uplink_delay_s(std::uint64_t key, std::int64_t payload_bytes);
  /// Seconds the downlink is busy returning `response_bytes`.
  double downlink_delay_s(std::uint64_t key, std::int64_t response_bytes);

  /// Full timed uplink occupancy on the cell: blocks the dispatcher for
  /// the transfer's simulated duration on the session clock (a
  /// scheduled event under a VirtualClock, a real wait under
  /// WallClock). `cancel` — re-checked on every wake — cuts the
  /// transfer short; signal it through poke().
  sim::TransferOutcome upload(std::uint64_t key, std::int64_t payload_bytes,
                              const std::function<bool()>& cancel = nullptr);
  /// The downlink counterpart for the response's bytes.
  sim::TransferOutcome download(std::uint64_t key, std::int64_t response_bytes,
                                const std::function<bool()>& cancel = nullptr);
  /// Wakes this link's in-flight transfers to re-check their cancel
  /// predicates (the abandonment flag lives under a ticket mutex the
  /// cell cannot see).
  void poke();

  /// Downlink transfer size for a payload of `instances` answers.
  std::int64_t response_bytes(std::int64_t instances) const {
    return config_.response_bytes_per_instance * instances;
  }

  const TransportConfig& config() const { return config_; }
  /// The cell this link transmits on (the shared one, or the private
  /// single-station cell built from a plain config) — the session's
  /// airtime metrics read it.
  const sim::SharedCell& cell() const { return *cell_; }
  /// This link's station id on the cell.
  int station() const { return station_; }

 private:
  TransportConfig config_;
  std::shared_ptr<sim::Clock> clock_;
  std::shared_ptr<sim::SharedCell> cell_;
  int station_ = 0;
};

}  // namespace meanet::runtime
