// OffloadBackend over the framed wire protocol: the first backend whose
// cloud is a different PROCESS (meanet_cloudd) rather than an in-memory
// sim node. Slots into the existing decorator stack unchanged —
// RetryingBackend(WireBackend) retries transient wire failures, the
// session's dispatcher/timeout machinery treats a thrown classify() as
// an unreachable cloud and keeps edge predictions.
//
// Virtual-clock note: wire I/O blocks the dispatcher thread outside any
// clock wait, so under a sim::VirtualClock the timeline simply stalls
// while a frame is in flight — wire RTT costs zero virtual time. The
// session's simulated SharedCell transfer model still prices the
// upload; the wire adds real-world delivery, not simulated airtime.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/offload_backend.h"
#include "wire/frame.h"

namespace meanet::wire {

struct WireBackendConfig {
  /// Unix-domain socket path of the meanet_cloudd to dial. Ignored when
  /// `transport_factory` is set.
  std::string socket_path;
  /// How long to keep retrying the initial connect (covers a daemon
  /// that is still starting up).
  double connect_timeout_s = 5.0;
  /// Bound on waiting for the response frame; kNoTimeout blocks, which
  /// under the session's own offload_timeout_s just means the worker
  /// gives up first and the late answer is dropped.
  double response_timeout_s = 30.0;
  FrameLimits limits;
  /// Test seam: dial through this instead of a real socket (e.g. one
  /// end of make_pipe(), optionally wrapped in FaultInjectingTransport).
  /// Called once per (re)connect.
  std::function<std::unique_ptr<Transport>()> transport_factory;
};

class WireBackend : public runtime::OffloadBackend {
 public:
  explicit WireBackend(WireBackendConfig config);
  ~WireBackend() override;

  /// Ships one offload-request frame and waits for the matching
  /// response. Throws WireError on any transport/protocol/remote
  /// failure — the session then keeps edge predictions for the batch.
  /// A failure drops the connection; the next classify() redials, and a
  /// failure on a REUSED connection is retried once on a fresh one (the
  /// daemon may have restarted between offloads).
  std::vector<int> classify(const runtime::OffloadPayload& payload) override;

  /// Always ships raw images: what meanet_cloudd's RawImageBackend serves.
  bool needs_images() const override { return true; }
  bool needs_features() const override { return false; }
  std::int64_t payload_bytes(const Shape& image_shape,
                             const Shape& feature_shape) const override;
  std::string describe() const override;

  /// Fetches the daemon process's full diagnostics registry snapshot
  /// (kStatsRequest) as a JSON document in schema
  /// diag::kSchemaVersion; connects on demand like classify().
  std::string fetch_diagnostics();

  /// Round-trips an empty kPing frame; throws WireError on failure.
  void ping();

  bool connected() const;

 private:
  std::unique_ptr<Transport>& ensure_connected();
  Frame roundtrip(Command command, const std::vector<std::uint8_t>& payload,
                  Command expected_reply);

  WireBackendConfig config_;

  // One in-flight exchange at a time: the session funnels every offload
  // through its single dispatcher thread already, but the backend must
  // not rely on that (fetch_diagnostics/ping may race classify).
  mutable std::mutex mutex_;
  std::unique_ptr<Transport> conn_;   // guarded by mutex_
  std::uint64_t next_request_id_ = 1;  // guarded by mutex_
};

}  // namespace meanet::wire
