// Multi-tenant wire server: the in-process engine behind meanet_cloudd.
//
// Many client connections (edge sessions) are served concurrently; every
// connection's offload requests funnel into ONE shared pending queue,
// and a single batch worker coalesces whatever is waiting — across
// connections — into one backend classify() call per compatible group.
// That is the cloud-side dual of the paper's edge batching: a request
// that arrives while another session's offload is being gathered rides
// the same GPU-sized forward instead of paying its own. Responses are
// demultiplexed back to each request's own connection by request id.
//
// Batching policy: work-conserving, with no timed wait. Whenever the
// batch worker is free and a request is pending, it serves the oldest
// pending request plus every batchable peer that fits, capped at
// `max_batch_instances`. Requests coalesce only when they arrive while
// the previous batch is still running, so an idle daemon answers a
// lone request at once instead of holding it for company.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "diag/provider.h"
#include "diag/registry.h"
#include "runtime/offload_backend.h"
#include "wire/frame.h"
#include "wire/socket_transport.h"

namespace meanet::wire {

struct WireServerConfig {
  /// Most instances one coalesced batch carries (a larger request still
  /// goes, alone).
  int max_batch_instances = 32;
  /// Frame limits applied to every connection (timeout_s is ignored:
  /// reader threads block until their connection closes).
  FrameLimits limits;
};

/// Monotonic counters + batch-size histogram; a consistent snapshot is
/// returned by WireServer::stats() and exported through diag_snapshot()
/// (which kStatsRequest serves as part of the registry JSON).
struct WireServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  /// Frames read. An offload request counts once it is queued for the
  /// batch worker (or rejected as malformed).
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t instances_served = 0;
  std::uint64_t batches = 0;
  /// Batches whose requests came from more than one connection.
  std::uint64_t cross_session_batches = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t backend_failures = 0;
  /// histogram[k] = batches that carried k requests (index clamped to
  /// the vector's top bucket).
  std::vector<std::uint64_t> batch_size_histogram = std::vector<std::uint64_t>(17, 0);
};

class WireServer : public diag::DiagnosticProvider {
 public:
  /// `backend` answers the coalesced batches (typically a
  /// RawImageBackend over the daemon's CloudNode).
  WireServer(std::shared_ptr<runtime::OffloadBackend> backend, WireServerConfig config);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds a Unix-domain socket and starts the accept loop.
  void listen_unix(const std::string& path);

  /// Adopts an already-connected transport as one client connection
  /// (test seam: serve one end of make_pipe(), no sockets involved).
  void adopt(std::unique_ptr<Transport> conn);

  /// Stops accepting, closes every connection, joins all threads and
  /// flushes nothing — pending requests die with their connections.
  /// Idempotent; the destructor calls it.
  void stop();

  WireServerStats stats() const;
  const std::string& socket_path() const { return socket_path_; }

  // DiagnosticProvider: servers self-register as "wire_server/N" (N
  // counts up per process in construction order).
  std::string diag_name() const override { return diag_name_; }
  diag::Value diag_snapshot() const override;

 private:
  struct Connection {
    std::unique_ptr<Transport> transport;
    std::mutex write_mutex;  // reader thread (errors/pong) vs batch worker (responses)
    std::uint64_t id = 0;
  };
  struct Pending {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    runtime::OffloadPayload payload;
    std::int64_t instances = 0;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void batch_loop();
  /// Serves one compatible group with a single backend call and demuxes
  /// the predictions back per request.
  void serve_group(std::vector<Pending>& group);
  void send_frame(Connection& conn, const Frame& frame);
  void send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                  const std::string& message);
  /// Counts a protocol error and answers it with kMalformedFrame.
  void reject_malformed(Connection& conn, std::uint64_t request_id, const std::string& message);

  std::shared_ptr<runtime::OffloadBackend> backend_;
  WireServerConfig config_;

  std::unique_ptr<UnixListener> listener_;
  std::string socket_path_;
  std::thread accept_thread_;

  mutable std::mutex mutex_;  // connections, pending queue, stopping flag
  std::condition_variable pending_cv_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;
  std::deque<Pending> pending_;
  bool stopping_ = false;
  std::uint64_t next_connection_id_ = 1;

  /// Every stats_ access — accept/reader paths, the batch thread's
  /// commit, stats() — takes THIS lock and only this lock, so a
  /// concurrent stats() poller never races a mutation and never
  /// contends with the batch/pending queue either (it used to share
  /// mutex_ with both). Lock order: stats_mutex_ is a leaf — taken
  /// with mutex_ held in spots, never the reverse.
  mutable std::mutex stats_mutex_;
  WireServerStats stats_;  // guarded by stats_mutex_

  std::thread batch_thread_;

  // Last members: unregistered first at destruction (after ~WireServer
  // ran stop(), which leaves the object snapshot-safe throughout).
  std::string diag_name_;
  diag::ScopedRegistration diag_registration_;
};

}  // namespace meanet::wire
