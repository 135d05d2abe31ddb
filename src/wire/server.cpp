#include "wire/server.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace meanet::wire {

namespace {

/// Requests coalesce only when their images share one row geometry
/// (the decoder guarantees rank-4 tensors).
bool batchable(const runtime::OffloadPayload& a, const runtime::OffloadPayload& b) {
  const std::vector<int>& x = a.images.shape().dims();
  const std::vector<int>& y = b.images.shape().dims();
  return std::equal(x.begin() + 1, x.end(), y.begin() + 1, y.end());
}

/// Concatenates same-row-geometry tensors along dim 0.
Tensor concat_rows(const std::vector<const Tensor*>& parts) {
  std::vector<int> dims = parts.front()->shape().dims();
  dims[0] = 0;
  for (const Tensor* t : parts) dims[0] += t->shape().dim(0);
  Tensor out{Shape(dims)};
  float* dst = out.data();
  for (const Tensor* t : parts) {
    std::memcpy(dst, t->data(), static_cast<std::size_t>(t->numel()) * sizeof(float));
    dst += t->numel();
  }
  return out;
}

}  // namespace

WireServer::WireServer(std::shared_ptr<runtime::OffloadBackend> backend,
                       WireServerConfig config)
    : backend_(std::move(backend)), config_(config) {
  if (!backend_) throw std::invalid_argument("WireServer: null backend");
  if (config_.max_batch_instances < 1) config_.max_batch_instances = 1;
  batch_thread_ = std::thread([this] { batch_loop(); });
  static std::atomic<std::uint64_t> next_server_id{0};
  diag_name_ = "wire_server/" + std::to_string(next_server_id.fetch_add(1));
  diag_registration_ = diag::ScopedRegistration(diag::DiagnosticRegistry::global(), this);
}

diag::Value WireServer::diag_snapshot() const {
  const WireServerStats s = stats();
  diag::Value v = diag::Value::object();
  if (!socket_path_.empty()) v.set("socket_path", socket_path_);
  diag::Value cfg = diag::Value::object();
  cfg.set("max_batch_instances", config_.max_batch_instances);
  v.set("config", std::move(cfg));
  v.set("connections_accepted", s.connections_accepted);
  v.set("connections_active", s.connections_active);
  v.set("frames_in", s.frames_in);
  v.set("frames_out", s.frames_out);
  v.set("requests_served", s.requests_served);
  v.set("instances_served", s.instances_served);
  v.set("batches", s.batches);
  v.set("cross_session_batches", s.cross_session_batches);
  v.set("protocol_errors", s.protocol_errors);
  v.set("backend_failures", s.backend_failures);
  diag::Value histogram = diag::Value::array();
  for (const std::uint64_t bucket : s.batch_size_histogram) histogram.push(bucket);
  v.set("batch_size_histogram", std::move(histogram));
  return v;
}

WireServer::~WireServer() { stop(); }

void WireServer::listen_unix(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::logic_error("WireServer: listen after stop");
    if (listener_) throw std::logic_error("WireServer: already listening");
  }
  listener_ = std::make_unique<UnixListener>(path);
  socket_path_ = path;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void WireServer::accept_loop() {
  while (true) {
    std::unique_ptr<Transport> conn = listener_->accept(0.25);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    if (conn) adopt(std::move(conn));
  }
}

void WireServer::adopt(std::unique_ptr<Transport> transport) {
  auto conn = std::make_shared<Connection>();
  conn->transport = std::move(transport);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      conn->transport->close();
      return;
    }
    conn->id = next_connection_id_++;
    connections_.push_back(conn);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      stats_.connections_accepted++;
      stats_.connections_active++;
    }
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void WireServer::reader_loop(std::shared_ptr<Connection> conn) {
  FrameLimits limits = config_.limits;
  limits.timeout_s = kNoTimeout;  // block until the connection closes
  while (true) {
    Frame frame;
    try {
      if (!read_frame(*conn->transport, frame, limits)) break;  // orderly goodbye
    } catch (const ProtocolError& e) {
      // A malformed frame poisons the stream (framing is lost), so the
      // connection is told why and dropped.
      reject_malformed(*conn, 0, e.what());
      break;
    } catch (const WireError&) {
      break;  // connection died (reset / truncated / closed during stop)
    }
    // An offload request counts in frames_in once it is queued (or
    // rejected), so whoever sees it counted knows the batch worker can
    // take it; every other frame counts on arrival.
    const auto count_frame_in = [this] {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      stats_.frames_in++;
    };
    if (frame.command != Command::kOffloadRequest) count_frame_in();
    switch (frame.command) {
      case Command::kOffloadRequest: {
        Pending pending;
        pending.conn = conn;
        pending.request_id = frame.request_id;
        try {
          pending.payload = decode_offload_request(frame.payload);
        } catch (const WireError& e) {
          count_frame_in();
          reject_malformed(*conn, frame.request_id, e.what());
          continue;  // payload was framed correctly; the stream is still good
        }
        pending.instances = pending.payload.images.shape().dim(0);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          pending_.push_back(std::move(pending));
          count_frame_in();
        }
        pending_cv_.notify_all();
        break;
      }
      case Command::kPing:
        send_frame(*conn, Frame{Command::kPong, frame.request_id, {}});
        break;
      case Command::kStatsRequest: {
        if (!frame.payload.empty()) {
          reject_malformed(*conn, frame.request_id, "stats request: payload must be empty");
          continue;  // framing is intact; only this request was bad
        }
        // The full process diagnostics registry (this server's tree
        // included) as one versioned JSON document.
        const std::string json = diag::DiagnosticRegistry::global().to_json();
        send_frame(*conn, Frame{Command::kStatsResponse, frame.request_id,
                                std::vector<std::uint8_t>(json.begin(), json.end())});
        break;
      }
      default:
        send_error(*conn, frame.request_id, ErrorCode::kUnknownCommand,
                   std::string("unexpected command: ") + command_name(frame.command));
        break;
    }
  }
  conn->transport->close();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(std::remove(connections_.begin(), connections_.end(), conn),
                       connections_.end());
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.connections_active--;
  }
}

void WireServer::batch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    pending_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    if (stopping_) return;
    // Work-conserving: serve now. Pop the oldest request plus every
    // batchable peer, capped at max_batch_instances (the front request
    // always goes, even alone or oversized); whatever arrives while
    // this group is served rides the next one.
    std::vector<Pending> group;
    group.push_back(std::move(pending_.front()));
    pending_.pop_front();
    std::int64_t taken = group.front().instances;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (taken + it->instances <= config_.max_batch_instances &&
          batchable(group.front().payload, it->payload)) {
        taken += it->instances;
        group.push_back(std::move(*it));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    serve_group(group);
    lock.lock();
  }
}

void WireServer::serve_group(std::vector<Pending>& group) {
  // Coalesce the group into one backend call (single-request groups
  // pass through without a copy).
  std::vector<int> predictions;
  bool failed = false;
  std::string failure;
  try {
    if (group.size() == 1) {
      predictions = backend_->classify(group.front().payload);
    } else {
      runtime::OffloadPayload combined;
      std::vector<const Tensor*> images;
      for (const Pending& p : group) images.push_back(&p.payload.images);
      combined.images = concat_rows(images);
      predictions = backend_->classify(combined);
    }
  } catch (const std::exception& e) {
    failed = true;
    failure = e.what();
  }
  std::int64_t total = 0;
  for (const Pending& p : group) total += p.instances;
  // An empty result is the backend's "unavailable" contract; a wrong
  // size would misroute labels across requests — both fail the group.
  if (!failed && static_cast<std::int64_t>(predictions.size()) != total) {
    failed = true;
    failure = predictions.empty() ? "backend unavailable" : "backend answered wrong count";
  }

  std::uint64_t distinct_conns = 0;
  std::uint64_t last_conn = 0;
  for (const Pending& p : group) {
    if (p.conn->id != last_conn) {
      distinct_conns++;
      last_conn = p.conn->id;
    }
  }
  // Counters commit BEFORE the replies go out: a client that has its
  // answer in hand must find the request already counted in any stats
  // snapshot it asks for next.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.batches++;
    if (distinct_conns > 1) stats_.cross_session_batches++;
    const std::size_t bucket =
        std::min(group.size(), stats_.batch_size_histogram.size() - 1);
    stats_.batch_size_histogram[bucket]++;
    if (failed) {
      stats_.backend_failures++;
    } else {
      stats_.requests_served += group.size();
      stats_.instances_served += static_cast<std::uint64_t>(total);
    }
  }

  std::size_t offset = 0;
  for (Pending& p : group) {
    if (failed) {
      send_error(*p.conn, p.request_id, ErrorCode::kBackendFailed, failure);
      continue;
    }
    const std::vector<int> slice(predictions.begin() + static_cast<std::ptrdiff_t>(offset),
                                 predictions.begin() +
                                     static_cast<std::ptrdiff_t>(offset + p.instances));
    offset += static_cast<std::size_t>(p.instances);
    send_frame(*p.conn,
               Frame{Command::kOffloadResponse, p.request_id, encode_offload_response(slice)});
  }
}

void WireServer::send_frame(Connection& conn, const Frame& frame) {
  try {
    std::lock_guard<std::mutex> write_lock(conn.write_mutex);
    write_frame(*conn.transport, frame);
  } catch (const WireError&) {
    return;  // the client vanished; its reader thread handles teardown
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.frames_out++;
}

void WireServer::send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                            const std::string& message) {
  send_frame(conn, Frame{Command::kError, request_id, encode_error(code, message)});
}

void WireServer::reject_malformed(Connection& conn, std::uint64_t request_id,
                                  const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.protocol_errors++;
  }
  send_error(conn, request_id, ErrorCode::kMalformedFrame, message);
}

WireServerStats WireServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void WireServer::stop() {
  std::vector<std::shared_ptr<Connection>> to_close;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    to_close = connections_;
  }
  pending_cv_.notify_all();
  if (listener_) listener_->close();
  for (const auto& conn : to_close) conn->transport->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (batch_thread_.joinable()) batch_thread_.join();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    readers.swap(readers_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
}

}  // namespace meanet::wire
