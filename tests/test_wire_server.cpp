// Wire server + WireBackend integration: parity of a full
// InferenceSession over a real Unix socket vs the in-process backend,
// cross-session batch coalescing, frame-fault fallbacks, reconnect
// after a daemon restart, connection-churn hygiene, and a row-sharded
// cloud that fails one malformed batch without taking the server down.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "core/builders.h"
#include "core/trainer.h"
#include "diag/registry.h"
#include "diag/value.h"
#include "runtime/session.h"
#include "sim/cloud_node.h"
#include "sim/shared_cell.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tiny_models.h"
#include "util/rng.h"
#include "wire/fault_transport.h"
#include "wire/process.h"
#include "wire/server.h"
#include "wire/socket_transport.h"
#include "wire/wire_backend.h"

namespace meanet::wire {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;

std::string test_socket_path(const char* tag) {
  return ::testing::TempDir() + "/meanet_" + tag + std::to_string(::getpid()) + ".sock";
}

/// Deterministic modelless backend: each instance's label is its first
/// pixel, rounded — lets integrity tests assert exactly which client's
/// rows produced which answers without training anything.
class PixelLabelBackend : public runtime::OffloadBackend {
 public:
  std::vector<int> classify(const runtime::OffloadPayload& payload) override {
    calls_.fetch_add(1);
    const Tensor& images = payload.images;
    const std::int64_t rows = images.shape().dim(0);
    const std::int64_t row_elems = images.numel() / rows;
    std::vector<int> labels;
    labels.reserve(static_cast<std::size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r) {
      labels.push_back(static_cast<int>(std::lround(images.data()[r * row_elems])));
    }
    return labels;
  }
  bool needs_images() const override { return true; }
  std::int64_t payload_bytes(const Shape&, const Shape&) const override { return 0; }
  std::string describe() const override { return "pixel-label"; }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

class ThrowingBackend : public runtime::OffloadBackend {
 public:
  std::vector<int> classify(const runtime::OffloadPayload&) override {
    throw std::runtime_error("cloud model exploded");
  }
  bool needs_images() const override { return true; }
  std::int64_t payload_bytes(const Shape&, const Shape&) const override { return 0; }
  std::string describe() const override { return "throwing"; }
};

Tensor instance_with_pixel(float value) {
  Tensor t{Shape{1, 2, 4, 4}, 0.0f};
  t.data()[0] = value;
  return t;
}

/// Polls `predicate` until it holds or ~2s pass.
template <typename Fn>
bool eventually(Fn&& predicate) {
  for (int i = 0; i < 200; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

/// Reads the unsigned counter `field` of the first provider whose name
/// starts with `provider` out of a registry JSON snapshot (what
/// kStatsRequest serves).
std::uint64_t snapshot_counter(const std::string& snapshot, const std::string& provider,
                               const std::string& field) {
  const std::size_t at = snapshot.find("\"" + provider);
  const std::size_t key =
      at == std::string::npos ? at : snapshot.find("\"" + field + "\"", at);
  const std::size_t digits =
      key == std::string::npos ? key : snapshot.find_first_of("0123456789", key);
  if (digits == std::string::npos) {
    ADD_FAILURE() << "no " << provider << "*." << field << " in " << snapshot;
    return 0;
  }
  return std::strtoull(snapshot.c_str() + digits, nullptr, 10);
}

// ---- Direct WireBackend <-> WireServer over pipes and sockets ----

TEST(WireServer, ServesPingStatsAndClassifyOverPipe) {
  auto backend = std::make_shared<PixelLabelBackend>();
  WireServer server(backend, WireServerConfig{});

  WireBackendConfig client_config;
  client_config.transport_factory = [&server] {
    PipePair pipe = make_pipe();
    server.adopt(std::move(pipe.second));
    return std::move(pipe.first);
  };
  WireBackend client(client_config);
  client.ping();

  runtime::OffloadPayload payload;
  payload.images = instance_with_pixel(3.0f);
  EXPECT_EQ(client.classify(payload), std::vector<int>{3});

  const std::string snapshot = client.fetch_diagnostics();
  EXPECT_TRUE(diag::json_well_formed(snapshot)) << snapshot;
  // ping + classify at least
  EXPECT_GE(snapshot_counter(snapshot, "wire_server/", "frames_in"), 2u);
  server.stop();
}

// A stats request carries no payload. One that does is answered with
// kMalformedFrame and counted, and the connection keeps serving.
TEST(WireServer, MalformedStatsRequestIsRejectedAndConnectionSurvives) {
  WireServer server(std::make_shared<PixelLabelBackend>(), WireServerConfig{});
  PipePair pipe = make_pipe();
  server.adopt(std::move(pipe.second));
  Transport& client = *pipe.first;
  const std::uint64_t errors_before = server.stats().protocol_errors;

  Frame reply;
  write_frame(client, Frame{Command::kStatsRequest, 5, {1, 2, 3}});
  ASSERT_TRUE(read_frame(client, reply));
  EXPECT_EQ(reply.command, Command::kError);
  EXPECT_EQ(reply.request_id, 5u);
  EXPECT_EQ(decode_error(reply.payload).first, ErrorCode::kMalformedFrame);
  EXPECT_EQ(server.stats().protocol_errors, errors_before + 1);

  runtime::OffloadPayload payload;
  payload.images = instance_with_pixel(3.0f);
  write_frame(client, Frame{Command::kOffloadRequest, 6, encode_offload_request(payload)});
  ASSERT_TRUE(read_frame(client, reply));
  EXPECT_EQ(reply.command, Command::kOffloadResponse);
  EXPECT_EQ(reply.request_id, 6u);
  EXPECT_EQ(decode_offload_response(reply.payload), std::vector<int>{3});

  write_frame(client, Frame{Command::kStatsRequest, 7, {}});
  ASSERT_TRUE(read_frame(client, reply));
  EXPECT_EQ(reply.command, Command::kStatsResponse);
  EXPECT_EQ(reply.request_id, 7u);
  const std::string snapshot(reply.payload.begin(), reply.payload.end());
  EXPECT_TRUE(diag::json_well_formed(snapshot)) << snapshot;
  EXPECT_EQ(server.stats().protocol_errors, errors_before + 1);
  client.close();
  server.stop();
}

/// PixelLabelBackend whose first classify() call blocks until open():
/// it holds the batch worker busy so the requests that arrive meanwhile
/// queue up and coalesce into the next batch.
class GatedBackend : public PixelLabelBackend {
 public:
  std::vector<int> classify(const runtime::OffloadPayload& payload) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!entered_) {
        entered_ = true;
        changed_.notify_all();
        changed_.wait(lock, [&] { return open_; });
      }
    }
    return PixelLabelBackend::classify(payload);
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return entered_; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool entered_ = false, open_ = false;
};

TEST(WireServer, CoalescesTwoClientsIntoOneCrossSessionBatch) {
  // A first request holds the batch worker in the gated backend until
  // single-instance requests from two more connections are queued; the
  // work-conserving worker must then serve those two as one batch.
  auto backend = std::make_shared<GatedBackend>();
  WireServer server(backend, WireServerConfig{});
  const std::string path = test_socket_path("xsession");
  server.listen_unix(path);

  auto run_client = [&path](float pixel, std::vector<int>& out) {
    WireBackendConfig cfg;
    cfg.socket_path = path;
    WireBackend client(cfg);
    runtime::OffloadPayload payload;
    payload.images = instance_with_pixel(pixel);
    out = client.classify(payload);
  };
  std::vector<int> got_gate, got_a, got_b;
  std::thread gate([&] { run_client(0.0f, got_gate); });
  backend->wait_entered();
  std::thread a([&] { run_client(1.0f, got_a); });
  std::thread b([&] { run_client(2.0f, got_b); });
  EXPECT_TRUE(eventually([&] { return server.stats().frames_in >= 3u; }));
  backend->open();
  gate.join();
  a.join();
  b.join();

  // Per-client integrity: each client gets the label of ITS pixel back,
  // even though two rode one backend call.
  EXPECT_EQ(got_gate, std::vector<int>{0});
  EXPECT_EQ(got_a, std::vector<int>{1});
  EXPECT_EQ(got_b, std::vector<int>{2});
  EXPECT_EQ(backend->calls(), 2);  // the gate's, then the pair's

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.cross_session_batches, 1u);
  EXPECT_EQ(stats.batches, 2u);
  ASSERT_GT(stats.batch_size_histogram.size(), 2u);
  EXPECT_EQ(stats.batch_size_histogram[1], 1u);  // the gate's request alone
  EXPECT_EQ(stats.batch_size_histogram[2], 1u);  // one batch of 2 requests
  EXPECT_EQ(stats.instances_served, 3u);
  server.stop();
}

TEST(WireServer, RemoteBackendFailureSurfacesAsWireError) {
  WireServer server(std::make_shared<ThrowingBackend>(), WireServerConfig{});
  const std::string path = test_socket_path("throw");
  server.listen_unix(path);

  WireBackendConfig cfg;
  cfg.socket_path = path;
  WireBackend client(cfg);
  runtime::OffloadPayload payload;
  payload.images = instance_with_pixel(1.0f);
  EXPECT_THROW(client.classify(payload), WireError);
  EXPECT_TRUE(eventually([&] { return server.stats().backend_failures >= 1u; }));
  server.stop();
}

// A 2-channel upload to a 3-channel cloud throws inside a pool shard of
// the width-4 CloudNode; the request must fail over the wire (not kill
// the server) and the next valid request must be answered.
TEST(WireServer, WrongGeometryBatchFailsAndServerSurvives) {
  util::Rng rng(41);
  sim::CloudNode cloud(core::build_cloud_classifier(3, 4, rng), 4);
  WireServer server(std::make_shared<runtime::RawImageBackend>(&cloud), WireServerConfig{});
  const std::string path = test_socket_path("geometry");
  server.listen_unix(path);

  WireBackendConfig cfg;
  cfg.socket_path = path;
  WireBackend client(cfg);
  util::Rng data_rng(42);
  runtime::OffloadPayload wrong;
  wrong.images = Tensor::normal(Shape{64, 2, 4, 4}, data_rng);
  EXPECT_THROW(client.classify(wrong), WireError);
  EXPECT_TRUE(eventually([&] { return server.stats().backend_failures == 1u; }));

  runtime::OffloadPayload valid;
  valid.images = Tensor::normal(Shape{64, 3, 4, 4}, data_rng);
  EXPECT_EQ(client.classify(valid),
            ops::row_argmax(cloud.model().forward(valid.images, nn::Mode::kEval)));
  EXPECT_EQ(server.stats().backend_failures, 1u);
  server.stop();
}

TEST(WireServer, GarbageStreamGetsErrorAndDisconnect) {
  WireServer server(std::make_shared<PixelLabelBackend>(), WireServerConfig{});
  const std::string path = test_socket_path("garbage");
  server.listen_unix(path);

  std::unique_ptr<Transport> raw = connect_unix(path);
  const std::string garbage = "this is definitely not a MWIR frame....";
  raw->write_all(reinterpret_cast<const std::uint8_t*>(garbage.data()), garbage.size());
  Frame reply;
  ASSERT_TRUE(read_frame(*raw, reply));
  EXPECT_EQ(reply.command, Command::kError);
  EXPECT_EQ(decode_error(reply.payload).first, ErrorCode::kMalformedFrame);
  // The poisoned connection is then closed from the server side.
  EXPECT_FALSE(read_frame(*raw, reply));
  EXPECT_TRUE(eventually([&] { return server.stats().connections_active == 0u; }));
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.stop();
}

TEST(WireServer, ReconnectsAfterServerRestart) {
  const std::string path = test_socket_path("restart");
  auto backend = std::make_shared<PixelLabelBackend>();
  WireBackendConfig cfg;
  cfg.socket_path = path;
  cfg.connect_timeout_s = 2.0;
  WireBackend client(cfg);
  runtime::OffloadPayload payload;
  payload.images = instance_with_pixel(4.0f);

  auto server1 = std::make_unique<WireServer>(backend, WireServerConfig{});
  server1->listen_unix(path);
  EXPECT_EQ(client.classify(payload), std::vector<int>{4});
  server1.reset();  // daemon "crashes"; the client's connection is stale

  auto server2 = std::make_unique<WireServer>(backend, WireServerConfig{});
  server2->listen_unix(path);
  // The stale connection fails on use; WireBackend redials transparently.
  EXPECT_EQ(client.classify(payload), std::vector<int>{4});
  server2.reset();
}

TEST(WireServer, ConnectionChurnLeavesNothingBehind) {
  auto backend = std::make_shared<PixelLabelBackend>();
  WireServer server(backend, WireServerConfig{});
  const std::string path = test_socket_path("churn");
  server.listen_unix(path);

  constexpr int kRounds = 12;
  for (int i = 0; i < kRounds; ++i) {
    WireBackendConfig cfg;
    cfg.socket_path = path;
    WireBackend client(cfg);
    if (i % 2 == 0) {
      client.ping();
    } else {
      runtime::OffloadPayload payload;
      payload.images = instance_with_pixel(static_cast<float>(i));
      EXPECT_EQ(client.classify(payload), std::vector<int>{i});
    }
  }
  EXPECT_TRUE(eventually([&] { return server.stats().connections_active == 0u; }));
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kRounds));
  server.stop();
  EXPECT_EQ(server.stats().connections_active, 0u);
}

// ---- Stale-connection retry and response demultiplexing ----

/// Wraps a transport so reads turn glacial once `fast_bytes` have been
/// read: each later read sleeps, then yields at most one byte. The
/// response still arrives — just slower than any response timeout —
/// which is exactly the stale-connection shape WireBackend must retry:
/// the server consumed and answered the request, but the answer cannot
/// be read in time. Also records the request id of every frame written
/// through it so the test can assert the retry used a FRESH id.
class GlacialReadTransport final : public Transport {
 public:
  GlacialReadTransport(std::unique_ptr<Transport> inner, std::uint64_t fast_bytes,
                       double per_read_delay_s, std::shared_ptr<std::vector<std::uint64_t>> ids)
      : inner_(std::move(inner)),
        fast_bytes_(fast_bytes),
        delay_s_(per_read_delay_s),
        ids_(std::move(ids)) {}

  std::size_t read_some(std::uint8_t* buf, std::size_t max, double timeout_s) override {
    if (read_ >= fast_bytes_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_s_));
      max = 1;
    }
    const std::size_t n = inner_->read_some(buf, max, timeout_s);
    read_ += n;
    return n;
  }

  void write_all(const std::uint8_t* data, std::size_t size) override {
    if (size >= kFrameHeaderBytes) {  // frames are written whole
      std::uint64_t id = 0;
      std::memcpy(&id, data + 8, sizeof(id));  // magic + version + command
      ids_->push_back(id);
    }
    inner_->write_all(data, size);
  }

  void close() override { inner_->close(); }
  std::string describe() const override { return "glacial(" + inner_->describe() + ")"; }

 private:
  std::unique_ptr<Transport> inner_;
  std::uint64_t fast_bytes_;
  double delay_s_;
  std::shared_ptr<std::vector<std::uint64_t>> ids_;
  std::uint64_t read_ = 0;
};

TEST(WireRetry, TimedOutResponseIsRetriedOnceWithAFreshRequestId) {
  auto backend = std::make_shared<PixelLabelBackend>();
  WireServer server(backend, WireServerConfig{});

  auto ids = std::make_shared<std::vector<std::uint64_t>>();
  int dials = 0;
  WireBackendConfig cfg;
  cfg.response_timeout_s = 0.25;
  cfg.transport_factory = [&server, &dials, ids]() -> std::unique_ptr<Transport> {
    PipePair pipe = make_pipe();
    server.adopt(std::move(pipe.second));
    if (++dials == 1) {
      // The ping's header-only pong (kFrameHeaderBytes) reads at full
      // speed; every later response crawls one byte per read, slower
      // than the 0.25 s response timeout.
      return std::make_unique<GlacialReadTransport>(std::move(pipe.first),
                                                    /*fast_bytes=*/kFrameHeaderBytes,
                                                    /*per_read_delay_s=*/0.08, ids);
    }
    return std::make_unique<GlacialReadTransport>(std::move(pipe.first),
                                                  /*fast_bytes=*/kNoFault,
                                                  /*per_read_delay_s=*/0.0, ids);
  };
  WireBackend client(cfg);
  client.ping();  // establishes connection 1, which is then stale-on-use
  ASSERT_TRUE(client.connected());

  // The server answers the first classify promptly, but the client
  // cannot read the response before its timeout: WireBackend must
  // close, redial, and retry — and the caller sees exactly ONE answer.
  runtime::OffloadPayload payload;
  payload.images = instance_with_pixel(6.0f);
  EXPECT_EQ(client.classify(payload), std::vector<int>{6});
  EXPECT_EQ(dials, 2);

  // ping + timed-out classify on connection 1, retried classify on
  // connection 2 — and the retry carried a fresh (larger) request id,
  // so the abandoned exchange can never satisfy it.
  ASSERT_EQ(ids->size(), 3u);
  EXPECT_GT((*ids)[2], (*ids)[1]);

  // The daemon served BOTH copies of the request (it cannot know the
  // first answer was abandoned) as two single-connection batches.
  EXPECT_TRUE(eventually([&] { return server.stats().requests_served == 2u; }));
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.instances_served, 2u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.cross_session_batches, 0u);
  EXPECT_EQ(backend->calls(), 2);

  // The fresh connection is healthy: later exchanges are undisturbed.
  payload.images = instance_with_pixel(9.0f);
  EXPECT_EQ(client.classify(payload), std::vector<int>{9});
  server.stop();
}

TEST(WireRetry, ResponsesAreDemuxedByRequestIdNotArrivalOrder) {
  PipePair pipe = make_pipe();
  auto client_end = std::make_shared<std::unique_ptr<Transport>>(std::move(pipe.first));
  WireBackendConfig cfg;
  cfg.transport_factory = [client_end] { return std::move(*client_end); };
  WireBackend client(cfg);

  // Hand-rolled server: answer with a stale response (foreign request
  // id) FIRST, then the genuine one. A client that trusted arrival
  // order would hand the caller the stale labels.
  std::unique_ptr<Transport> server_end = std::move(pipe.second);
  std::thread impostor([&server_end] {
    Frame request;
    if (!read_frame(*server_end, request)) return;
    Frame stale;
    stale.command = Command::kOffloadResponse;
    stale.request_id = request.request_id + 7;
    stale.payload = encode_offload_response(std::vector<int>{99});
    write_frame(*server_end, stale);
    Frame genuine;
    genuine.command = Command::kOffloadResponse;
    genuine.request_id = request.request_id;
    genuine.payload = encode_offload_response(std::vector<int>{5});
    write_frame(*server_end, genuine);
  });
  runtime::OffloadPayload payload;
  payload.images = instance_with_pixel(5.0f);
  EXPECT_EQ(client.classify(payload), std::vector<int>{5});  // not {99}
  impostor.join();
}

// ---- Full InferenceSession over the wire ----

/// Trained tiny system + cloud model shared by the session-level tests.
struct Fixture {
  data::SyntheticDataset ds;
  core::MEANet net;
  data::ClassDict dict;
  sim::CloudNode cloud;

  static Fixture& instance() {
    static Fixture fixture = make();
    return fixture;
  }

  static Fixture make() {
    util::Rng rng(1);
    data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 21);
    core::MEANet net = tiny_meanet_b(rng, 2);
    core::DistributedTrainer trainer(net);
    core::TrainOptions options;
    options.epochs = 5;
    options.batch_size = 16;
    util::Rng train_rng(2);
    trainer.train_main(ds.train, options, train_rng);
    data::ClassDict dict = trainer.select_hard_classes_from_validation(ds.test, 2);
    trainer.train_edge_blocks(ds.train, dict, options, train_rng);

    nn::Sequential cloud_model = core::build_cloud_classifier(2, 4, rng);
    core::TrainOptions cloud_options;
    cloud_options.epochs = 6;
    cloud_options.batch_size = 16;
    core::train_classifier(cloud_model, ds.train, cloud_options, train_rng);

    return Fixture{std::move(ds), std::move(net), std::move(dict),
                   sim::CloudNode(std::move(cloud_model))};
  }

  runtime::EngineConfig config() {
    runtime::EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.3;
    cfg.batch_size = 16;
    return cfg;
  }
};

TEST(WireSession, SocketPredictionsMatchInProcessBackend) {
  Fixture& f = Fixture::instance();

  // In-process reference: the cloud model answers directly.
  runtime::EngineConfig in_proc = f.config();
  in_proc.backend = std::make_shared<runtime::RawImageBackend>(&f.cloud);
  const auto reference = runtime::InferenceSession(in_proc).run(f.ds.test);

  // Same cloud model behind a WireServer on a real Unix socket.
  WireServer server(std::make_shared<runtime::RawImageBackend>(&f.cloud),
                    WireServerConfig{});
  const std::string path = test_socket_path("parity");
  server.listen_unix(path);
  runtime::EngineConfig wired = f.config();
  WireBackendConfig wire_cfg;
  wire_cfg.socket_path = path;
  wired.backend = std::make_shared<WireBackend>(std::move(wire_cfg));
  const auto over_wire = runtime::InferenceSession(wired).run(f.ds.test);
  server.stop();

  ASSERT_EQ(reference.size(), over_wire.size());
  int offloaded = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].prediction, over_wire[i].prediction) << "instance " << i;
    EXPECT_EQ(reference[i].route, over_wire[i].route) << "instance " << i;
    EXPECT_EQ(reference[i].offloaded, over_wire[i].offloaded) << "instance " << i;
    offloaded += over_wire[i].offloaded ? 1 : 0;
  }
  // The parity is only meaningful if the cloud actually answered.
  EXPECT_GT(offloaded, 0);
}

TEST(WireSession, FrameFaultsFallBackToEdgePredictions) {
  Fixture& f = Fixture::instance();

  // Reference: no cloud at all — pure edge predictions.
  runtime::EngineConfig none = f.config();
  const auto edge_only = runtime::InferenceSession(none).run(f.ds.test);

  WireServer server(std::make_shared<runtime::RawImageBackend>(&f.cloud),
                    WireServerConfig{});

  auto run_with_fault = [&](const FaultPlan& plan) {
    runtime::EngineConfig cfg = f.config();
    WireBackendConfig wire_cfg;
    wire_cfg.response_timeout_s = 0.25;  // a swallowed frame must not hang
    wire_cfg.transport_factory = [&server, plan] {
      PipePair pipe = make_pipe();
      server.adopt(std::move(pipe.second));
      return std::unique_ptr<Transport>(
          std::make_unique<FaultInjectingTransport>(std::move(pipe.first), plan));
    };
    cfg.backend = std::make_shared<WireBackend>(std::move(wire_cfg));
    return runtime::InferenceSession(cfg).run(f.ds.test);
  };

  // Truncated request frame / corrupted CRC / mid-frame disconnect: all
  // must surface as clean offload failures — every instance keeps its
  // edge prediction, nothing hangs, the session drains normally.
  FaultPlan truncate;
  truncate.truncate_after_bytes = 40;
  FaultPlan corrupt;
  corrupt.corrupt_byte_at = kFrameHeaderBytes + 10;
  FaultPlan disconnect;
  disconnect.disconnect_after_bytes = 40;
  for (const FaultPlan& plan : {truncate, corrupt, disconnect}) {
    const auto results = run_with_fault(plan);
    ASSERT_EQ(results.size(), edge_only.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].prediction, edge_only[i].prediction) << "instance " << i;
      EXPECT_FALSE(results[i].offloaded) << "instance " << i;
    }
  }
  server.stop();
}

// A stats() poller hammering the server while connections serve live
// traffic: every stats_ mutation site must go through the same lock, or
// the TSAN leg flags this test.
TEST(WireServer, ConcurrentStatsPollerDoesNotRaceLiveConnections) {
  auto backend = std::make_shared<PixelLabelBackend>();
  WireServerConfig config;
  config.max_batch_instances = 1;
  WireServer server(backend, config);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const WireServerStats stats = server.stats();
      EXPECT_GE(stats.frames_in, stats.requests_served);
      // The registry path snapshots the same counters under the same
      // lock — exercise it concurrently too.
      (void)diag::DiagnosticRegistry::global().to_json();
    }
  });

  WireBackendConfig client_config;
  client_config.transport_factory = [&server] {
    PipePair pipe = make_pipe();
    server.adopt(std::move(pipe.second));
    return std::move(pipe.first);
  };
  WireBackend client(client_config);
  for (int i = 0; i < 50; ++i) {
    runtime::OffloadPayload payload;
    payload.images = instance_with_pixel(static_cast<float>(i % 4));
    EXPECT_EQ(client.classify(payload), std::vector<int>{i % 4});
  }
  stop.store(true);
  poller.join();
  server.stop();
  EXPECT_GE(server.stats().requests_served, 50u);
}

// The acceptance shape of the unified surface: two live sessions on a
// shared cell, a wire server, and the (lazily created) GEMM pool all
// land in ONE registry snapshot.
TEST(Diagnostics, TwoSessionsCellServerAndPoolInOneSnapshot) {
  util::Rng rng(9);
  data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 44);
  core::MEANet net = tiny_meanet_b(rng, 2);
  data::ClassDict dict(tiny_data_spec().num_classes, {0, 1});

  auto cell = std::make_shared<sim::SharedCell>(sim::SharedCellConfig{});

  runtime::EngineConfig cfg;
  cfg.net = &net;
  cfg.dict = &dict;
  cfg.worker_threads = 1;
  cfg.cell = cell;
  runtime::InferenceSession first(cfg), second(cfg);
  for (int i = 0; i < 4; ++i) {
    first.submit(ds.test.instance(i));
    second.submit(ds.test.instance(i + 4));
  }
  (void)first.drain();
  (void)second.drain();
  // Edge forwards never enter the pool; the singleton registers on
  // first touch.
  (void)ops::GemmPool::instance().stats();

  WireServer server(std::make_shared<PixelLabelBackend>(), WireServerConfig{});

  const diag::Value snap = diag::DiagnosticRegistry::global().snapshot();
  ASSERT_NE(snap.find("schema"), nullptr);
  EXPECT_EQ(snap.find("schema")->as_string(), diag::kSchemaVersion);
  const diag::Value* providers = snap.find("providers");
  ASSERT_NE(providers, nullptr);
  int sessions = 0, cells = 0, servers = 0, pools = 0;
  for (const auto& [name, tree] : providers->fields()) {
    (void)tree;
    if (name.rfind("session/", 0) == 0) ++sessions;
    if (name.rfind("cell/", 0) == 0) ++cells;
    if (name.rfind("wire_server/", 0) == 0) ++servers;
    if (name == "gemm_pool") ++pools;
  }
  EXPECT_GE(sessions, 2);
  EXPECT_GE(cells, 1);
  EXPECT_GE(servers, 1);
  EXPECT_EQ(pools, 1);
  EXPECT_TRUE(diag::json_well_formed(diag::to_json(snap)));
  server.stop();
}

// ---- End-to-end against the real meanet_cloudd binary ----

// Runs only when MEANET_CLOUDD names the built daemon (CI sets it; run
// locally with MEANET_CLOUDD=./build/tools/meanet_cloudd). The daemon
// builds its classifier deterministically from --seed, so this process
// can reproduce the exact weights and demand byte-identical answers
// across the process boundary.
TEST(ClouddEndToEnd, SpawnedDaemonMatchesInProcessModel) {
  const char* binary = std::getenv("MEANET_CLOUDD");
  if (binary == nullptr || binary[0] == '\0') {
    GTEST_SKIP() << "set MEANET_CLOUDD to the meanet_cloudd binary to run";
  }
  const std::string path = test_socket_path("cloudd");
  ChildProcess daemon(std::vector<std::string>{binary, "--socket", path, "--seed", "77",
                                               "--image-channels", "2", "--classes", "4"});

  util::Rng rng(77);
  sim::CloudNode local(core::build_cloud_classifier(2, 4, rng));
  runtime::RawImageBackend reference(&local);

  WireBackendConfig cfg;
  cfg.socket_path = path;
  cfg.connect_timeout_s = 10.0;  // covers the daemon's startup window
  WireBackend client(cfg);
  util::Rng data_rng(5);
  // Rounds 0-3 send 3 rows; round 4 sends 64, which the daemon splits
  // by rows over its cores.
  for (int round = 0; round < 5; ++round) {
    runtime::OffloadPayload payload;
    payload.images = Tensor::normal(Shape{round < 4 ? 3 : 64, 2, 4, 4}, data_rng);
    EXPECT_EQ(client.classify(payload), reference.classify(payload)) << "round " << round;
  }
  EXPECT_GE(snapshot_counter(client.fetch_diagnostics(), "wire_server/", "requests_served"),
            5u);
  daemon.terminate();
  EXPECT_FALSE(daemon.running());
}

// The wire-served registry snapshot (kStatsRequest): the
// daemon must answer with a well-formed document in the current schema
// whose providers include its wire server. Same MEANET_CLOUDD gate as
// above; CI's wire job runs this as its snapshot validation step.
TEST(ClouddEndToEnd, DiagSnapshotOverWireIsWellFormed) {
  const char* binary = std::getenv("MEANET_CLOUDD");
  if (binary == nullptr || binary[0] == '\0') {
    GTEST_SKIP() << "set MEANET_CLOUDD to the meanet_cloudd binary to run";
  }
  const std::string path = test_socket_path("cloudd_diag");
  ChildProcess daemon(std::vector<std::string>{binary, "--socket", path, "--seed", "77",
                                               "--image-channels", "2", "--classes", "4"});

  WireBackendConfig cfg;
  cfg.socket_path = path;
  cfg.connect_timeout_s = 10.0;
  WireBackend client(cfg);
  util::Rng data_rng(6);
  runtime::OffloadPayload payload;
  payload.images = Tensor::normal(Shape{64, 2, 4, 4}, data_rng);
  (void)client.classify(payload);  // traffic so counters are non-trivial

  const std::string snapshot = client.fetch_diagnostics();
  EXPECT_TRUE(diag::json_well_formed(snapshot)) << snapshot;
  EXPECT_NE(snapshot.find(diag::kSchemaVersion), std::string::npos);
  EXPECT_NE(snapshot.find("wire_server/"), std::string::npos);
  EXPECT_NE(snapshot.find("requests_served"), std::string::npos);

  // On a multi-core host the 64-row batch was split over the pool.
  const std::uint64_t fanout_jobs = snapshot_counter(snapshot, "gemm_pool\"", "fanout_jobs");
  if (std::thread::hardware_concurrency() > 1) EXPECT_GE(fanout_jobs, 1u) << snapshot;

  // A second stats request on the same connection sees this one's frames.
  EXPECT_GE(snapshot_counter(client.fetch_diagnostics(), "wire_server/", "frames_in"), 2u);
  daemon.terminate();
  EXPECT_FALSE(daemon.running());
}

// A malformed numeric flag is rejected at startup: the daemon exits
// with usage instead of serving with --max-batch 0.
TEST(ClouddEndToEnd, MalformedNumericFlagExitsWithoutListening) {
  const char* binary = std::getenv("MEANET_CLOUDD");
  if (binary == nullptr || binary[0] == '\0') {
    GTEST_SKIP() << "set MEANET_CLOUDD to the meanet_cloudd binary to run";
  }
  const std::string path = test_socket_path("cloudd_badflag");
  ChildProcess daemon(
      std::vector<std::string>{binary, "--socket", path, "--max-batch", "abc"});
  EXPECT_TRUE(eventually([&] { return !daemon.running(); }));
  struct stat info {};
  EXPECT_NE(::stat(path.c_str(), &info), 0) << "daemon created " << path;
}

// The daemon batches work-conservingly and has no batch window: the
// old --batch-window-ms flag is an unknown argument, so it exits with
// usage instead of serving.
TEST(ClouddEndToEnd, BatchWindowFlagIsGoneAndExitsWithUsage) {
  const char* binary = std::getenv("MEANET_CLOUDD");
  if (binary == nullptr || binary[0] == '\0') {
    GTEST_SKIP() << "set MEANET_CLOUDD to the meanet_cloudd binary to run";
  }
  const std::string path = test_socket_path("cloudd_window");
  ChildProcess daemon(
      std::vector<std::string>{binary, "--socket", path, "--batch-window-ms", "2"});
  EXPECT_TRUE(eventually([&] { return !daemon.running(); }));
  struct stat info {};
  EXPECT_NE(::stat(path.c_str(), &info), 0) << "daemon created " << path;
}

}  // namespace
}  // namespace meanet::wire
