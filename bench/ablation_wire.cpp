// Wire overhead ablation: what does the framed offload protocol cost
// over an in-process backend call?
//
// Isolates the wire mechanics with an instant echo backend (no model),
// so every microsecond measured is serialization + framing + transport,
// not inference:
//   - in_process:     direct OffloadBackend::classify call (the floor)
//   - encode_decode:  encode_offload_request + decode + response codec,
//                     no transport (pure serialization cost)
//   - pipe_rtt:       full WireBackend <-> WireServer round trip over
//                     the in-memory pipe (adds framing, CRC, threads)
//   - socket_rtt:     the same over a real Unix-domain socket (adds the
//                     kernel byte-stream)
// per offload batch size, and emits BENCH_wire.json as the tracked
// baseline for future wire-path PRs.
//
// Usage: ablation_wire [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "diag/value.h"
#include "runtime/offload_backend.h"
#include "util/rng.h"
#include "wire/frame.h"
#include "wire/server.h"
#include "wire/socket_transport.h"
#include "wire/wire_backend.h"

using namespace meanet;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double median_us(int reps, Fn fn) {
  fn();  // warmup
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double start = now_s();
    fn();
    samples.push_back((now_s() - start) * 1e6);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Instant backend: answers each row with its index — zero inference
/// cost, so round-trip times are pure wire overhead.
class EchoBackend : public runtime::OffloadBackend {
 public:
  std::vector<int> classify(const runtime::OffloadPayload& payload) override {
    const std::int64_t rows = payload.images.shape().dim(0);
    std::vector<int> out(static_cast<std::size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r) out[static_cast<std::size_t>(r)] = static_cast<int>(r);
    return out;
  }
  bool needs_images() const override { return true; }
  std::int64_t payload_bytes(const Shape&, const Shape&) const override { return 0; }
  std::string describe() const override { return "echo"; }
};

struct Row {
  int batch = 0;
  std::int64_t wire_bytes = 0;
  double in_process_us = 0.0;
  double encode_decode_us = 0.0;
  double pipe_rtt_us = 0.0;
  double socket_rtt_us = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_wire.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: ablation_wire [--quick] [--out PATH]\n");
      return 2;
    }
  }
  const int reps = quick ? 31 : 201;

  std::printf("=== ablation_wire: framed offload vs in-process call (%s) ===\n",
              quick ? "quick" : "full");

  // CIFAR-like offload geometry: [K, 3, 16, 16] image batches.
  const int channels = 3, side = 16;
  auto backend = std::make_shared<EchoBackend>();

  // One server serving both transports for the whole run.
  wire::WireServer server(backend, wire::WireServerConfig{});
  const std::string socket_path =
      "/tmp/meanet_ablation_wire_" + std::to_string(::getpid()) + ".sock";
  server.listen_unix(socket_path);

  wire::WireBackendConfig pipe_config;
  pipe_config.transport_factory = [&server] {
    wire::PipePair pipe = wire::make_pipe();
    server.adopt(std::move(pipe.second));
    return std::move(pipe.first);
  };
  wire::WireBackend pipe_client(pipe_config);

  wire::WireBackendConfig socket_config;
  socket_config.socket_path = socket_path;
  wire::WireBackend socket_client(socket_config);

  std::vector<Row> rows;
  for (const int batch : {1, 16, 64}) {
    util::Rng rng(7);
    runtime::OffloadPayload payload;
    payload.images = Tensor::normal(Shape{batch, channels, side, side}, rng);

    Row row;
    row.batch = batch;
    row.wire_bytes = wire::request_wire_bytes(payload.images.shape());
    row.in_process_us = median_us(reps, [&] { (void)backend->classify(payload); });
    row.encode_decode_us = median_us(reps, [&] {
      const auto request = wire::encode_offload_request(payload);
      const auto decoded = wire::decode_offload_request(request);
      const auto response = wire::encode_offload_response(backend->classify(decoded));
      (void)wire::decode_offload_response(response);
    });
    row.pipe_rtt_us = median_us(reps, [&] { (void)pipe_client.classify(payload); });
    row.socket_rtt_us = median_us(reps, [&] { (void)socket_client.classify(payload); });
    rows.push_back(row);
    std::printf("  batch %3d (%7lld wire bytes): in-proc %8.2f us   codec %8.2f us   "
                "pipe rtt %8.2f us   socket rtt %8.2f us\n",
                batch, static_cast<long long>(row.wire_bytes), row.in_process_us,
                row.encode_decode_us, row.pipe_rtt_us, row.socket_rtt_us);
  }
  server.stop();
  ::unlink(socket_path.c_str());

  // Emit through the shared diag JSON exporter so the bench baselines
  // and the diagnostics registry share one serializer (and schema tag).
  diag::Value doc = diag::Value::object();
  doc.set("schema", diag::kSchemaVersion);
  doc.set("bench", "ablation_wire");
  doc.set("quick", quick);
  diag::Value results = diag::Value::array();
  for (const Row& r : rows) {
    diag::Value entry = diag::Value::object();
    entry.set("batch", r.batch);
    entry.set("wire_bytes", r.wire_bytes);
    entry.set("in_process_us", r.in_process_us);
    entry.set("encode_decode_us", r.encode_decode_us);
    entry.set("pipe_rtt_us", r.pipe_rtt_us);
    entry.set("socket_rtt_us", r.socket_rtt_us);
    results.push(std::move(entry));
  }
  doc.set("results", std::move(results));
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = diag::to_json(doc);
  std::fprintf(out, "%s\n", json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  // Sanity gate: the socket round trip must stay within a factor of the
  // codec cost plus a fixed syscall allowance — a regression that makes
  // the wire pathologically slow should fail loudly in CI.
  for (const Row& r : rows) {
    if (r.socket_rtt_us > 50.0 * (r.encode_decode_us + 50.0)) {
      std::fprintf(stderr, "wire overhead blew up at batch %d: %.2f us\n", r.batch,
                   r.socket_rtt_us);
      return 1;
    }
  }
  return 0;
}
