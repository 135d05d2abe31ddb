// Contention determinism tests for sim::SharedCell and the downlink
// model: cell-level delay math (fair-share contention, hashed seeded
// jitter, airtime accounting), bit-identical per-request timings for
// two sessions sharing one cell — across runs at the same seed and at
// different worker counts — downlink cost scaling with response payload
// bytes, and single-session-on-cell parity with the standalone
// SimulatedLink.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "runtime/session.h"
#include "runtime/transport.h"
#include "sim/shared_cell.h"

#include "core/builders.h"
#include "core/trainer.h"
#include "sim/cloud_node.h"
#include "tiny_models.h"

namespace meanet::runtime {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;

// ---------------------------------------------------------------------
// Cell-level delay math
// ---------------------------------------------------------------------

TEST(SharedCellMath, FairShareContentionScalesTransferTime) {
  sim::SharedCellConfig config;
  config.uplink.throughput_mbps = 10.0;
  config.downlink.throughput_mbps = 20.0;
  sim::SharedCell cell(config);

  const int s0 = cell.attach();
  ASSERT_EQ(s0, 0);
  const double solo = cell.uplink_delay_s(s0, 0, 1 << 20);
  EXPECT_DOUBLE_EQ(solo, config.uplink.upload_time_s(1 << 20));

  // A second station halves everyone's throughput; a third cuts it to a
  // third. Detaching restores the share.
  const int s1 = cell.attach();
  EXPECT_DOUBLE_EQ(cell.uplink_delay_s(s0, 1, 1 << 20), 2.0 * solo);
  const int s2 = cell.attach();
  EXPECT_DOUBLE_EQ(cell.uplink_delay_s(s1, 0, 1 << 20), 3.0 * solo);
  cell.detach(s2);
  cell.detach(s1);
  EXPECT_DOUBLE_EQ(cell.uplink_delay_s(s0, 2, 1 << 20), solo);
}

TEST(SharedCellMath, DownlinkCostScalesWithResponseBytes) {
  sim::SharedCellConfig config;
  config.downlink.throughput_mbps = 5.0;
  sim::SharedCell cell(config);
  const int station = cell.attach();

  const double one_kb = cell.downlink_delay_s(station, 0, 1024);
  EXPECT_DOUBLE_EQ(one_kb, config.downlink.upload_time_s(1024));
  EXPECT_DOUBLE_EQ(cell.downlink_delay_s(station, 1, 4096), 4.0 * one_kb);
  EXPECT_DOUBLE_EQ(cell.downlink_delay_s(station, 2, 0), 0.0);
}

TEST(SharedCellMath, JitterIsSeededPerStationAndDirection) {
  sim::SharedCellConfig config;
  config.jitter_s = 0.050;
  config.seed = 0xABCD;
  sim::SharedCell a(config), b(config);
  const int a0 = a.attach(), a1 = a.attach();
  const int b0 = b.attach(), b1 = b.attach();

  bool stations_diverged = false, directions_diverged = false;
  for (std::uint64_t key = 0; key < 32; ++key) {
    // Same seed, same station, same key -> identical across cells.
    EXPECT_DOUBLE_EQ(a.uplink_delay_s(a0, key, 1024), b.uplink_delay_s(b0, key, 1024));
    EXPECT_DOUBLE_EQ(a.uplink_delay_s(a1, key, 1024), b.uplink_delay_s(b1, key, 1024));
    // Different stations / directions draw independent jitter.
    if (a.uplink_delay_s(a0, key, 1024) != a.uplink_delay_s(a1, key, 1024)) {
      stations_diverged = true;
    }
    if (a.uplink_delay_s(a0, key, 1024) != a.downlink_delay_s(a0, key, 1024)) {
      directions_diverged = true;
    }
  }
  EXPECT_TRUE(stations_diverged);
  EXPECT_TRUE(directions_diverged);

  // A different seed diverges.
  sim::SharedCellConfig other = config;
  other.seed = 0xABCE;
  sim::SharedCell c(other);
  const int c0 = c.attach();
  bool seed_diverged = false;
  for (std::uint64_t key = 0; key < 32 && !seed_diverged; ++key) {
    seed_diverged = a.uplink_delay_s(a0, key, 1024) != c.uplink_delay_s(c0, key, 1024);
  }
  EXPECT_TRUE(seed_diverged);
}

TEST(SharedCellMath, ValidatesConfiguration) {
  sim::SharedCellConfig bad;
  bad.uplink.throughput_mbps = 0.0;
  EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument);
  bad = sim::SharedCellConfig{};
  bad.downlink.throughput_mbps = -1.0;
  EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument);
  bad = sim::SharedCellConfig{};
  bad.jitter_s = -0.1;
  EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument);
}

TEST(SharedCellMath, AirtimeAccountingSumsTransfersNotBaseLatency) {
  sim::SharedCellConfig config;
  config.uplink.throughput_mbps = 8.0;
  config.base_latency_s = 0.5;  // must not count as airtime
  sim::SharedCell cell(config);
  const int station = cell.attach();
  EXPECT_DOUBLE_EQ(cell.busy_seconds(), 0.0);
  const double transfer = config.uplink.upload_time_s(1 << 20);
  const double reported = cell.uplink_delay_s(station, 0, 1 << 20);
  EXPECT_DOUBLE_EQ(reported, transfer + config.base_latency_s);
  EXPECT_DOUBLE_EQ(cell.busy_seconds(), transfer);
}

// ---------------------------------------------------------------------
// Sessions on a shared cell
// ---------------------------------------------------------------------

/// A fully trained tiny system shared by all tests in this file (built
/// once: training dominates the suite's runtime otherwise).
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

  /// Everything cloud-routed, one payload per frame: each request's
  /// simulated transfer delays are then pure functions of its id.
  EngineConfig config(int worker_threads = 1) {
    EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.0;
    cfg.backend = std::make_shared<RawImageBackend>(&cloud);
    cfg.batch_size = 1;
    cfg.worker_threads = worker_threads;
    return cfg;
  }
};

/// Per-request (id, simulated upload, simulated downlink) of a session
/// run: the "timings" the determinism contract is about.
struct RequestTimings {
  std::vector<std::int64_t> ids;
  std::vector<double> upload_s;
  std::vector<double> download_s;

  static RequestTimings of(const std::vector<InferenceResult>& results) {
    RequestTimings t;
    for (const InferenceResult& r : results) {
      t.ids.push_back(r.id);
      t.upload_s.push_back(r.upload_time_s);
      t.download_s.push_back(r.download_time_s);
    }
    return t;
  }
};

void expect_bit_identical(const RequestTimings& a, const RequestTimings& b) {
  ASSERT_EQ(a.ids, b.ids);
  for (std::size_t i = 0; i < a.ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.upload_s[i], b.upload_s[i]) << "upload diverged at request " << i;
    EXPECT_DOUBLE_EQ(a.download_s[i], b.download_s[i]) << "downlink diverged at request " << i;
  }
}

/// Transport parameters fast enough that the dispatcher's simulated
/// sleeps stay in the microsecond range (a 128-byte frame at 18.88 Mb/s
/// is ~54us).
TransportConfig fast_jittered_transport() {
  TransportConfig transport;
  transport.base_latency_s = 0.0001;
  transport.jitter_s = 0.0002;
  transport.seed = 0x5E11;
  return transport;
}

/// Runs `frames` frames through two sessions sharing one cell built
/// from `transport` (the cell field is filled here) and returns both
/// sessions' per-request timings plus the cell's busy seconds.
struct TwoSessionRun {
  RequestTimings a, b;
  double busy_s = 0.0;
};

TwoSessionRun run_two_sessions(Fixture& f, TransportConfig transport, int frames,
                               int worker_threads) {
  sim::SharedCellConfig cell_config;
  cell_config.uplink = transport.wifi;
  cell_config.downlink = transport.downlink;
  cell_config.base_latency_s = transport.base_latency_s;
  cell_config.jitter_s = transport.jitter_s;
  cell_config.seed = transport.seed;
  auto cell = std::make_shared<sim::SharedCell>(cell_config);
  transport.cell = cell;

  EngineConfig cfg_a = f.config(worker_threads);
  cfg_a.transport = transport;
  EngineConfig cfg_b = f.config(worker_threads);
  cfg_b.transport = transport;

  TwoSessionRun out;
  {
    // Both sessions attach before any traffic, so every transfer sees
    // the same contention factor (2) deterministically.
    InferenceSession session_a(cfg_a);
    InferenceSession session_b(cfg_b);
    EXPECT_EQ(cell->stations(), 2);
    std::vector<ResultHandle> handles_a, handles_b;
    for (int i = 0; i < frames; ++i) {
      handles_a.push_back(session_a.submit(f.ds.test.instance(i)));
      handles_b.push_back(session_b.submit(f.ds.test.instance(frames + i)));
    }
    std::vector<InferenceResult> results_a, results_b;
    for (ResultHandle& h : handles_a) results_a.push_back(h.wait().front());
    for (ResultHandle& h : handles_b) results_b.push_back(h.wait().front());
    session_a.drain();
    session_b.drain();
    for (const InferenceResult& r : results_a) {
      EXPECT_TRUE(r.offloaded);
      EXPECT_GT(r.upload_time_s, 0.0);
    }
    out.a = RequestTimings::of(results_a);
    out.b = RequestTimings::of(results_b);
    out.busy_s = cell->busy_seconds();
  }
  return out;
}

TEST(SharedCellSessions, TwoSessionsAreBitIdenticalAcrossRunsAndWorkerCounts) {
  Fixture& f = Fixture::instance();
  constexpr int kFrames = 16;
  const TransportConfig transport = fast_jittered_transport();

  const TwoSessionRun first = run_two_sessions(f, transport, kFrames, 1);
  const TwoSessionRun second = run_two_sessions(f, transport, kFrames, 1);
  const TwoSessionRun threaded = run_two_sessions(f, transport, kFrames, 4);

  // Same seed, same run: bit-identical per-request timings...
  expect_bit_identical(first.a, second.a);
  expect_bit_identical(first.b, second.b);
  // ...and the worker count does not perturb them either.
  expect_bit_identical(first.a, threaded.a);
  expect_bit_identical(first.b, threaded.b);
  EXPECT_DOUBLE_EQ(first.busy_s, second.busy_s);
  EXPECT_DOUBLE_EQ(first.busy_s, threaded.busy_s);

  // The two stations draw distinct jitter streams: their timing vectors
  // must not be mirror copies of each other.
  bool diverged = false;
  for (int i = 0; i < kFrames && !diverged; ++i) {
    diverged = first.a.upload_s[static_cast<std::size_t>(i)] !=
               first.b.upload_s[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(diverged);

  // Airtime accounting closes: the cell's busy seconds are exactly the
  // transfers it charged, minus nothing (no abandoned transfers here).
  double charged = 0.0;
  for (int i = 0; i < kFrames; ++i) {
    // Delays include the base-latency floor; busy time does not.
    charged += first.a.upload_s[static_cast<std::size_t>(i)] +
               first.a.download_s[static_cast<std::size_t>(i)] +
               first.b.upload_s[static_cast<std::size_t>(i)] +
               first.b.download_s[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(first.busy_s, charged - 4 * kFrames * 0.0001, 1e-9);
}

TEST(SharedCellSessions, ContentionDoublesUploadTimeOfEveryPayload) {
  Fixture& f = Fixture::instance();
  constexpr int kFrames = 6;
  TransportConfig transport;  // no jitter, no base RTT: pure transfer time
  const TwoSessionRun contended = run_two_sessions(f, transport, kFrames, 1);

  // Solo baseline on a plain (private, single-station) link.
  EngineConfig cfg = f.config(1);
  cfg.transport = transport;
  InferenceSession solo(cfg);
  std::vector<ResultHandle> handles;
  for (int i = 0; i < kFrames; ++i) handles.push_back(solo.submit(f.ds.test.instance(i)));
  std::vector<InferenceResult> solo_results;
  for (ResultHandle& h : handles) solo_results.push_back(h.wait().front());
  solo.drain();

  for (int i = 0; i < kFrames; ++i) {
    EXPECT_DOUBLE_EQ(contended.a.upload_s[static_cast<std::size_t>(i)],
                     2.0 * solo_results[static_cast<std::size_t>(i)].upload_time_s)
        << "two stations must halve the fair-share throughput";
  }
}

TEST(SharedCellSessions, SingleSessionOnCellMatchesStandaloneLinkExactly) {
  Fixture& f = Fixture::instance();
  constexpr int kFrames = 12;
  const TransportConfig plain = fast_jittered_transport();

  // Standalone link (PR 3 shape: TransportConfig without a cell).
  EngineConfig cfg_plain = f.config(1);
  cfg_plain.transport = plain;

  // The same parameters as an explicit one-station cell.
  TransportConfig on_cell = plain;
  sim::SharedCellConfig cell_config;
  cell_config.uplink = plain.wifi;
  cell_config.downlink = plain.downlink;
  cell_config.base_latency_s = plain.base_latency_s;
  cell_config.jitter_s = plain.jitter_s;
  cell_config.seed = plain.seed;
  on_cell.cell = std::make_shared<sim::SharedCell>(cell_config);
  EngineConfig cfg_cell = f.config(1);
  cfg_cell.transport = on_cell;

  auto serve = [&](EngineConfig cfg) {
    InferenceSession session(cfg);
    std::vector<ResultHandle> handles;
    for (int i = 0; i < kFrames; ++i) handles.push_back(session.submit(f.ds.test.instance(i)));
    std::vector<InferenceResult> results;
    for (ResultHandle& h : handles) results.push_back(h.wait().front());
    session.drain();
    return RequestTimings::of(results);
  };

  // Backward-compat parity: alone on the cell, every per-request timing
  // (including the seeded jitter draws) equals the standalone link's.
  expect_bit_identical(serve(cfg_plain), serve(std::move(cfg_cell)));
}

TEST(SharedCellSessions, DownlinkGatesTheAnswerAndScalesWithResponseBytes) {
  Fixture& f = Fixture::instance();
  // Uplink fast; downlink slow enough to dominate: a 125 kB response at
  // 100 Mb/s is a 10ms transfer.
  TransportConfig transport;
  transport.downlink.throughput_mbps = 100.0;
  transport.response_bytes_per_instance = 125000;
  const double expected_down_s = transport.downlink.upload_time_s(125000);
  ASSERT_NEAR(expected_down_s, 0.010, 1e-12);

  EngineConfig cfg = f.config(1);
  cfg.transport = transport;
  InferenceSession session(cfg);

  const auto started = std::chrono::steady_clock::now();
  const auto results = session.submit(f.ds.test.instance(0)).wait();
  const double waited_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  session.drain();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.front().offloaded);
  // The reported downlink occupancy is the pure-function transfer time,
  // and the caller really waited for it (upload + downlink at least).
  EXPECT_DOUBLE_EQ(results.front().download_time_s, expected_down_s);
  EXPECT_GE(waited_s, results.front().upload_time_s + expected_down_s);

  // Double the response, double the transfer (fresh session; the jitter
  // is zero so the values are exact).
  TransportConfig doubled = transport;
  doubled.response_bytes_per_instance = 250000;
  EngineConfig cfg2 = f.config(1);
  cfg2.transport = doubled;
  InferenceSession session2(cfg2);
  const auto results2 = session2.submit(f.ds.test.instance(0)).wait();
  session2.drain();
  ASSERT_EQ(results2.size(), 1u);
  EXPECT_DOUBLE_EQ(results2.front().download_time_s, 2.0 * expected_down_s);

  // And zero response bytes restore PR 3's free answers.
  TransportConfig free_answers = transport;
  free_answers.response_bytes_per_instance = 0;
  EngineConfig cfg3 = f.config(1);
  cfg3.transport = free_answers;
  InferenceSession session3(cfg3);
  const auto results3 = session3.submit(f.ds.test.instance(0)).wait();
  session3.drain();
  ASSERT_EQ(results3.size(), 1u);
  EXPECT_TRUE(results3.front().offloaded);
  EXPECT_DOUBLE_EQ(results3.front().download_time_s, 0.0);
}

TEST(SharedCellSessions, MetricsSurfaceCellAirtime) {
  Fixture& f = Fixture::instance();
  const TransportConfig transport = fast_jittered_transport();
  EngineConfig cfg = f.config(1);
  cfg.transport = transport;
  InferenceSession session(cfg);
  for (int i = 0; i < 4; ++i) session.submit(f.ds.test.instance(i)).wait();
  const SessionMetrics m = session.metrics();
  session.drain();
  EXPECT_GT(m.cell_busy_s, 0.0);
  EXPECT_GT(m.cell_airtime_utilization, 0.0);
}

}  // namespace
}  // namespace meanet::runtime
