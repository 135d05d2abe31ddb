// Contention determinism tests for sim::SharedCell and the downlink
// model: cell-level delay math (fair-share contention, hashed seeded
// jitter, airtime accounting, configuration checks), bit-identical
// per-request timings for two sessions sharing one cell — across runs
// at the same seed and at different worker counts — and downlink cost
// scaling with the number of answered instances.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/session.h"
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
  // Equal uplink and downlink rates, so only the jitter draw can make
  // the two directions' delays differ.
  config.uplink.throughput_mbps = 10.0;
  config.downlink.throughput_mbps = 10.0;
  config.base_latency_s = 0.001;
  config.jitter_s = 0.050;
  config.seed = 0xABCD;
  sim::SharedCell a(config), b(config);
  const int a0 = a.attach(), a1 = a.attach();
  const int b0 = b.attach(), b1 = b.attach();

  // Every draw lands in [base + transfer, base + transfer + jitter],
  // the transfer charged at the two-station share.
  const double floor_s = config.base_latency_s + 2.0 * config.uplink.upload_time_s(1024);
  bool stations_diverged = false, directions_diverged = false;
  for (std::uint64_t key = 0; key < 32; ++key) {
    const double delay_s = a.uplink_delay_s(a0, key, 1024);
    EXPECT_GE(delay_s, floor_s);
    EXPECT_LE(delay_s, floor_s + config.jitter_s);
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

  // A different seed diverges: two fresh one-station cells that differ
  // only in seed, so contention cannot make their delays differ.
  sim::SharedCellConfig other = config;
  other.seed = 0xABCE;
  sim::SharedCell solo(config), reseeded(other);
  const int s0 = solo.attach(), r0 = reseeded.attach();
  const double solo_floor_s = config.base_latency_s + config.uplink.upload_time_s(1024);
  bool seed_diverged = false;
  for (std::uint64_t key = 0; key < 32; ++key) {
    const double delay_s = reseeded.uplink_delay_s(r0, key, 1024);
    EXPECT_GE(delay_s, solo_floor_s);
    EXPECT_LE(delay_s, solo_floor_s + config.jitter_s);
    if (solo.uplink_delay_s(s0, key, 1024) != delay_s) seed_diverged = true;
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

  // NaN passes a plain `<= 0` / `< 0` test, and a NaN or infinite
  // parameter makes every transfer wait forever: each must be refused.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -inf}) {
    bad = sim::SharedCellConfig{};
    bad.uplink.throughput_mbps = v;
    EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument) << "uplink " << v;
    bad = sim::SharedCellConfig{};
    bad.downlink.throughput_mbps = v;
    EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument) << "downlink " << v;
    bad = sim::SharedCellConfig{};
    bad.base_latency_s = v;
    EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument) << "base latency " << v;
    bad = sim::SharedCellConfig{};
    bad.jitter_s = v;
    EXPECT_THROW(sim::SharedCell{bad}, std::invalid_argument) << "jitter " << v;
  }
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

/// Cell parameters fast enough that the dispatcher's simulated sleeps
/// stay in the microsecond range (a 128-byte frame at 18.88 Mb/s is
/// ~54us).
sim::SharedCellConfig fast_jittered_cell() {
  sim::SharedCellConfig cell_config;
  cell_config.base_latency_s = 0.0001;
  cell_config.jitter_s = 0.0002;
  cell_config.seed = 0x5E11;
  return cell_config;
}

/// Runs `frames` frames through two sessions sharing one fresh cell
/// built from `cell_config` and returns both sessions' per-request
/// timings plus the cell's busy seconds.
struct TwoSessionRun {
  RequestTimings a, b;
  double busy_s = 0.0;
};

TwoSessionRun run_two_sessions(Fixture& f, const sim::SharedCellConfig& cell_config, int frames,
                               int worker_threads) {
  auto cell = std::make_shared<sim::SharedCell>(cell_config);
  EngineConfig cfg_a = f.config(worker_threads);
  cfg_a.cell = cell;
  EngineConfig cfg_b = f.config(worker_threads);
  cfg_b.cell = cell;

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
  const sim::SharedCellConfig cell_config = fast_jittered_cell();

  const TwoSessionRun first = run_two_sessions(f, cell_config, kFrames, 1);
  const TwoSessionRun second = run_two_sessions(f, cell_config, kFrames, 1);
  const TwoSessionRun threaded = run_two_sessions(f, cell_config, kFrames, 4);

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
  const sim::SharedCellConfig cell_config;  // no jitter, no base RTT: pure transfer time
  const TwoSessionRun contended = run_two_sessions(f, cell_config, kFrames, 1);

  // Solo baseline: the session alone on a fresh cell.
  EngineConfig cfg = f.config(1);
  cfg.cell = std::make_shared<sim::SharedCell>(cell_config);
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

TEST(SharedCellSessions, DownlinkGatesTheAnswerAndScalesWithResponseBytes) {
  Fixture& f = Fixture::instance();
  // Uplink fast; downlink slow enough to dominate: one instance's
  // answer at 0.0032 Mb/s is a 10ms transfer.
  sim::SharedCellConfig cell_config;
  cell_config.downlink.throughput_mbps = 0.0032;
  const double expected_down_s = cell_config.downlink.upload_time_s(kResponseBytesPerInstance);
  ASSERT_NEAR(expected_down_s, 0.010, 1e-12);

  // Each request gets a fresh session on a fresh cell; the jitter is
  // zero, so the values are exact.
  auto serve = [&](const Tensor& images) {
    EngineConfig cfg = f.config(1);
    cfg.cell = std::make_shared<sim::SharedCell>(cell_config);
    InferenceSession session(cfg);
    const auto started = std::chrono::steady_clock::now();
    const auto results = session.submit(images).wait();
    const double waited_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    session.drain();
    return std::make_pair(results, waited_s);
  };

  const auto [results, waited_s] = serve(f.ds.test.instance(0));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.front().offloaded);
  // The reported downlink occupancy is the pure-function transfer time,
  // and the caller really waited for it (upload + downlink at least).
  EXPECT_DOUBLE_EQ(results.front().download_time_s, expected_down_s);
  EXPECT_GE(waited_s, results.front().upload_time_s + expected_down_s);

  // Two answered instances in one payload: double the bytes, double the
  // downlink transfer.
  const auto [pair_results, pair_waited_s] = serve(f.ds.test.images.slice_batch(0, 2));
  ASSERT_EQ(pair_results.size(), 2u);
  for (const InferenceResult& r : pair_results) {
    EXPECT_TRUE(r.offloaded);
    EXPECT_DOUBLE_EQ(r.download_time_s, 2.0 * expected_down_s);
  }
  EXPECT_GE(pair_waited_s, 2.0 * expected_down_s);
}

TEST(SharedCellSessions, MetricsSurfaceCellAirtime) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config(1);
  cfg.cell = std::make_shared<sim::SharedCell>(fast_jittered_cell());
  InferenceSession session(cfg);
  for (int i = 0; i < 4; ++i) session.submit(f.ds.test.instance(i)).wait();
  const SessionMetrics m = session.metrics();
  session.drain();
  EXPECT_GT(m.cell_busy_s, 0.0);
  EXPECT_GT(m.cell_airtime_utilization, 0.0);
}

}  // namespace
}  // namespace meanet::runtime
