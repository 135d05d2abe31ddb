// The virtual-time discrete-event core (sim/clock.h, sim/event_loop.h):
// EventQueue ordering property-tested against a std::stable_sort oracle,
// VirtualClock advance/timeout/notify semantics, sim::SharedCell's static
// airtime share timed on a VirtualClock, clock-identity enforcement
// between a session and its shared cell, and the parity suite — a seeded
// serving scenario reproduced bit-identically across reruns and worker
// counts under VirtualClock, matching the WallClock run on every
// clock-independent quantity. Ends with the acceptance scenario: two
// sessions on a saturated shared cell replaying minutes of simulated
// traffic in a small fraction of wall time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/session.h"
#include "sim/clock.h"
#include "sim/event_loop.h"
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
// EventQueue: (time, tie_seq) ordering vs a stable_sort oracle
// ---------------------------------------------------------------------

TEST(EventQueueOrder, MatchesStableSortOracle) {
  // Random times drawn from a small range so duplicates are common —
  // the tie-break (schedule order) is what the oracle pins down.
  std::mt19937 rng(7);
  const sim::Clock::TimePoint epoch{};
  constexpr int kEvents = 256;

  sim::EventQueue queue;
  std::vector<std::pair<sim::Clock::TimePoint, std::uint64_t>> oracle;
  for (int i = 0; i < kEvents; ++i) {
    const auto at = epoch + std::chrono::milliseconds(rng() % 16);
    const std::uint64_t seq = queue.schedule(at);
    oracle.emplace_back(at, seq);
  }
  ASSERT_EQ(queue.size(), static_cast<std::size_t>(kEvents));

  // Stable sort by time only: equal times keep insertion (= seq) order,
  // exactly the contract the queue promises.
  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  for (int i = 0; i < kEvents; ++i) {
    const auto event = queue.pop();
    ASSERT_TRUE(event.has_value()) << "queue drained early at " << i;
    EXPECT_EQ(event->at, oracle[static_cast<std::size_t>(i)].first) << "time order broke at " << i;
    EXPECT_EQ(event->seq, oracle[static_cast<std::size_t>(i)].second)
        << "tie-break diverged from schedule order at " << i;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(EventQueueOrder, CancelRemovesPendingEventsExactlyOnce) {
  sim::EventQueue queue;
  const sim::Clock::TimePoint epoch{};
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 5; ++i) {
    seqs.push_back(queue.schedule(epoch + std::chrono::seconds(i)));
  }

  EXPECT_TRUE(queue.cancel(seqs[2]));
  EXPECT_FALSE(queue.cancel(seqs[2])) << "double-cancel must be a no-op";
  EXPECT_FALSE(queue.cancel(9999)) << "unknown seq must not cancel anything";
  EXPECT_EQ(queue.size(), 4u);

  // The earliest survivor pops; a popped event can no longer be
  // cancelled.
  const auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, seqs[0]);
  EXPECT_FALSE(queue.cancel(seqs[0]));

  std::vector<std::uint64_t> rest;
  while (const auto event = queue.pop()) rest.push_back(event->seq);
  EXPECT_EQ(rest, (std::vector<std::uint64_t>{seqs[1], seqs[3], seqs[4]}));
}

// ---------------------------------------------------------------------
// VirtualClock semantics
// ---------------------------------------------------------------------

TEST(VirtualClockBasics, SleepJumpsStraightToTheDeadline) {
  sim::VirtualClock clock;
  const auto virtual_start = clock.now();
  const auto wall_start = std::chrono::steady_clock::now();

  // An hour of virtual time; no registered actors, so the sleeper's own
  // pending deadline is immediately the earliest event.
  clock.sleep_for(3600.0);

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  EXPECT_DOUBLE_EQ(sim::Clock::seconds_between(virtual_start, clock.now()), 3600.0);
  EXPECT_LT(wall_s, 5.0) << "a virtual hour must cost (much) less than real seconds";
  EXPECT_EQ(clock.advance_count(), 1u);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClockBasics, RegisteredActorSleepAdvancesWhenItIsTheOnlyActor) {
  sim::VirtualClock clock;
  sim::ActorGuard actor(clock);
  EXPECT_EQ(clock.registered_actors(), 1);
  const auto t0 = clock.now();
  clock.sleep_for(10.0);
  EXPECT_DOUBLE_EQ(sim::Clock::seconds_between(t0, clock.now()), 10.0);
}

TEST(VirtualClockBasics, TimedWaitTimesOutExactlyAtTheVirtualDeadline) {
  sim::VirtualClock clock;
  sim::ActorGuard actor(clock);
  std::mutex mutex;
  std::condition_variable cv;
  bool flag = false;

  const auto t0 = clock.now();
  const auto deadline = sim::Clock::after(t0, 5.0);
  std::unique_lock<std::mutex> lock(mutex);
  const bool satisfied = clock.wait(lock, cv, deadline, [&] { return flag; });

  EXPECT_FALSE(satisfied) << "nothing set the flag: the wait must time out";
  EXPECT_EQ(clock.now(), deadline) << "timeout must land exactly on the deadline";
  EXPECT_DOUBLE_EQ(sim::Clock::seconds_between(t0, clock.now()), 5.0);
}

TEST(VirtualClockBasics, NotifyWakesAWaiterWithoutAdvancingTime) {
  sim::VirtualClock clock;
  std::mutex mutex;
  std::condition_variable cv;
  bool flag = false;
  bool woke_with_flag = false;
  const auto t0 = clock.now();

  std::thread waiter([&] {
    sim::ActorGuard actor(clock);
    std::unique_lock<std::mutex> lock(mutex);
    woke_with_flag =
        clock.wait(lock, cv, sim::Clock::TimePoint::max(), [&] { return flag; });
  });

  // The mutating side: state change under the caller lock, then
  // notify() on the clock — the contract every runtime path follows.
  {
    std::lock_guard<std::mutex> lock(mutex);
    flag = true;
  }
  clock.notify(cv);
  waiter.join();

  EXPECT_TRUE(woke_with_flag);
  EXPECT_EQ(clock.now(), t0) << "an untimed wake must not move virtual time";
  EXPECT_EQ(clock.advance_count(), 0u);
}

TEST(VirtualClockBasics, ClockWaitsForRunnableActorsBeforeAdvancing) {
  sim::VirtualClock clock;
  std::atomic<bool> actor_registered{false};
  std::atomic<bool> actor_done{false};

  // A registered actor that stays *runnable* (wall-sleeping, not
  // clock-blocked) pins virtual time in place.
  std::thread actor([&] {
    sim::ActorGuard guard(clock);
    actor_registered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    actor_done.store(true);
  });
  while (!actor_registered.load()) std::this_thread::yield();

  const auto wall_start = std::chrono::steady_clock::now();
  const auto t0 = clock.now();
  clock.sleep_for(1.0);  // unregistered sleeper: must wait for the actor
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  actor.join();

  EXPECT_TRUE(actor_done.load()) << "the sleep may only finish once the actor left";
  EXPECT_DOUBLE_EQ(sim::Clock::seconds_between(t0, clock.now()), 1.0);
  EXPECT_GE(wall_s, 0.05) << "virtual time must not advance while an actor is runnable";
}

// ---------------------------------------------------------------------
// Cells on a VirtualClock
// ---------------------------------------------------------------------

TEST(VirtualClockCells, FreshCellReportsZeroUtilizationWithinOneVirtualInstant) {
  sim::SharedCellConfig config;
  config.clock = std::make_shared<sim::VirtualClock>();
  sim::SharedCell cell(config);
  cell.attach();
  // No virtual time has elapsed since construction: the utilization
  // window is zero seconds wide and the old elapsed-time division would
  // produce NaN/inf here.
  const double utilization = cell.utilization();
  EXPECT_FALSE(std::isnan(utilization));
  EXPECT_DOUBLE_EQ(utilization, 0.0);
}

// ---------------------------------------------------------------------
// Airtime sharing on a VirtualClock
// ---------------------------------------------------------------------

TEST(ActivitySharing, StaticShareStaysTheDefaultModel) {
  // A transfer on a two-station cell is charged the full static
  // contention factor even though the second station is idle.
  auto clock = std::make_shared<sim::VirtualClock>();
  sim::SharedCellConfig config;
  config.uplink.throughput_mbps = 8.0;
  config.clock = clock;
  sim::SharedCell cell(config);
  const int station = cell.attach();
  cell.attach();  // idle, but statically counted

  const std::int64_t bytes = 1 << 20;
  const double solo_s = config.uplink.upload_time_s(bytes);
  sim::ActorGuard actor(*clock);
  const sim::TransferOutcome out = cell.uplink_transfer(station, 0, bytes);
  EXPECT_FALSE(out.cancelled);
  // The static delay is analytic (computed at reservation), so it is
  // exact — no clock quantization involved.
  EXPECT_DOUBLE_EQ(out.delay_s, 2.0 * solo_s);
}

// ---------------------------------------------------------------------
// Sessions under a VirtualClock: parity suite and acceptance scenario
// ---------------------------------------------------------------------

/// A fully trained tiny system shared by the session tests (built once:
/// training dominates the suite's runtime otherwise).
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

  /// Everything cloud-routed, one payload per frame, a finite (loose)
  /// cloud deadline: distinct deadlines give every request and pending
  /// upload a totally ordered scheduling key, which is what makes the
  /// service order — and with it every virtual timestamp —
  /// reproducible at any worker count.
  EngineConfig config(int worker_threads) {
    EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.0;
    cfg.backend = std::make_shared<RawImageBackend>(&cloud);
    cfg.batch_size = 1;
    cfg.worker_threads = worker_threads;
    cfg.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = 100000.0;
    return cfg;
  }
};

// Clock identity: a session and its cell must tick together.
TEST(VirtualClockLinks, MismatchedSessionAndCellClocksThrow) {
  Fixture& f = Fixture::instance();
  auto virtual_clock = std::make_shared<sim::VirtualClock>();
  sim::SharedCellConfig cell_config;
  cell_config.clock = virtual_clock;
  auto cell = std::make_shared<sim::SharedCell>(cell_config);
  EngineConfig cfg = f.config(1);
  cfg.cell = cell;

  // Session on the default WallClock, cell on a VirtualClock: refused,
  // and the refused session leaves no station attached.
  EXPECT_THROW(InferenceSession{cfg}, std::invalid_argument);
  EXPECT_EQ(cell->stations(), 0);
  // A different VirtualClock instance is just as wrong.
  cfg.clock = std::make_shared<sim::VirtualClock>();
  EXPECT_THROW(InferenceSession{cfg}, std::invalid_argument);
  EXPECT_EQ(cell->stations(), 0);
  // The same instance is fine: the session holds one station while it
  // lives.
  cfg.clock = virtual_clock;
  {
    InferenceSession session(cfg);
    EXPECT_EQ(cell->stations(), 1);
  }
  EXPECT_EQ(cell->stations(), 0);
}

/// Everything a scenario run produces, ordered by request id: the
/// clock-independent outcomes (route, prediction, transfer delays) and
/// the virtual-time figures (e2e latency, settle order) the determinism
/// contract covers.
struct ScenarioRun {
  std::vector<std::int64_t> ids;
  std::vector<core::Route> routes;
  std::vector<int> predictions;
  std::vector<double> upload_s;
  std::vector<double> download_s;
  std::vector<double> e2e_s;
  /// Ids ordered by settle instant (submit + e2e on the session clock).
  std::vector<std::int64_t> settle_order;
  double simulated_span_s = 0.0;
};

void fill_run(ScenarioRun& run, const std::vector<double>& submit_s,
              const std::vector<InferenceResult>& results) {
  std::vector<std::pair<double, std::int64_t>> settles;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InferenceResult& r = results[i];
    run.ids.push_back(r.id);
    run.routes.push_back(r.route);
    run.predictions.push_back(r.prediction);
    run.upload_s.push_back(r.upload_time_s);
    run.download_s.push_back(r.download_time_s);
    run.e2e_s.push_back(r.e2e_latency_s);
    const double settle_at = submit_s[i] + r.e2e_latency_s;
    settles.emplace_back(settle_at, r.id);
    run.simulated_span_s = std::max(run.simulated_span_s, settle_at);
  }
  std::sort(settles.begin(), settles.end());
  for (const auto& [at, id] : settles) {
    (void)at;
    run.settle_order.push_back(id);
  }
}

/// One seeded single-session scenario: `frames` frames submitted with a
/// fixed inter-arrival gap by a clock-registered driver over a jittered
/// one-station cell. `clock` null = WallClock (the pre-seam path).
ScenarioRun run_scenario(Fixture& f, std::shared_ptr<sim::Clock> clock, int workers,
                         int frames, double gap_s) {
  EngineConfig cfg = f.config(workers);
  sim::SharedCellConfig cell_config;
  cell_config.base_latency_s = 0.0005;
  cell_config.jitter_s = 0.0002;
  cell_config.seed = 0x5EED;
  cell_config.clock = clock;
  cfg.cell = std::make_shared<sim::SharedCell>(cell_config);
  cfg.clock = clock;

  const std::shared_ptr<sim::Clock> clk = sim::resolve_clock(clock);
  ScenarioRun run;
  {
    InferenceSession session(cfg);
    std::vector<ResultHandle> handles;
    std::vector<double> submit_s;
    std::vector<InferenceResult> results;
    {
      // The driver registers as a clock actor: under a VirtualClock its
      // submit timestamps are then deterministic (time cannot drift
      // while it is between submits).
      sim::ActorGuard driver(*clk);
      const auto t0 = clk->now();
      for (int i = 0; i < frames; ++i) {
        submit_s.push_back(sim::Clock::seconds_between(t0, clk->now()));
        handles.push_back(session.submit(f.ds.test.instance(i)));
        clk->sleep_for(gap_s);
      }
      for (ResultHandle& handle : handles) {
        const std::vector<InferenceResult> r = handle.wait();
        EXPECT_EQ(r.size(), 1u);
        if (!r.empty()) results.push_back(r.front());
      }
    }
    session.drain();
    EXPECT_EQ(results.size(), static_cast<std::size_t>(frames));
    fill_run(run, submit_s, results);
  }
  return run;
}

void expect_same_outcomes(const ScenarioRun& a, const ScenarioRun& b) {
  ASSERT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.predictions, b.predictions);
  for (std::size_t i = 0; i < a.ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.upload_s[i], b.upload_s[i]) << "upload diverged at request " << i;
    EXPECT_DOUBLE_EQ(a.download_s[i], b.download_s[i]) << "downlink diverged at request " << i;
  }
}

void expect_bit_identical_timings(const ScenarioRun& a, const ScenarioRun& b) {
  expect_same_outcomes(a, b);
  for (std::size_t i = 0; i < a.ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.e2e_s[i], b.e2e_s[i]) << "e2e latency diverged at request " << i;
  }
  EXPECT_EQ(a.settle_order, b.settle_order) << "settle order diverged";
}

TEST(VirtualTimeParity, VirtualRunsAreBitIdenticalAcrossRerunsAndWorkerCounts) {
  Fixture& f = Fixture::instance();
  constexpr int kFrames = 12;
  constexpr double kGapS = 0.0005;

  const ScenarioRun first =
      run_scenario(f, std::make_shared<sim::VirtualClock>(), 1, kFrames, kGapS);
  const ScenarioRun rerun =
      run_scenario(f, std::make_shared<sim::VirtualClock>(), 1, kFrames, kGapS);
  const ScenarioRun threaded =
      run_scenario(f, std::make_shared<sim::VirtualClock>(), 4, kFrames, kGapS);

  expect_bit_identical_timings(first, rerun);
  expect_bit_identical_timings(first, threaded);
  // Virtual e2e is pure simulated time: at least the request's own
  // transfer (up to nanosecond timestamp quantization — the analytic
  // delays are not ns-quantized, the clock is).
  for (std::size_t i = 0; i < first.ids.size(); ++i) {
    EXPECT_GE(first.e2e_s[i], first.upload_s[i] + first.download_s[i] - 1e-8);
  }
}

TEST(VirtualTimeParity, WallAndVirtualAgreeOnEveryClockIndependentOutcome) {
  Fixture& f = Fixture::instance();
  constexpr int kFrames = 12;
  constexpr double kGapS = 0.0005;

  // Wall leg: the exact same seeded scenario on the real clock — small
  // enough delays that it finishes in tens of milliseconds.
  const ScenarioRun wall = run_scenario(f, nullptr, 1, kFrames, kGapS);
  const ScenarioRun virt =
      run_scenario(f, std::make_shared<sim::VirtualClock>(), 1, kFrames, kGapS);

  // Routes, predictions and the simulated transfer delays are pure
  // functions of the scenario seed — identical across clock types. The
  // e2e figures are not compared: the wall leg pays real compute and
  // scheduling time on top of the simulated delays.
  expect_same_outcomes(wall, virt);
}

TEST(VirtualTimeAcceptance, TwoSessionsOnASaturatedCellReplayMinutesInMilliseconds) {
  Fixture& f = Fixture::instance();
  constexpr int kFrames = 16;  // per session

  struct TwoSessionRun {
    ScenarioRun a, b;
    /// Interleaved settle order across both sessions: (+id) for session
    /// A, (-id - 1) for session B.
    std::vector<std::int64_t> merged_settle_order;
    double simulated_span_s = 0.0;
    double wall_s = 0.0;
    double cell_utilization = 0.0;
  };

  auto run_pair = [&](int workers) {
    auto clock = std::make_shared<sim::VirtualClock>();
    // A slow, busy medium: frames over a 200 b/s uplink are
    // multi-second transfers, plus a 5 s propagation + cloud floor and
    // heavy jitter — hundreds of seconds of simulated traffic.
    sim::SharedCellConfig cell_config;
    cell_config.uplink.throughput_mbps = 0.0002;
    cell_config.downlink.throughput_mbps = 0.0002;
    cell_config.base_latency_s = 5.0;
    cell_config.jitter_s = 0.5;
    cell_config.seed = 0xF1EE7;
    cell_config.clock = clock;
    auto cell = std::make_shared<sim::SharedCell>(cell_config);

    EngineConfig cfg_a = f.config(workers);
    cfg_a.cell = cell;
    cfg_a.clock = clock;
    EngineConfig cfg_b = f.config(workers);
    cfg_b.cell = cell;
    cfg_b.clock = clock;

    TwoSessionRun out;
    const auto wall_start = std::chrono::steady_clock::now();
    {
      InferenceSession session_a(cfg_a);
      InferenceSession session_b(cfg_b);
      EXPECT_EQ(cell->stations(), 2);
      std::vector<ResultHandle> handles_a, handles_b;
      std::vector<double> submit_a, submit_b;
      std::vector<InferenceResult> results_a, results_b;
      {
        sim::ActorGuard driver(*clock);
        const auto t0 = clock->now();
        for (int i = 0; i < kFrames; ++i) {
          submit_a.push_back(sim::Clock::seconds_between(t0, clock->now()));
          handles_a.push_back(session_a.submit(f.ds.test.instance(i)));
          clock->sleep_for(0.05);
          submit_b.push_back(sim::Clock::seconds_between(t0, clock->now()));
          handles_b.push_back(session_b.submit(f.ds.test.instance(kFrames + i)));
          clock->sleep_for(0.05);
        }
        for (ResultHandle& h : handles_a) {
          const auto r = h.wait();
          EXPECT_EQ(r.size(), 1u);
          if (!r.empty()) results_a.push_back(r.front());
        }
        for (ResultHandle& h : handles_b) {
          const auto r = h.wait();
          EXPECT_EQ(r.size(), 1u);
          if (!r.empty()) results_b.push_back(r.front());
        }
      }
      session_a.drain();
      session_b.drain();
      fill_run(out.a, submit_a, results_a);
      fill_run(out.b, submit_b, results_b);

      std::vector<std::pair<double, std::int64_t>> merged;
      for (std::size_t i = 0; i < results_a.size(); ++i) {
        merged.emplace_back(submit_a[i] + results_a[i].e2e_latency_s, results_a[i].id);
      }
      for (std::size_t i = 0; i < results_b.size(); ++i) {
        merged.emplace_back(submit_b[i] + results_b[i].e2e_latency_s, -results_b[i].id - 1);
      }
      std::sort(merged.begin(), merged.end());
      for (const auto& [at, tag] : merged) {
        (void)at;
        out.merged_settle_order.push_back(tag);
      }
      out.simulated_span_s = std::max(out.a.simulated_span_s, out.b.simulated_span_s);
      out.cell_utilization = cell->utilization();
    }
    out.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    return out;
  };

  const TwoSessionRun first = run_pair(1);
  const TwoSessionRun rerun = run_pair(1);
  const TwoSessionRun threaded = run_pair(4);

  // Hundreds of simulated seconds on a heavily loaded medium...
  EXPECT_GE(first.simulated_span_s, 300.0);
  EXPECT_GT(first.cell_utilization, 0.5) << "the cell should be near saturation";
  // ...replayed in a small fraction of that, wall-clock. Optimized
  // builds must clear the ISSUE's 1% bar with a wide margin; Debug gets
  // slack for the unoptimized edge forwards.
#ifdef NDEBUG
  EXPECT_LT(first.wall_s, 0.01 * first.simulated_span_s);
#else
  EXPECT_LT(first.wall_s, 0.10 * first.simulated_span_s);
#endif

  // Bit-identical across reruns...
  expect_bit_identical_timings(first.a, rerun.a);
  expect_bit_identical_timings(first.b, rerun.b);
  EXPECT_EQ(first.merged_settle_order, rerun.merged_settle_order);
  EXPECT_DOUBLE_EQ(first.simulated_span_s, rerun.simulated_span_s);
  EXPECT_DOUBLE_EQ(first.cell_utilization, rerun.cell_utilization);
  // ...and across worker counts.
  expect_bit_identical_timings(first.a, threaded.a);
  expect_bit_identical_timings(first.b, threaded.b);
  EXPECT_EQ(first.merged_settle_order, threaded.merged_settle_order);
  EXPECT_DOUBLE_EQ(first.simulated_span_s, threaded.simulated_span_s);
}

TEST(VirtualTimeSessions, FreshSessionReportsZeroAirtimeUtilizationNotNaN) {
  Fixture& f = Fixture::instance();
  auto clock = std::make_shared<sim::VirtualClock>();
  sim::SharedCellConfig cell_config;
  cell_config.clock = clock;
  EngineConfig cfg = f.config(1);
  cfg.cell = std::make_shared<sim::SharedCell>(cell_config);
  cfg.clock = clock;
  InferenceSession session(cfg);
  // Polled within the same virtual instant the session (and its cell)
  // was created: zero airtime over a zero-width window.
  const SessionMetrics m = session.metrics();
  EXPECT_FALSE(std::isnan(m.cell_airtime_utilization));
  EXPECT_DOUBLE_EQ(m.cell_airtime_utilization, 0.0);
  EXPECT_DOUBLE_EQ(m.cell_busy_s, 0.0);
}

}  // namespace
}  // namespace meanet::runtime
