// Deterministic soak / property harness for the async serving layer
// (ctest label: "soak"). Every phase runs under a sim::VirtualClock, so
// the injected link latencies, deadlines and WiFi uploads are scheduled
// events instead of wall sleeps — thousands of ops finish in seconds.
//
// Three phases:
//   1. Churn: thousands of mixed submit / cancel / wait / drain ops
//      against a lossy + jittered backend under 4 workers, with a
//      cancel storm covering well over 25% of the in-flight requests.
//      Asserts the lifecycle invariants — every submitted instance ends
//      up in exactly one of completed/cancelled/failed, callbacks fire
//      exactly once, and no completion state leaks.
//   2. Determinism: the same seeded serial op stream run twice against
//      a lossy link must produce byte-identical per-frame predictions
//      and therefore identical aggregate accuracy.
//   3. Deadline tail: on a jittered WiFi-timed link, the cloud route's
//      p99 end-to-end latency is bounded by the per-route deadline
//      while accuracy degrades only to edge-only (NullBackend) parity,
//      never below.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "runtime/backend_decorators.h"
#include "runtime/session.h"

#include "core/builders.h"
#include "core/trainer.h"
#include "sim/cloud_node.h"
#include "sim/event_loop.h"
#include "tiny_models.h"

namespace meanet::runtime {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;

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

  EngineConfig config() {
    EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.3;
    return cfg;
  }
};

TEST(Soak, ChurnWithCancelStormKeepsInvariantsAndLeaksNothing) {
  Fixture& f = Fixture::instance();
  const std::int64_t live_baseline = detail::RequestState::live_count.load();

  constexpr int kOps = 2500;
  util::Rng rng(0x50AC);
  std::vector<std::shared_ptr<std::atomic<int>>> fired;
  std::int64_t submitted_requests = 0, submitted_instances = 0;
  std::int64_t cancel_attempts = 0, cancel_wins = 0;
  std::int64_t waited_results = 0, drained_results = 0;
  SessionMetrics final_metrics;
  {
    auto clock = std::make_shared<sim::VirtualClock>();
    EngineConfig cfg = f.config();
    cfg.clock = clock;
    cfg.backend = std::make_shared<LossyBackend>(
        std::make_shared<LatencyInjectingBackend>(
            std::make_shared<RawImageBackend>(&f.cloud), 0.0005, /*jitter_s=*/0.002,
            /*seed=*/0xBEEF, clock),
        /*loss_rate=*/0.25, /*seed=*/0xFEED);
    cfg.offload_timeout_s = 0.002;
    cfg.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = 0.250;
    cfg.worker_threads = 4;  // all sharing the one net
    cfg.batch_size = 4;
    cfg.queue_capacity = 64;
    InferenceSession session(cfg);
    // The churn driver registers too: virtual time only moves while it
    // is blocked in submit (queue full), wait or drain.
    sim::ActorGuard driver(*clock);

    std::vector<ResultHandle> live;     // handles not yet waited
    std::vector<ResultHandle> retired;  // waited (kept for the final audit)
    auto audit = [&](ResultHandle& h) {
      const auto results = h.wait();
      if (h.cancelled()) {
        ASSERT_TRUE(results.empty());
      } else {
        ASSERT_EQ(static_cast<int>(results.size()), h.count());
        waited_results += static_cast<std::int64_t>(results.size());
      }
      retired.push_back(h);
    };

    for (int op = 0; op < kOps; ++op) {
      const int dice = rng.uniform_int(0, 99);
      if (dice < 60 || live.empty()) {
        // Submit 1..3 instances; 1 in 10 requests carries an
        // already-hopeless deadline, 1 in 2 a completion callback.
        const int instances = rng.uniform_int(1, 3);
        const int start = rng.uniform_int(0, f.ds.test.size() - instances);
        SubmitOptions opts;
        if (rng.bernoulli(0.1)) opts.deadline_s = 0.0;
        if (rng.bernoulli(0.5)) {
          auto counter = std::make_shared<std::atomic<int>>(0);
          fired.push_back(counter);
          opts.on_complete = [counter](const ResultHandle&) { ++*counter; };
        }
        live.push_back(
            session.submit(f.ds.test.images.slice_batch(start, instances), std::move(opts)));
        ++submitted_requests;
        submitted_instances += instances;
      } else if (dice < 85) {
        // Cancel storm: well over 25% of requests see a cancel attempt.
        ResultHandle& victim =
            live[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1))];
        ++cancel_attempts;
        if (victim.cancel()) ++cancel_wins;
      } else if (dice < 95) {
        // Wait (and audit) a random in-flight handle.
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1));
        audit(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Drain the round (results of cancelled requests never appear).
        drained_results += static_cast<std::int64_t>(session.drain().size());
      }
    }
    for (ResultHandle& h : live) audit(h);
    drained_results += static_cast<std::int64_t>(session.drain().size());

    // All requests settled: the counters must balance exactly.
    final_metrics = session.metrics();
    EXPECT_EQ(final_metrics.submitted_instances, submitted_instances);
    EXPECT_EQ(final_metrics.failed_instances, 0);
    EXPECT_EQ(final_metrics.completed_instances + final_metrics.cancelled_instances +
                  final_metrics.failed_instances,
              submitted_instances);
    std::int64_t per_route = 0;
    for (const RouteLatencyStats& stats : final_metrics.per_route) per_route += stats.count;
    EXPECT_EQ(per_route, final_metrics.completed_instances);
    EXPECT_LE(final_metrics.offload_timeouts + final_metrics.deadline_expirations,
              final_metrics.completed_instances);
    EXPECT_LE(final_metrics.queue_depth_high_water, 64);
    EXPECT_GT(final_metrics.offload_dispatches, 0);
  }  // session destruction flushes callbacks and joins every thread

  // The storm really was a storm, and it left no half-states behind.
  EXPECT_GE(cancel_attempts * 4, submitted_requests) << "cancel storm below 25%";
  EXPECT_GT(cancel_wins, 0);
  EXPECT_EQ(final_metrics.cancelled_instances + waited_results, submitted_instances);

  // Exactly-once callbacks, cancelled or completed alike.
  for (const auto& counter : fired) EXPECT_EQ(counter->load(), 1);

  // No completion-state leaks: every RequestState died with its handles.
  fired.clear();
  EXPECT_EQ(detail::RequestState::live_count.load(), live_baseline);
}

/// One serial pass over `frames` frame indices: submit -> wait each,
/// collecting predictions; the lossy link's seeded drop stream makes
/// the outcome a pure function of the seeds.
struct SerialRun {
  std::vector<int> predictions;
  std::int64_t offloaded = 0;
  double accuracy = 0.0;
  SessionMetrics metrics;
};

SerialRun serial_run(Fixture& f, const std::vector<int>& frames) {
  auto clock = std::make_shared<sim::VirtualClock>();
  EngineConfig cfg = f.config();
  cfg.clock = clock;
  cfg.backend = std::make_shared<LossyBackend>(
      std::make_shared<LatencyInjectingBackend>(std::make_shared<RawImageBackend>(&f.cloud),
                                                0.0002, /*jitter_s=*/0.001, /*seed=*/88, clock),
      /*loss_rate=*/0.3, /*seed=*/77);
  cfg.batch_size = 1;
  InferenceSession session(cfg);
  sim::ActorGuard driver(*clock);
  SerialRun out;
  std::int64_t correct = 0;
  for (const int frame : frames) {
    const auto results = session.submit(f.ds.test.instance(frame)).wait();
    EXPECT_EQ(results.size(), 1u);
    const InferenceResult& r = results.front();
    out.predictions.push_back(r.prediction);
    if (r.offloaded) ++out.offloaded;
    if (r.prediction == f.ds.test.labels[static_cast<std::size_t>(frame)]) ++correct;
    if (out.predictions.size() % 64 == 0) session.drain();
  }
  session.drain();
  out.accuracy = static_cast<double>(correct) / static_cast<double>(frames.size());
  out.metrics = session.metrics();
  return out;
}

TEST(Soak, SameSeedSameAggregateAccuracyOnALossyJitteredLink) {
  Fixture& f = Fixture::instance();
  // A fixed (seeded) stream of 400 frame picks, so the lossy link and
  // the offload path both stay hot.
  util::Rng rng(0xD1CE);
  std::vector<int> frames;
  for (int i = 0; i < 400; ++i) frames.push_back(rng.uniform_int(0, f.ds.test.size() - 1));

  const SerialRun a = serial_run(f, frames);
  const SerialRun b = serial_run(f, frames);

  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i], b.predictions[i]) << "prediction diverged at frame op " << i;
  }
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.offloaded, b.offloaded);
  EXPECT_EQ(a.metrics.completed_instances, b.metrics.completed_instances);
  EXPECT_EQ(a.metrics.offload_dispatches, b.metrics.offload_dispatches);
  // The stream exercised what it claims to exercise.
  EXPECT_GT(a.offloaded, 0);
  EXPECT_GT(a.metrics.route_count(core::Route::kCloud) - a.offloaded, 0)
      << "the lossy link never dropped anything";
}

TEST(Soak, DeadlineBoundsTailLatencyAtEdgeParityOnAWifiTimedLink) {
  Fixture& f = Fixture::instance();

  // Edge-only baseline: the accuracy floor deadlines may degrade to,
  // never below.
  EngineConfig null_cfg = f.config();
  InferenceSession null_session(null_cfg);
  const auto baseline = null_session.run(f.ds.test);

  // A WiFi cell so slow that one 128-byte frame upload takes ~80ms,
  // plus up to 20ms of seeded jitter.
  sim::SharedCellConfig cell_config;
  cell_config.uplink.throughput_mbps = 0.0128;
  cell_config.jitter_s = 0.020;
  cell_config.seed = 0x31415;
  const double upload_s = cell_config.uplink.upload_time_s(128);
  ASSERT_NEAR(upload_s, 0.080, 0.001);
  constexpr double kDeadlineS = 0.012;
  constexpr int kFrames = 12;

  auto closed_loop = [&](bool with_deadline) {
    auto clock = std::make_shared<sim::VirtualClock>();
    EngineConfig cfg = f.config();
    cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
    // A fresh one-station cell per session, on the session's clock.
    sim::SharedCellConfig session_cell = cell_config;
    session_cell.clock = clock;
    cfg.cell = std::make_shared<sim::SharedCell>(session_cell);
    cfg.clock = clock;
    if (with_deadline) {
      cfg.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = kDeadlineS;
    }
    InferenceSession session(cfg);
    sim::ActorGuard driver(*clock);
    std::vector<InferenceResult> results;
    // Closed loop (submit -> wait) so the tail measures the link and
    // the deadline, not self-inflicted queueing.
    for (int i = 0; i < kFrames; ++i) {
      results.push_back(session.submit(f.ds.test.instance(i)).wait().front());
    }
    session.drain();
    return std::make_pair(std::move(results), session.metrics());
  };

  const auto [no_deadline_results, no_deadline_metrics] = closed_loop(false);
  const auto [deadline_results, deadline_metrics] = closed_loop(true);

  const double no_deadline_p99 = no_deadline_metrics.route(core::Route::kCloud).p99_s;
  const double deadline_p99 = deadline_metrics.route(core::Route::kCloud).p99_s;
  ASSERT_GT(no_deadline_metrics.route_count(core::Route::kCloud), 0);

  // Without a deadline every cloud frame pays the full upload.
  EXPECT_GE(no_deadline_p99, upload_s);
  // With one, the tail is bounded by the deadline (plus edge-pass and
  // scheduling slack — generous for CI, still far under the upload).
  EXPECT_LE(deadline_p99, kDeadlineS + 0.048);
  EXPECT_LT(deadline_p99, no_deadline_p99);
  EXPECT_EQ(deadline_metrics.deadline_expirations,
            deadline_metrics.route_count(core::Route::kCloud));

  // Accuracy degrades exactly to edge-only parity, never below: every
  // expired frame carries the same prediction NullBackend would give.
  for (int i = 0; i < kFrames; ++i) {
    const InferenceResult& r = deadline_results[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.route, baseline[static_cast<std::size_t>(i)].route) << i;
    EXPECT_EQ(r.prediction, baseline[static_cast<std::size_t>(i)].prediction) << i;
    if (r.route == core::Route::kCloud) {
      EXPECT_FALSE(r.offloaded) << i;
      EXPECT_TRUE(r.deadline_expired) << i;
    }
  }
}

}  // namespace
}  // namespace meanet::runtime
