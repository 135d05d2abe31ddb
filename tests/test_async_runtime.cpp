// Tests for the asynchronous serving surface: ResultHandle semantics,
// the offload dispatcher's timeout -> edge-fallback path (NullBackend
// parity), decorator chain composition and the session metrics.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "runtime/backend_decorators.h"
#include "runtime/session.h"

#include "core/builders.h"
#include "core/trainer.h"
#include "sim/cloud_node.h"
#include "tiny_models.h"

namespace meanet::runtime {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;

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

  /// Offloading config: low entropy threshold so the cloud route fires.
  EngineConfig config() {
    EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.3;
    cfg.batch_size = 16;
    return cfg;
  }
};

/// A backend whose answer is gated on an external release() — makes the
/// in-flight / settled handle states deterministic to observe.
class GatedBackend : public OffloadBackend {
 public:
  std::vector<int> classify(const OffloadPayload& payload) override {
    std::unique_lock<std::mutex> lock(mutex_);
    gate_.wait(lock, [&] { return released_; });
    return std::vector<int>(static_cast<std::size_t>(payload.images.shape().batch()), 0);
  }
  bool needs_images() const override { return true; }
  std::int64_t payload_bytes(const Shape&, const Shape&) const override { return 0; }
  std::string describe() const override { return "gated"; }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable gate_;
  bool released_ = false;
};

/// Fails (throws) the first `failures` classify() calls, then delegates.
class FlakyBackend : public BackendDecorator {
 public:
  FlakyBackend(std::shared_ptr<OffloadBackend> inner, int failures)
      : BackendDecorator(std::move(inner)), remaining_(failures) {}

  std::vector<int> classify(const OffloadPayload& payload) override {
    if (remaining_ > 0) {
      --remaining_;
      throw std::runtime_error("transient link failure");
    }
    return inner().classify(payload);
  }
  std::string describe() const override { return "flaky+" + inner().describe(); }

 private:
  int remaining_;
};

TEST(ResultHandle, WaitTryGetReadySemantics) {
  Fixture& f = Fixture::instance();
  auto gate = std::make_shared<GatedBackend>();
  EngineConfig cfg = f.config();
  cfg.policy_config.entropy_threshold = 0.0;  // every instance -> cloud
  cfg.backend = gate;
  InferenceSession session(cfg);

  ResultHandle handle = session.submit(f.ds.test.instance(0));
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.count(), 1);
  // The backend is gated, so the request cannot settle yet.
  EXPECT_FALSE(handle.ready());
  EXPECT_FALSE(handle.try_get().has_value());

  gate->release();
  const std::vector<InferenceResult> results = handle.wait();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.front().id, handle.id());
  EXPECT_EQ(results.front().route, core::Route::kCloud);
  EXPECT_TRUE(results.front().offloaded);
  EXPECT_EQ(results.front().prediction, 0);  // the gated backend's answer

  // Reads are non-destructive: ready()/try_get()/wait() keep answering.
  EXPECT_TRUE(handle.ready());
  ASSERT_TRUE(handle.try_get().has_value());
  EXPECT_EQ(handle.wait().size(), 1u);
  // drain() still retires (and returns) the round.
  EXPECT_EQ(session.drain().size(), 1u);
}

TEST(ResultHandle, BatchSubmitYieldsContiguousIds) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  InferenceSession session(cfg);
  ResultHandle handle = session.submit(f.ds.test.images.slice_batch(0, 5));
  EXPECT_EQ(handle.count(), 5);
  const auto results = handle.wait();
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, handle.id() + static_cast<std::int64_t>(i));
  }
  session.drain();
}

TEST(ResultHandle, InvalidHandleThrows) {
  ResultHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW(handle.ready(), std::logic_error);
  EXPECT_THROW(handle.wait(), std::logic_error);
  EXPECT_THROW(handle.try_get(), std::logic_error);
}

TEST(OffloadTimeout, FallsBackToEdgeLikeNullBackend) {
  Fixture& f = Fixture::instance();

  EngineConfig null_cfg = f.config();  // no backend: NullBackend
  InferenceSession null_session(null_cfg);
  const auto baseline = null_session.run(f.ds.test);

  // A 100ms link behind a 1ms timeout: every offload times out and the
  // instances must keep their edge predictions, exactly like NullBackend.
  auto slow = std::make_shared<LatencyInjectingBackend>(
      std::make_shared<RawImageBackend>(&f.cloud), 0.100);
  EngineConfig slow_cfg = f.config();
  slow_cfg.backend = slow;
  slow_cfg.offload_timeout_s = 0.001;
  InferenceSession slow_session(slow_cfg);
  const auto timed_out = slow_session.run(f.ds.test);

  ASSERT_EQ(timed_out.size(), baseline.size());
  int cloud_routed = 0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(timed_out[i].route, baseline[i].route) << i;
    EXPECT_EQ(timed_out[i].prediction, baseline[i].prediction) << i;
    EXPECT_FALSE(timed_out[i].offloaded);
    if (timed_out[i].route == core::Route::kCloud) ++cloud_routed;
  }
  EXPECT_GT(cloud_routed, 0);

  const SessionMetrics m = slow_session.metrics();
  EXPECT_EQ(m.offload_timeouts, cloud_routed);
  EXPECT_GT(m.offload_dispatches, 0);
  // The cloud route's service latency includes the timed-out wait.
  const RouteLatencyStats& cloud_stats = m.route(core::Route::kCloud);
  EXPECT_EQ(cloud_stats.count, cloud_routed);
  EXPECT_GT(cloud_stats.p50_s, 0.0);
  EXPECT_GE(cloud_stats.p95_s, cloud_stats.p50_s);
}

TEST(OffloadTimeout, ThreadedTimeoutRunMatchesSingleThreaded) {
  Fixture& f = Fixture::instance();

  auto slow_backend = [&] {
    return std::make_shared<LatencyInjectingBackend>(
        std::make_shared<RawImageBackend>(&f.cloud), 0.100);
  };
  EngineConfig single = f.config();
  single.backend = slow_backend();
  single.offload_timeout_s = 0.001;
  InferenceSession single_session(single);
  const auto single_results = single_session.run(f.ds.test);

  EngineConfig threaded = f.config();
  threaded.backend = slow_backend();
  threaded.offload_timeout_s = 0.001;
  threaded.worker_threads = 4;  // all sharing the one net
  threaded.batch_size = 8;
  threaded.queue_capacity = 4;
  InferenceSession threaded_session(threaded);
  ASSERT_EQ(threaded_session.worker_count(), 4);
  const auto threaded_results = threaded_session.run(f.ds.test);

  ASSERT_EQ(threaded_results.size(), single_results.size());
  for (std::size_t i = 0; i < single_results.size(); ++i) {
    EXPECT_EQ(threaded_results[i].route, single_results[i].route) << i;
    EXPECT_EQ(threaded_results[i].prediction, single_results[i].prediction) << i;
  }
}

TEST(BackendDecorators, LosslessChainMatchesBareBackend) {
  Fixture& f = Fixture::instance();
  EngineConfig bare = f.config();
  bare.backend = std::make_shared<RawImageBackend>(&f.cloud);
  InferenceSession bare_session(bare);
  const auto expected = bare_session.run(f.ds.test);

  // A chain that perturbs nothing: 0% loss, 0ms latency, retries unused.
  EngineConfig chained = f.config();
  chained.backend = std::make_shared<RetryingBackend>(
      std::make_shared<LossyBackend>(
          std::make_shared<LatencyInjectingBackend>(
              std::make_shared<RawImageBackend>(&f.cloud), 0.0),
          0.0),
      2);
  InferenceSession chained_session(chained);
  const auto actual = chained_session.run(f.ds.test);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].route, expected[i].route) << i;
    EXPECT_EQ(actual[i].prediction, expected[i].prediction) << i;
    EXPECT_EQ(actual[i].offloaded, expected[i].offloaded) << i;
  }
}

TEST(BackendDecorators, TotalLossBehavesLikeNullBackend) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  cfg.backend = std::make_shared<LossyBackend>(
      std::make_shared<RawImageBackend>(&f.cloud), 1.0);
  InferenceSession session(cfg);
  int cloud_routed = 0;
  for (const InferenceResult& r : session.run(f.ds.test)) {
    if (r.route != core::Route::kCloud) continue;
    ++cloud_routed;
    EXPECT_FALSE(r.offloaded);
    EXPECT_EQ(r.prediction, r.edge_prediction);
  }
  EXPECT_GT(cloud_routed, 0);
}

TEST(BackendDecorators, RetryRecoversFromTransientFailures) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  // The flaky link throws twice per session lifetime; three attempts on
  // the first payload absorb them.
  cfg.backend = std::make_shared<RetryingBackend>(
      std::make_shared<FlakyBackend>(std::make_shared<RawImageBackend>(&f.cloud), 2), 3);
  InferenceSession session(cfg);
  int cloud_routed = 0;
  for (const InferenceResult& r : session.run(f.ds.test)) {
    if (r.route != core::Route::kCloud) continue;
    ++cloud_routed;
    EXPECT_TRUE(r.offloaded);  // every payload eventually got through
  }
  EXPECT_GT(cloud_routed, 0);
}

TEST(BackendDecorators, ChainForwardsContractAndDescription) {
  Fixture& f = Fixture::instance();
  auto raw = std::make_shared<RawImageBackend>(&f.cloud);
  auto chain = std::make_shared<RetryingBackend>(
      std::make_shared<LossyBackend>(
          std::make_shared<LatencyInjectingBackend>(raw, 0.001), 0.5),
      3);
  EXPECT_TRUE(chain->needs_images());
  EXPECT_FALSE(chain->needs_features());
  const Shape image{1, 2, 8, 8};
  const Shape feature{1, 4, 4, 4};
  EXPECT_EQ(chain->payload_bytes(image, feature), raw->payload_bytes(image, feature));
  EXPECT_EQ(chain->describe(), "retry(3)+lossy(0.5)+latency(1ms)+raw-image");
  EXPECT_THROW(LatencyInjectingBackend(nullptr, 0.0), std::invalid_argument);
  EXPECT_THROW(LossyBackend(raw, 1.5), std::invalid_argument);
  EXPECT_THROW(RetryingBackend(raw, 0), std::invalid_argument);
}

TEST(SessionMetrics, PercentilesAndCountsAreSaneUnderFourWorkers) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
  cfg.worker_threads = 4;  // all sharing the one net
  cfg.batch_size = 8;
  InferenceSession session(cfg);

  // Feed single frames so the queue actually backs up across workers.
  for (int i = 0; i < f.ds.test.size(); ++i) session.submit(f.ds.test.instance(i));
  const auto results = session.drain();
  const SessionMetrics m = session.metrics();

  EXPECT_EQ(m.submitted_instances, f.ds.test.size());
  EXPECT_EQ(m.completed_instances, f.ds.test.size());
  EXPECT_GE(m.queue_depth_high_water, 1);
  const core::RouteCounts routes = count_routes(results);
  EXPECT_EQ(m.route_count(core::Route::kMainExit), routes.main_exit);
  EXPECT_EQ(m.route_count(core::Route::kExtensionExit), routes.extension_exit);
  EXPECT_EQ(m.route_count(core::Route::kCloud), routes.cloud);
  std::int64_t total = 0;
  for (const RouteLatencyStats& stats : m.per_route) {
    total += stats.count;
    if (stats.count > 0) {
      EXPECT_GE(stats.p50_s, 0.0);
      EXPECT_LE(stats.p50_s, stats.p95_s);
      EXPECT_LE(stats.p95_s, stats.p99_s);
    }
  }
  EXPECT_EQ(total, f.ds.test.size());
}

TEST(SessionMetrics, PercentileIsNearestRank) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 0.95), 4.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(NeededSignals, PolicyMasksMatchWhatTheyRead) {
  Fixture& f = Fixture::instance();
  EXPECT_EQ(core::EntropyThresholdPolicy(f.dict, core::PolicyConfig{}).needed_signals(),
            core::kSignalEntropy);
  EXPECT_EQ(core::ConfidenceMarginPolicy(f.dict, core::MarginPolicyConfig{}).needed_signals(),
            core::kSignalMargin);
  EXPECT_EQ(core::AlwaysExtendPolicy().needed_signals(), 0u);
}

TEST(NeededSignals, EngineSkipsSignalsThePolicyDoesNotRead) {
  Fixture& f = Fixture::instance();
  // Entropy policy: entropy is computed, margin reduction is skipped.
  EngineConfig entropy_cfg = f.config();
  InferenceSession entropy_session(entropy_cfg);
  for (const InferenceResult& r : entropy_session.run(f.ds.test)) {
    EXPECT_GT(r.entropy, 0.0f);
    EXPECT_EQ(r.margin, 0.0f);
  }
  // Margin policy: the reverse.
  EngineConfig margin_cfg = f.config();
  core::MarginPolicyConfig margin;
  margin.margin_threshold = 0.35;
  margin.cloud_available = true;
  margin_cfg.policy = std::make_shared<core::ConfidenceMarginPolicy>(f.dict, margin);
  InferenceSession margin_session(margin_cfg);
  for (const InferenceResult& r : margin_session.run(f.ds.test)) {
    EXPECT_EQ(r.entropy, 0.0f);
    EXPECT_GT(r.margin, 0.0f);
  }
}

}  // namespace
}  // namespace meanet::runtime
