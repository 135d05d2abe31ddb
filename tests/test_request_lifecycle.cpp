// Tests for the request lifecycle added on top of the async serving
// API: per-route deadlines (expiry -> edge-prediction parity with
// NullBackend, never worse), ResultHandle::cancel() racing cleanly with
// the workers and the dispatcher, completion callbacks firing exactly
// once and never on a serving worker thread, and WiFi-timed offloads
// on a session's cell (the upload gates the answer).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
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

/// Counts classify() calls and instances before delegating.
class CountingBackend : public BackendDecorator {
 public:
  explicit CountingBackend(std::shared_ptr<OffloadBackend> inner)
      : BackendDecorator(std::move(inner)) {}

  std::vector<int> classify(const OffloadPayload& payload) override {
    ++calls_;
    return inner().classify(payload);
  }
  std::string describe() const override { return "counting+" + inner().describe(); }

  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

/// A backend whose answer is gated on an external release(); counts its
/// calls so cancelled-while-queued requests can prove they never
/// reached it.
class GatedBackend : public OffloadBackend {
 public:
  std::vector<int> classify(const OffloadPayload& payload) override {
    ++calls_;
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

  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
  std::mutex mutex_;
  std::condition_variable gate_;
  bool released_ = false;
};

/// Routing policy decorator that records the threads route() runs on —
/// i.e. the session's serving workers.
class ThreadRecordingPolicy : public core::RoutingPolicy {
 public:
  explicit ThreadRecordingPolicy(std::shared_ptr<const core::RoutingPolicy> inner)
      : inner_(std::move(inner)) {}

  core::Route route(const core::RouteSignals& signals) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      threads_.insert(std::this_thread::get_id());
    }
    return inner_->route(signals);
  }
  unsigned needed_signals() const override { return inner_->needed_signals(); }
  std::string describe() const override { return "thread-recording+" + inner_->describe(); }

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  std::shared_ptr<const core::RoutingPolicy> inner_;
  mutable std::mutex mutex_;
  mutable std::set<std::thread::id> threads_;
};

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

TEST(Deadlines, ExpiryFallsBackToEdgeExactlyLikeNullBackend) {
  Fixture& f = Fixture::instance();

  EngineConfig null_cfg = f.config();  // no backend: NullBackend
  InferenceSession null_session(null_cfg);
  const auto baseline = null_session.run(f.ds.test);

  // A 100ms link behind a 2ms *deadline* — the offload timeout stays
  // infinite, so every fallback below is the deadline's doing, not the
  // timeout's.
  EngineConfig cfg = f.config();
  cfg.backend = std::make_shared<LatencyInjectingBackend>(
      std::make_shared<RawImageBackend>(&f.cloud), 0.100);
  cfg.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = 0.002;
  InferenceSession session(cfg);
  const auto expired = session.run(f.ds.test);

  ASSERT_EQ(expired.size(), baseline.size());
  int cloud_routed = 0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(expired[i].route, baseline[i].route) << i;
    EXPECT_EQ(expired[i].prediction, baseline[i].prediction) << i;
    EXPECT_FALSE(expired[i].offloaded);
    if (expired[i].route == core::Route::kCloud) {
      ++cloud_routed;
      EXPECT_EQ(expired[i].prediction, expired[i].edge_prediction) << i;
      EXPECT_TRUE(expired[i].deadline_expired) << i;
    }
  }
  ASSERT_GT(cloud_routed, 0);

  const SessionMetrics m = session.metrics();
  EXPECT_EQ(m.deadline_expirations, cloud_routed);
  EXPECT_EQ(m.offload_timeouts, 0);  // distinct accounting
  EXPECT_EQ(m.completed_instances, f.ds.test.size());
}

TEST(Deadlines, ExpiredBeforeDispatchNeverTouchesTheBackend) {
  Fixture& f = Fixture::instance();
  auto counting = std::make_shared<CountingBackend>(std::make_shared<RawImageBackend>(&f.cloud));
  EngineConfig cfg = f.config();
  cfg.policy_config.entropy_threshold = 0.0;  // every instance -> cloud
  cfg.backend = counting;
  // Already expired when the worker routes it: the payload is never
  // built, the dispatcher never sees it.
  cfg.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = 0.0;
  InferenceSession session(cfg);
  const auto results = session.run(f.ds.test);

  for (const InferenceResult& r : results) {
    ASSERT_EQ(r.route, core::Route::kCloud);
    EXPECT_FALSE(r.offloaded);
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_EQ(r.prediction, r.edge_prediction);
  }
  EXPECT_EQ(counting->calls(), 0);
  const SessionMetrics m = session.metrics();
  EXPECT_EQ(m.offload_dispatches, 0);
  EXPECT_EQ(m.deadline_expirations, f.ds.test.size());
}

TEST(Deadlines, PerSubmitOverrideBeatsTheSessionDefault) {
  Fixture& f = Fixture::instance();
  auto counting = std::make_shared<CountingBackend>(std::make_shared<RawImageBackend>(&f.cloud));
  EngineConfig cfg = f.config();
  cfg.policy_config.entropy_threshold = 0.0;
  cfg.backend = counting;  // session default deadline: unbounded
  InferenceSession session(cfg);

  SubmitOptions expired_now;
  expired_now.deadline_s = 0.0;
  ResultHandle bounded = session.submit(f.ds.test.instance(0), expired_now);
  ResultHandle unbounded = session.submit(f.ds.test.instance(1));
  const auto b = bounded.wait();
  const auto u = unbounded.wait();
  session.drain();

  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.front().deadline_expired);
  EXPECT_FALSE(b.front().offloaded);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_FALSE(u.front().deadline_expired);
  EXPECT_TRUE(u.front().offloaded);
  EXPECT_EQ(counting->calls(), 1);  // only the unbounded frame uploaded
}

TEST(Deadlines, SubmitRejectsANegativeDeadline) {
  Fixture& f = Fixture::instance();
  InferenceSession session(f.config());
  const double inf = std::numeric_limits<double>::infinity();
  // -inf and anything at or below about -9.2e9 s would overflow the
  // int64 nanosecond cast of a deadline time point.
  for (const double bad : {-1e-9, -1.0, -1e10, -inf}) {
    SubmitOptions opts;
    opts.deadline_s = bad;
    EXPECT_THROW(session.submit(f.ds.test.instance(0), opts), std::invalid_argument) << bad;
  }
  EXPECT_EQ(session.metrics().submitted_instances, 0);
  // NaN still means "the session default"; 0 and +inf are valid bounds.
  for (const double good : {std::numeric_limits<double>::quiet_NaN(), 0.0, inf}) {
    SubmitOptions opts;
    opts.deadline_s = good;
    EXPECT_EQ(session.submit(f.ds.test.instance(0), opts).wait().size(), 1u) << good;
  }
  session.drain();
}

TEST(Deadlines, ConstructorRejectsNaNOrNegativeRouteDeadlinesAndANaNTimeout) {
  Fixture& f = Fixture::instance();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t route = 0; route < core::kNumRoutes; ++route) {
    for (const double bad : {nan, -1e-9, -1e10, -inf}) {
      EngineConfig cfg = f.config();
      cfg.route_deadline_s[route] = bad;
      EXPECT_THROW(InferenceSession{cfg}, std::invalid_argument) << route << " " << bad;
    }
  }
  EngineConfig cfg = f.config();
  cfg.offload_timeout_s = nan;
  EXPECT_THROW(InferenceSession{cfg}, std::invalid_argument);
  // A non-positive timeout ("never wait") and a zero deadline stay valid.
  cfg.offload_timeout_s = -1.0;
  cfg.set_deadline_s(0.0);
  EXPECT_NO_THROW(InferenceSession{cfg});
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(Cancellation, CancelledWhileQueuedNeverTouchesEngineOrBackend) {
  Fixture& f = Fixture::instance();
  auto gate = std::make_shared<GatedBackend>();
  EngineConfig cfg = f.config();
  cfg.policy_config.entropy_threshold = 0.0;  // every instance -> cloud
  cfg.backend = gate;
  cfg.batch_size = 1;  // no coalescing: the victims stay queued
  InferenceSession session(cfg);

  // The single worker picks up the first frame and blocks inside the
  // gated offload; everything submitted after it sits in the queue.
  ResultHandle in_flight = session.submit(f.ds.test.instance(0));
  std::vector<ResultHandle> victims;
  for (int i = 1; i <= 5; ++i) victims.push_back(session.submit(f.ds.test.instance(i)));
  for (ResultHandle& v : victims) EXPECT_TRUE(v.cancel());
  gate->release();

  const auto first = in_flight.wait();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first.front().offloaded);
  for (ResultHandle& v : victims) {
    EXPECT_TRUE(v.ready());
    EXPECT_TRUE(v.cancelled());
    EXPECT_TRUE(v.wait().empty());
    ASSERT_TRUE(v.try_get().has_value());
    EXPECT_TRUE(v.try_get()->empty());
    EXPECT_FALSE(v.cancel());  // already cancelled: no-op
  }
  // drain() retires the round; cancelled requests contribute nothing.
  EXPECT_EQ(session.drain().size(), 1u);

  EXPECT_EQ(gate->calls(), 1);  // only the in-flight frame's payload
  const SessionMetrics m = session.metrics();
  EXPECT_EQ(m.submitted_instances, 6);
  EXPECT_EQ(m.completed_instances, 1);
  EXPECT_EQ(m.cancelled_instances, 5);
  EXPECT_EQ(m.offload_dispatches, 1);
}

TEST(Cancellation, CancelAfterCompleteIsANoOp) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  InferenceSession session(cfg);
  ResultHandle handle = session.submit(f.ds.test.instance(0));
  const auto results = handle.wait();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(handle.cancel());
  EXPECT_FALSE(handle.cancelled());
  EXPECT_EQ(handle.wait().size(), 1u);  // results untouched
  EXPECT_EQ(session.drain().size(), 1u);
  EXPECT_EQ(session.metrics().cancelled_instances, 0);
}

TEST(Cancellation, RacesCleanlyWithFourWorkersOverSeededIterations) {
  Fixture& f = Fixture::instance();
  util::Rng rng(0xCA7);
  constexpr int kIterations = 12;
  constexpr int kRequests = 24;
  for (int iter = 0; iter < kIterations; ++iter) {
    EngineConfig cfg = f.config();
    cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
    cfg.worker_threads = 4;  // all sharing the one net
    cfg.batch_size = 2;
    std::vector<std::shared_ptr<std::atomic<int>>> fired;
    std::vector<ResultHandle> handles;
    std::int64_t cancel_wins = 0;
    {
      InferenceSession session(cfg);
      for (int i = 0; i < kRequests; ++i) {
        auto counter = std::make_shared<std::atomic<int>>(0);
        fired.push_back(counter);
        SubmitOptions opts;
        opts.on_complete = [counter](const ResultHandle&) { ++*counter; };
        handles.push_back(
            session.submit(f.ds.test.instance(i % f.ds.test.size()), std::move(opts)));
      }
      // Cancel roughly half of them while the workers are mid-flight.
      for (int i = 0; i < kRequests; ++i) {
        if (rng.bernoulli(0.5) && handles[static_cast<std::size_t>(i)].cancel()) ++cancel_wins;
      }
      // Every handle is either cancelled or carries exactly one result —
      // never both, never neither.
      std::int64_t completed = 0;
      for (ResultHandle& h : handles) {
        const auto results = h.wait();
        if (h.cancelled()) {
          EXPECT_TRUE(results.empty());
        } else {
          ASSERT_EQ(results.size(), 1u);
          ++completed;
        }
      }
      const SessionMetrics m = session.metrics();
      EXPECT_EQ(m.submitted_instances, kRequests);
      EXPECT_EQ(m.cancelled_instances, cancel_wins);
      EXPECT_EQ(m.completed_instances, completed);
      EXPECT_EQ(m.completed_instances + m.cancelled_instances + m.failed_instances, kRequests);
      session.drain();
    }
    // The session is gone: its callback thread flushed every callback —
    // exactly one firing per request, cancelled or completed.
    for (const auto& counter : fired) EXPECT_EQ(counter->load(), 1);
  }
}

// ---------------------------------------------------------------------
// Completion callbacks
// ---------------------------------------------------------------------

TEST(CompletionCallbacks, FireExactlyOnceWithAReadyHandleOffTheWorkerThreads) {
  Fixture& f = Fixture::instance();
  auto recording = std::make_shared<ThreadRecordingPolicy>(
      std::make_shared<core::EntropyThresholdPolicy>(f.dict, [&] {
        core::PolicyConfig pc;
        pc.cloud_available = true;
        pc.entropy_threshold = 0.3;
        return pc;
      }()));
  std::mutex seen_mutex;
  std::set<std::thread::id> callback_threads;
  std::atomic<int> fired{0};
  std::atomic<int> ready_at_callback{0};
  constexpr int kRequests = 16;
  {
    EngineConfig cfg = f.config();
    cfg.policy = recording;
    cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
    cfg.worker_threads = 2;  // both sharing the one net
    cfg.batch_size = 2;
    InferenceSession session(cfg);
    std::vector<ResultHandle> handles;
    for (int i = 0; i < kRequests; ++i) {
      SubmitOptions opts;
      opts.on_complete = [&](const ResultHandle& h) {
        {
          std::lock_guard<std::mutex> lock(seen_mutex);
          callback_threads.insert(std::this_thread::get_id());
        }
        if (h.ready()) ++ready_at_callback;
        ++fired;
      };
      handles.push_back(session.submit(f.ds.test.instance(i), std::move(opts)));
    }
    // Cancel one too: its callback must also fire (once, same thread).
    handles.front().cancel();
    for (ResultHandle& h : handles) h.wait();
    session.drain();
  }  // destruction flushes the callback queue

  EXPECT_EQ(fired.load(), kRequests);
  EXPECT_EQ(ready_at_callback.load(), kRequests);
  ASSERT_EQ(callback_threads.size(), 1u) << "callbacks ran on more than one thread";
  const std::thread::id callback_thread = *callback_threads.begin();
  EXPECT_NE(callback_thread, std::this_thread::get_id()) << "callback ran on the caller";
  for (const std::thread::id worker : recording->threads()) {
    EXPECT_NE(callback_thread, worker) << "callback ran on a serving worker";
  }
}

// ---------------------------------------------------------------------
// WiFi-timed transport
// ---------------------------------------------------------------------

TEST(WifiTransport, UploadTimeScalesWithPayloadAndGatesTheAnswer) {
  Fixture& f = Fixture::instance();
  // A frame is 2x8x8 -> 128 payload bytes for the raw-image backend.
  // At 0.01 Mb/s that is a 102.4ms upload.
  auto clock = std::make_shared<sim::VirtualClock>();
  sim::SharedCellConfig cell_config;
  cell_config.uplink.throughput_mbps = 0.01;
  cell_config.clock = clock;
  const double upload_s = cell_config.uplink.upload_time_s(128);
  ASSERT_NEAR(upload_s, 0.1024, 1e-9);

  EngineConfig cfg = f.config();
  cfg.policy_config.entropy_threshold = 0.0;  // the frame -> cloud
  cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
  cfg.cell = std::make_shared<sim::SharedCell>(cell_config);
  cfg.clock = clock;
  InferenceSession session(cfg);
  sim::ActorGuard driver(*clock);

  // Elapsed is measured on the session clock: the ~100ms upload is a
  // scheduled event, not wall time.
  const auto started = clock->now();
  const auto results = session.submit(f.ds.test.instance(0)).wait();
  const double waited_s = sim::Clock::seconds_between(started, clock->now());
  session.drain();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.front().offloaded);  // the answer still arrived
  EXPECT_GE(waited_s, upload_s);           // ...but only after the upload
  const SessionMetrics m = session.metrics();
  EXPECT_GE(m.route(core::Route::kCloud).p50_s, upload_s);
}

TEST(WifiTransport, CongestedCellScalesUploadTime) {
  sim::WifiModel wifi;  // the paper's 18.88 Mb/s
  const sim::WifiModel crowded = wifi.congested(4.0);
  EXPECT_DOUBLE_EQ(crowded.upload_time_s(1 << 20), 4.0 * wifi.upload_time_s(1 << 20));
  EXPECT_THROW(wifi.congested(0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Deadline-aware queue admission
// ---------------------------------------------------------------------

/// Holds each routing call for `hold_s` on the given clock, pinning the
/// serving worker so the submit queue deterministically backs up behind
/// it. Under a VirtualClock the hold is a scheduled event, so the
/// backup costs no wall time.
class SlowPolicy : public core::RoutingPolicy {
 public:
  SlowPolicy(std::shared_ptr<const core::RoutingPolicy> inner, double hold_s,
             std::shared_ptr<sim::Clock> clock = nullptr)
      : inner_(std::move(inner)),
        hold_s_(hold_s),
        clock_(sim::resolve_clock(std::move(clock))) {}

  core::Route route(const core::RouteSignals& signals) const override {
    clock_->sleep_for(hold_s_);
    return inner_->route(signals);
  }
  unsigned needed_signals() const override { return inner_->needed_signals(); }
  std::string describe() const override { return "slow+" + inner_->describe(); }

 private:
  std::shared_ptr<const core::RoutingPolicy> inner_;
  double hold_s_;
  std::shared_ptr<sim::Clock> clock_;
};

TEST(Admission, RejectsWhenQueueWaitAloneExceedsTheDeadline) {
  Fixture& f = Fixture::instance();
  auto clock = std::make_shared<sim::VirtualClock>();
  EngineConfig cfg;
  cfg.net = &f.net;
  cfg.dict = &f.dict;
  cfg.clock = clock;
  // The worker holds the first request for 400ms of virtual time, so
  // the next submits pile up behind it deterministically.
  cfg.policy = std::make_shared<SlowPolicy>(
      std::make_shared<core::EntropyThresholdPolicy>(f.dict, core::PolicyConfig{}), 0.400, clock);
  cfg.worker_threads = 1;
  cfg.batch_size = 1;
  cfg.set_deadline_s(0.050);
  // Seeded estimate: any instance queued ahead predicts a 10s wait,
  // far past the 50ms deadline.
  cfg.admission_control = true;
  cfg.admission_service_estimate_s = 10.0;
  InferenceSession session(cfg);
  sim::ActorGuard driver(*clock);

  // First request: picked up by the worker (queue wait 0 — admitted).
  ResultHandle first = session.submit(f.ds.test.instance(0));
  // Virtual sleep in place of the old 100ms wall sleep: it can only
  // complete once every other actor is parked — i.e. once the worker
  // has popped the frame and is holding inside the slow routing call.
  clock->sleep_for(0.100);
  // Second request: nothing queued ahead of it — still admitted.
  ResultHandle second = session.submit(f.ds.test.instance(1));
  // Third request: one instance queued ahead -> estimated wait 10s
  // against a 50ms deadline. Rejected at submit, before any queueing.
  EXPECT_THROW(session.submit(f.ds.test.instance(2)), AdmissionRejected);

  EXPECT_EQ(first.wait().size(), 1u);
  EXPECT_EQ(second.wait().size(), 1u);
  const SessionMetrics m = session.metrics();
  EXPECT_EQ(m.admission_rejections, 1);
  EXPECT_EQ(m.submitted_instances, 2);  // the rejected one never counted
  session.drain();
}

TEST(Admission, BulkRunIsNeverGated) {
  // run() is the bulk-eval API: rejecting one of its chunks midway
  // would strand the ones already enqueued, so admission only gates
  // streaming submit() traffic.
  Fixture& f = Fixture::instance();
  EngineConfig cfg;
  cfg.net = &f.net;
  cfg.dict = &f.dict;
  cfg.worker_threads = 1;
  cfg.batch_size = 4;
  cfg.set_deadline_s(0.000001);  // hopeless for everything
  cfg.admission_control = true;
  cfg.admission_service_estimate_s = 10.0;
  InferenceSession session(cfg);
  const auto results = session.run(f.ds.test);
  EXPECT_EQ(static_cast<int>(results.size()), f.ds.test.size());
  EXPECT_EQ(session.metrics().admission_rejections, 0);
}

TEST(Admission, UnboundedDeadlinesNeverReject) {
  Fixture& f = Fixture::instance();
  auto clock = std::make_shared<sim::VirtualClock>();
  EngineConfig cfg;
  cfg.net = &f.net;
  cfg.dict = &f.dict;
  cfg.clock = clock;
  cfg.policy = std::make_shared<SlowPolicy>(
      std::make_shared<core::EntropyThresholdPolicy>(f.dict, core::PolicyConfig{}), 0.100, clock);
  cfg.worker_threads = 1;
  cfg.batch_size = 1;
  cfg.admission_control = true;
  cfg.admission_service_estimate_s = 10.0;  // estimate alone must not matter
  InferenceSession session(cfg);
  sim::ActorGuard driver(*clock);
  std::vector<ResultHandle> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(session.submit(f.ds.test.instance(i)));
  for (ResultHandle& h : handles) EXPECT_EQ(h.wait().size(), 1u);
  EXPECT_EQ(session.metrics().admission_rejections, 0);
  session.drain();
}

TEST(Admission, PerSubmitOverrideGatesAdmissionToo) {
  Fixture& f = Fixture::instance();
  auto clock = std::make_shared<sim::VirtualClock>();
  EngineConfig cfg;
  cfg.net = &f.net;
  cfg.dict = &f.dict;
  cfg.clock = clock;
  cfg.policy = std::make_shared<SlowPolicy>(
      std::make_shared<core::EntropyThresholdPolicy>(f.dict, core::PolicyConfig{}), 0.400, clock);
  cfg.worker_threads = 1;
  cfg.batch_size = 1;
  cfg.admission_control = true;
  cfg.admission_service_estimate_s = 10.0;
  InferenceSession session(cfg);  // session deadlines all unbounded
  sim::ActorGuard driver(*clock);

  ResultHandle first = session.submit(f.ds.test.instance(0));
  // See RejectsWhenQueueWaitAloneExceedsTheDeadline: the virtual sleep
  // completes only with the worker parked inside the slow routing call.
  clock->sleep_for(0.100);
  ResultHandle second = session.submit(f.ds.test.instance(1));  // queues behind the slow one
  SubmitOptions tight;
  tight.deadline_s = 0.050;  // this request's own bound does the gating
  EXPECT_THROW(session.submit(f.ds.test.instance(2), tight), AdmissionRejected);
  SubmitOptions loose;
  loose.deadline_s = 3600.0;  // a lenient override clears the same queue
  ResultHandle third = session.submit(f.ds.test.instance(2), loose);

  EXPECT_EQ(first.wait().size(), 1u);
  EXPECT_EQ(second.wait().size(), 1u);
  EXPECT_EQ(third.wait().size(), 1u);
  EXPECT_EQ(session.metrics().admission_rejections, 1);
  session.drain();
}

}  // namespace
}  // namespace meanet::runtime
