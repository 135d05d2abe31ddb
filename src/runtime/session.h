// The unified serving API for Alg. 2 (edge pass -> route -> extension
// or offload): asynchronous, with a full request lifecycle (per-route
// deadlines, cancellation, completion callbacks, WiFi-timed offloads)
// and priority-aware scheduling: requests and pending uploads are
// served by (priority desc, deadline asc, arrival asc) with a
// configurable starvation bound, and offloads are timed on a
// sim::SharedCell that several sessions can contend on — uplink and
// downlink both cost airtime.
//
// An InferenceSession is built once from an EngineConfig — which model,
// which routing policy, which offload backend, how many workers — and
// then serves requests through submit()/drain() or the synchronous
// run() convenience. submit() returns a ResultHandle (future-like:
// ready() / try_get() / wait() / cancel()) backed by the session's
// completion table; drain() and run() are thin wrappers that wait a
// round of handles and collect their results.
//
//   EngineConfig cfg;
//   cfg.net = &net; cfg.dict = &dict;
//   cfg.policy_config = {.entropy_threshold = 0.6, .cloud_available = true};
//   cfg.backend = std::make_shared<RawImageBackend>(&cloud);
//   cfg.route_deadline_s[size_t(core::Route::kCloud)] = 0.050;
//   cfg.cell = std::make_shared<sim::SharedCell>(sim::SharedCellConfig{});  // WiFi-timed offloads
//   InferenceSession session(cfg);
//   SubmitOptions opts;
//   opts.on_complete = [](const ResultHandle& h) { consume(h.wait()); };
//   ResultHandle frame = session.submit(camera_frame, opts);
//   ... do other work, or frame.cancel() to abandon it ...
//
// Concurrency: all workers serve on the ONE net the config names —
// eval-mode forwards are cache-free and const-safe (see nn/layer.h), so
// a shared net is data-race free and needs no weight-synced replicas.
// Each worker owns an EdgeInferenceEngine for its routing-signal
// scratch, and the per-thread ops workspace keeps its GEMM packing
// buffers alive across submits. Offloading is off the worker
// hot path: workers hand cloud
// payloads to a dedicated dispatcher thread (the single shared cloud
// link) and wait at most offload_timeout_s — or the tightest remaining
// deadline among the payload's instances, whichever is sooner — after
// which the affected instances keep their edge predictions exactly like
// the NullBackend path. Per-instance results are independent of batch
// composition, so a threaded session reproduces the single-threaded
// results exactly when offloads complete (the default infinite timeout)
// or miss the deadline decisively (link RTT far above the timeout, or
// no backend). A finite timeout or deadline near the link's actual
// round-trip is inherently racy: whether a borderline offload beats it
// can depend on dispatcher backlog and therefore on worker count.
//
// Completion callbacks run on a dedicated callback thread, never on a
// serving worker — a slow callback backpressures the callback queue,
// not the inference hot path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/edge_inference.h"
#include "diag/provider.h"
#include "diag/registry.h"
#include "runtime/metrics.h"
#include "runtime/offload_backend.h"
#include "runtime/request_queue.h"
#include "runtime/result_handle.h"
#include "sim/edge_node.h"
#include "sim/shared_cell.h"

namespace meanet::runtime {

/// Full serving configuration; everything is selected here at runtime.
struct EngineConfig {
  // ----- Model (required) -----
  core::MEANet* net = nullptr;
  const data::ClassDict* dict = nullptr;

  // ----- Time source -----
  /// The clock every timed path of the session runs on — submit
  /// timestamps, deadlines, queue waits, offload/ticket timeouts, the
  /// simulated transfer occupancy, e2e latency metrics. Null (the
  /// default) = the process WallClock: behavior is exactly the
  /// pre-seam wall-clock serving stack. Inject a sim::VirtualClock
  /// (sim/event_loop.h) to replay hours of traffic in wall
  /// milliseconds, bit-identically at any worker count; the `cell`
  /// below must then be on the same clock instance
  /// (SharedCellConfig::clock), and the thread driving submissions
  /// should register via sim::ActorGuard so its submit timestamps are
  /// deterministic too.
  std::shared_ptr<sim::Clock> clock;

  // ----- Routing -----
  /// Custom policy; when null, an EntropyThresholdPolicy is built from
  /// `policy_config` (the paper's rule).
  std::shared_ptr<const core::RoutingPolicy> policy;
  core::PolicyConfig policy_config;

  // ----- Offload -----
  /// The one offload hop: RawImageBackend, FeatureBackend,
  /// wire::WireBackend or any other OffloadBackend. Null = NullBackend
  /// (edge-only; cloud-marked instances keep their edge predictions).
  std::shared_ptr<OffloadBackend> backend;
  /// How long a worker waits for the offload dispatcher's answer before
  /// the cloud-routed instances fall back to their edge predictions
  /// (the NullBackend behavior). Infinity = wait for the backend;
  /// <= 0 = never wait (fallback immediately, answers are discarded);
  /// NaN makes the constructor throw std::invalid_argument.
  /// Measured from dispatch — the per-route deadlines below are
  /// measured from submit() and bound the same wait from the other end.
  double offload_timeout_s = std::numeric_limits<double>::infinity();
  /// The radio cell the dispatcher times every offload on: a payload's
  /// upload and its answer's download (kResponseBytesPerInstance per
  /// answered instance) each occupy the cell for a time derived from
  /// the cell's WiFi models and the byte size, plus its base RTT and
  /// seeded jitter (sim/shared_cell.h). The session attaches as one
  /// station for its lifetime; sessions given the same cell contend
  /// for its airtime. The cell must run on the session's clock, or the
  /// constructor throws std::invalid_argument. Null = an ideal instant
  /// link.
  std::shared_ptr<sim::SharedCell> cell;

  // ----- Deadlines -----
  // ----- Scheduling -----
  /// Starvation/aging bound of the priority queues: the oldest waiting
  /// request is never bypassed by more than this many consecutive
  /// dequeues — the next one serves it regardless of priority and
  /// counts in SessionMetrics::starvation_promotions. 0 disables aging
  /// (a saturating high-priority flood then starves lower priorities
  /// indefinitely).
  int starvation_bound = 64;

  /// Per-route completion deadlines in seconds measured from submit(),
  /// indexed by core::Route; infinity (the default) disables. The
  /// deadline of the route an instance lands on bounds its end-to-end
  /// completion: a cloud-routed instance whose deadline passes while
  /// its request sits in the queue or its offload is in flight is
  /// completed with its edge prediction (NullBackend parity), flagged
  /// InferenceResult::deadline_expired, and counted in
  /// SessionMetrics::deadline_expirations — distinct from
  /// offload_timeouts. An instance whose deadline expires before its
  /// payload is built never touches the backend. Deadlines on the
  /// on-device routes are observational (nothing faster than the edge
  /// answer exists): a late instance is only flagged and counted. A
  /// NaN or negative entry makes the constructor throw
  /// std::invalid_argument.
  std::array<double, core::kNumRoutes> route_deadline_s{
      std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  /// Convenience: one deadline for every route.
  void set_deadline_s(double seconds) { route_deadline_s.fill(seconds); }

  // ----- Edge compute precision -----
  /// Serve the edge model through the int8 quantized inference path
  /// (tensor/qgemm.h): eval conv forwards quantize their BN-folded
  /// weights per output channel and their im2col activations
  /// per-tensor, and run the integer GEMM with a folded-scale float
  /// epilogue. Typically an integer-factor latency win on VNNI
  /// hardware for a small accuracy delta (the parity suite bounds it;
  /// bench/ablation_quantization measures the accuracy side). The
  /// flag is applied per worker thread, so sessions with different
  /// settings can share one process and one net.
  bool quantized_inference = false;

  // ----- Batching -----
  /// Max instances coalesced into one edge forward pass.
  int batch_size = 64;
  /// Worker threads, all serving on the one shared `net` (eval-mode
  /// forwards are cache-free, so no per-worker copy is needed).
  int worker_threads = 1;
  /// Bound on queued requests (backpressure for submit()) and on
  /// pending completion callbacks.
  int queue_capacity = 256;

  // ----- Admission -----
  /// Deadline-aware queue admission. When enabled and the estimated
  /// queue wait alone already exceeds every finite route deadline a
  /// request could land on (or its per-submit override), submit()
  /// throws AdmissionRejected instead of queueing work that can only
  /// come back expired; SessionMetrics::admission_rejections counts
  /// the shed instances. The wait estimate is schedule-aware: only
  /// instances queued at the request's priority or above count as
  /// ahead, so a low-priority backlog never sheds the high-priority
  /// traffic the scheduler would serve first. Only streaming submit() traffic is gated —
  /// run(), the bulk-eval API, always admits its own chunks. Off by
  /// default: with admission off, a doomed request is still served and
  /// flagged deadline_expired (the PR 3 deadline contract).
  bool admission_control = false;
  /// Seed for the admission estimate of per-instance service time, in
  /// seconds. The session learns an EWMA from observed batches; until
  /// the first measurement this seed is the estimate, and 0 (the
  /// default) disables rejection until something has been measured.
  double admission_service_estimate_s = 0.0;

  // ----- Cost model -----
  /// Prices each instance's compute and upload; default costs are all
  /// zero. If upload_bytes_per_instance is 0 it is derived from the
  /// backend's payload_bytes() on first use.
  sim::EdgeNodeCosts costs;
};

/// Downlink bytes the cell charges per answered instance: the one i32
/// label the wire's offload response carries for it.
constexpr std::int64_t kResponseBytesPerInstance = 4;

/// Per-submit request options.
struct SubmitOptions {
  /// Overrides the session's per-route deadlines for this request (one
  /// bound for whatever route its instances land on), in seconds from
  /// submit(). NaN (the default) = use EngineConfig::route_deadline_s;
  /// a negative value (-infinity included) makes submit() throw
  /// std::invalid_argument.
  double deadline_s = std::numeric_limits<double>::quiet_NaN();
  /// Scheduling priority of this request (higher = served sooner), in
  /// the worker queue and, for its cloud-routed instances, the offload
  /// dispatch queue. Unset (the default) = 0. Requests of equal
  /// priority are served earliest-deadline-first, then in arrival
  /// order; the starvation bound keeps low priorities from waiting
  /// forever under a high-priority flood.
  std::optional<int> priority;
  /// Invoked exactly once when the request settles — completed, failed,
  /// or cancelled — with a handle that is already ready(). Runs on the
  /// session's completion-callback thread, never on a serving worker.
  std::function<void(const ResultHandle&)> on_complete;
};

/// One unit of work: `images` holds 1..N instances ([C,H,W] or
/// [B,C,H,W]); instance i gets result id `id + i`. `completion` is the
/// request's slot in the session completion table.
struct InferenceRequest {
  std::int64_t id = 0;
  Tensor images;
  std::shared_ptr<detail::RequestState> completion;
};

namespace detail {

/// Dedicated executor for completion callbacks: posted closures run on
/// its single thread in post order. Posting after shutdown runs the
/// closure inline (only reachable from a caller's own thread).
class CallbackRunner {
 public:
  /// `clock` routes the queue's blocking waits and registers the
  /// callback thread as a clock actor (see sim::ActorGuard) so a
  /// VirtualClock never advances past a callback still being drained.
  explicit CallbackRunner(std::size_t capacity, std::shared_ptr<sim::Clock> clock = nullptr);
  ~CallbackRunner();

  void post(std::function<void()> fn);
  /// Drains pending callbacks and joins the thread; idempotent.
  void shutdown();

 private:
  std::shared_ptr<sim::Clock> clock_;
  BoundedQueue<std::function<void()>> queue_;
  std::thread thread_;
};

}  // namespace detail

/// Route occupancy over a result set.
core::RouteCounts count_routes(const std::vector<InferenceResult>& results);

/// Thrown by submit() when deadline-aware admission rejects a request:
/// the estimated queue wait alone already exceeds every finite route
/// deadline, so the request could only come back expired. Catch it to
/// shed load (drop the frame, try a fallback) without tearing down the
/// stream.
class AdmissionRejected : public std::runtime_error {
 public:
  explicit AdmissionRejected(const std::string& what) : std::runtime_error(what) {}
};

class InferenceSession : public diag::DiagnosticProvider {
 public:
  explicit InferenceSession(EngineConfig config);
  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Enqueues 1..N instances; blocks while the queue is full. The
  /// returned handle completes when the request's results are settled;
  /// handle.id() is the result id of the first instance.
  ResultHandle submit(Tensor images);

  /// submit() with a per-request deadline override and/or a completion
  /// callback (see SubmitOptions).
  ResultHandle submit(Tensor images, SubmitOptions options);

  /// Waits for every handle submit() issued since the last drain()/run()
  /// round, then returns all their results sorted by id; cancelled
  /// requests contribute nothing. Reading a handle first is fine
  /// (handle reads are non-destructive); drain() is what retires the
  /// round — though requests already settled AND read through their
  /// handle may have been pruned from the round by a later submit()
  /// (see ResultHandle::wait), so handle-consuming streamers should not
  /// double-count drain() output. If a worker failed, throws
  /// std::runtime_error with the first error; results of requests that
  /// completed are kept and returned by the next drain() call, so the
  /// caller can tell which instances survived. Ids are always the
  /// session-global ids of the handles — match survivors against
  /// handle.id(), not against dataset indices (only run() rebases).
  std::vector<InferenceResult> drain();

  /// Synchronous convenience: submits the whole dataset in batch_size
  /// chunks and waits for exactly those requests (concurrent submit()
  /// traffic from other threads is left untouched for its own handles /
  /// drain()). Result ids are rebased to dataset indices, so result i
  /// corresponds to dataset instance i on every call. If no round is in
  /// flight, stale survivors of an earlier failed round are discarded
  /// first.
  std::vector<InferenceResult> run(const data::Dataset& dataset);

  /// Point-in-time serving counters: queue depth high-water mark,
  /// per-route counts and end-to-end latency percentiles, offload
  /// timeouts, deadline expirations and cancellations. Cheap enough to
  /// poll between rounds.
  SessionMetrics metrics() const;

  const OffloadBackend& backend() const { return *backend_; }
  const core::RoutingPolicy& routing() const { return *routing_; }
  /// Workers serving on the shared net (worker_threads, at least 1).
  int worker_count() const { return static_cast<int>(workers_.size()); }

  // DiagnosticProvider: sessions self-register as "session/N" (N
  // counts up per process in construction order); the snapshot wraps
  // metrics().to_value() with the session's shape.
  std::string diag_name() const override { return diag_name_; }
  diag::Value diag_snapshot() const override;

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// What came back from one dispatch: predictions (empty = none) with
  /// the arrival timestamp, a failure marker, or gave_up when the wait
  /// bound expired before any answer (that — and only that — is what
  /// timeout/deadline accounting attributes; an empty-but-prompt reply
  /// is a drop, e.g. a lossy link or NullBackend).
  struct OffloadAnswer {
    std::vector<int> predictions;
    SteadyClock::time_point answered_at{};
    bool failed = false;  // backend threw
    bool gave_up = false;
    // Simulated transfer delays the dispatcher applied (0 without a
    // cell); meaningful only when predictions is non-empty.
    double upload_s = 0.0;
    double downlink_s = 0.0;
  };
  /// Completion slip for one in-flight offload dispatch. The worker
  /// waits on it with a timeout; the dispatcher settles it. Whoever
  /// loses the race simply drops its side — the shared_ptr keeps the
  /// slip alive for the late party. A worker that gives up marks the
  /// slip abandoned, which also cuts the dispatcher's simulated upload
  /// short (the sender stops transmitting at its deadline).
  struct OffloadTicket {
    std::mutex mutex;
    std::condition_variable answered;
    bool done = false;       // guarded by mutex
    bool abandoned = false;  // guarded by mutex; the waiter gave up
    OffloadAnswer answer;    // guarded by mutex; written before done
  };
  struct OffloadJob {
    OffloadPayload payload;
    std::int64_t payload_bytes = 0;  // drives the simulated upload time
    /// Result id of the payload's first instance: the transfer key the
    /// cell's jitter is hashed from, so a payload's delay does not
    /// depend on dispatch interleaving.
    std::int64_t first_id = 0;
    std::shared_ptr<OffloadTicket> ticket;
  };

  ResultHandle enqueue(Tensor images, SubmitOptions options, bool track_in_round);
  /// Deadline-aware admission: throws AdmissionRejected when the
  /// estimated queue wait for `count` more instances already exceeds
  /// `deadline_override_s` (or, when NaN, every finite configured route
  /// deadline). The wait estimate is priority-aware: only instances
  /// queued at `priority` or above count as "ahead" — the scheduler
  /// would serve this request before the rest, so a low-priority
  /// backlog must not shed the high-priority traffic it cannot delay.
  /// (Aging can let a bounded number of lower-priority requests go
  /// first; the estimate ignores that second-order effect.)
  void check_admission(int count, double deadline_override_s, int priority);
  /// Current EWMA of per-instance service time (0 = nothing known).
  double service_estimate_s() const;
  /// Folds one measured batch (rows instances in `seconds`) into the
  /// service-time EWMA.
  void observe_service(std::int64_t rows, double seconds);
  void worker_loop(int worker_index);
  void offload_loop();
  void process(core::EdgeInferenceEngine& engine, const std::vector<InferenceRequest>& requests);
  /// Ships a payload to the dispatcher and waits up to `wait_bound_s`
  /// (the offload timeout and the tightest payload deadline already
  /// folded in). `key` orders the pending upload against the other
  /// dispatch-queue entries; `first_id` keys its simulated transfer
  /// delays. An answerless return = unavailable / timed out /
  /// abandoned: the caller keeps edge predictions for all `expected`
  /// instances and attributes the cause per instance.
  OffloadAnswer offload(OffloadPayload payload, std::size_t expected,
                        std::int64_t payload_bytes, std::int64_t first_id, SchedKey key,
                        double wait_bound_s);
  /// The scheduling key a request is queued under: its resolved
  /// priority, and the earliest deadline it could face on any route.
  SchedKey request_key(const detail::RequestState& state) const;
  /// The request's deadline for `route`, as an absolute time point
  /// (time_point::max() when unbounded).
  SteadyClock::time_point deadline_at(const detail::RequestState& state,
                                      core::Route route) const;
  /// Appends a handle's results to `out`; records the first error
  /// instead of throwing; skips cancelled requests.
  static void collect(const ResultHandle& handle, std::vector<InferenceResult>& out,
                      std::string& first_error);

  // Serving state derived from the EngineConfig at construction; the
  // config itself is not kept (its policy/backend fields would
  // otherwise be a stale second source of truth).
  int batch_size_;
  double offload_timeout_s_;
  std::array<double, core::kNumRoutes> route_deadline_s_;
  /// Loosest finite route deadline (infinity when every route is
  /// unbounded): the admission bar a request with no override must
  /// clear. Derived once at construction.
  double admission_deadline_s_;
  bool admission_control_ = false;
  /// Workers install this on their thread (ops::QuantizedScope) before
  /// serving — see EngineConfig::quantized_inference.
  bool quantized_inference_ = false;

  // Deadline-aware admission state: instances sitting in the queue (by
  // scheduling priority, so the wait estimate only counts traffic the
  // scheduler would actually serve first) and the learned per-instance
  // service time.
  mutable std::mutex admission_mutex_;
  std::map<int, std::int64_t> queued_by_priority_;  // guarded by admission_mutex_
  /// Adds/removes `count` instances at `priority` from the queued-ahead
  /// book-keeping (negative count removes).
  void track_queued(int priority, std::int64_t count);
  /// Instances currently queued at `priority` or above.
  std::int64_t queued_at_or_above(int priority) const;
  mutable std::mutex service_mutex_;
  double service_estimate_s_ = 0.0;  // guarded by service_mutex_
  sim::EdgeNodeCosts costs_;
  std::shared_ptr<const core::RoutingPolicy> routing_;
  std::shared_ptr<OffloadBackend> backend_;
  std::vector<std::unique_ptr<core::EdgeInferenceEngine>> engines_;  // one per worker

  /// The session's time source (EngineConfig::clock resolved; the
  /// process WallClock by default). Declared before the queues, link
  /// and callback runner — they capture it at construction.
  std::shared_ptr<sim::Clock> clock_;

  PriorityBoundedQueue<InferenceRequest> queue_;
  std::vector<std::thread> workers_;

  // Startup latch: the constructor blocks until every serving thread
  // has registered as a clock actor, so a VirtualClock can never
  // advance through the OS-scheduling-dependent window before a thread
  // starts (virtual timelines must not depend on wall thread-start
  // latency).
  std::mutex start_mutex_;
  std::condition_variable start_cv_;
  int started_threads_ = 0;  // guarded by start_mutex_
  /// Called by each serving thread right after actor registration.
  void mark_started();

  // The offload dispatcher: the single shared cloud link, fed off the
  // worker hot path, ordered by the same (priority, deadline, arrival)
  // key as the worker queue. When `cell_` is set, the dispatcher times
  // its transfers on it as station `station_`.
  PriorityBoundedQueue<OffloadJob> offload_queue_;
  std::shared_ptr<sim::SharedCell> cell_;
  int station_ = 0;
  std::thread offload_worker_;

  // Completion callbacks run here, never on a worker.
  std::shared_ptr<detail::CallbackRunner> callbacks_;

  std::atomic<std::int64_t> next_id_{0};

  MetricsCollector collector_;

  // The current round's completion table: handles issued by submit()
  // and not yet retired by drain(), plus survivors of a failed round.
  // Settled-and-consumed handles are pruned on submit (amortized by the
  // doubling threshold) so handle-only streamers stay bounded.
  std::mutex round_mutex_;
  std::vector<ResultHandle> round_;
  std::size_t round_prune_threshold_ = 64;  // guarded by round_mutex_
  std::vector<InferenceResult> survivors_;

  // Diagnostics — LAST members, so they are torn down FIRST: an
  // in-flight registry snapshot blocks the unregister, and only then
  // does the rest of the session destruct. During the destructor BODY
  // (joining workers) the session is still snapshot-safe: metrics()
  // only reads members that outlive the body.
  std::string diag_name_;
  diag::ScopedRegistration diag_registration_;
};

}  // namespace meanet::runtime
