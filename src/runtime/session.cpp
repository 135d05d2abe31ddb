#include "runtime/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/ops.h"
#include "tensor/qgemm.h"

namespace meanet::runtime {

namespace {

/// Normalizes a request tensor to [B, ...] (a rank-3 [C,H,W] single
/// instance becomes [1,C,H,W]). The rank-3 path re-labels the tensor via
/// the rvalue reshaped() overload — no copy of the frame.
Tensor normalize_batch(Tensor images) {
  if (images.shape().rank() == 3) {
    std::vector<int> dims{1};
    for (int d : images.shape().dims()) dims.push_back(d);
    return std::move(images).reshaped(Shape(dims));
  }
  if (images.shape().rank() != 4) {
    throw std::invalid_argument("InferenceSession: images must be [C,H,W] or [B,C,H,W]");
  }
  return images;
}

Shape instance_shape(const Shape& batch_shape) {
  std::vector<int> dims = batch_shape.dims();
  dims[0] = 1;
  return Shape(dims);
}

}  // namespace

namespace detail {

namespace {

/// User callbacks must not take down the runner thread (or, on the
/// inline fallback, the transitioning thread): the documented pattern
/// `on_complete = [](const ResultHandle& h) { consume(h.wait()); }`
/// rethrows the worker's error from wait() when the request failed.
void run_guarded(const std::function<void()>& fn) {
  try {
    fn();
  } catch (...) {
    // A throwing completion callback is the caller's bug; swallowing it
    // beats std::terminate. The request itself already settled.
  }
}

}  // namespace

CallbackRunner::CallbackRunner(std::size_t capacity, std::shared_ptr<sim::Clock> clock)
    : clock_(sim::resolve_clock(std::move(clock))), queue_(capacity, clock_) {
  // The constructor must not return before the thread has registered as
  // a clock actor: otherwise a VirtualClock could advance past events
  // in the OS-scheduling-dependent window before the thread starts,
  // making virtual timelines depend on wall thread-start latency.
  std::mutex start_mutex;
  std::condition_variable start_cv;
  bool started = false;
  thread_ = std::thread([this, &start_mutex, &start_cv, &started] {
    // Registered actor: a VirtualClock must not advance while a
    // completion callback is still running (callbacks may submit or
    // cancel follow-up work at the current virtual instant).
    sim::ActorGuard actor(*clock_);
    {
      // Notify under the lock: the constructor (and the locals) may be
      // gone the instant `started` is observable.
      std::lock_guard<std::mutex> lock(start_mutex);
      started = true;
      start_cv.notify_one();
    }
    while (std::optional<std::function<void()>> fn = queue_.pop()) run_guarded(*fn);
  });
  std::unique_lock<std::mutex> lock(start_mutex);
  start_cv.wait(lock, [&] { return started; });
}

CallbackRunner::~CallbackRunner() { shutdown(); }

void CallbackRunner::post(std::function<void()> fn) {
  if (!queue_.push(fn)) run_guarded(fn);  // already shut down: run inline
}

void CallbackRunner::shutdown() {
  queue_.close();  // pop() drains what is queued, then the thread exits
  if (thread_.joinable()) thread_.join();
}

}  // namespace detail

core::RouteCounts count_routes(const std::vector<InferenceResult>& results) {
  core::RouteCounts counts;
  for (const InferenceResult& r : results) counts.add(r.route);
  return counts;
}

InferenceSession::InferenceSession(EngineConfig config)
    : batch_size_(config.batch_size),
      offload_timeout_s_(config.offload_timeout_s),
      route_deadline_s_(config.route_deadline_s),
      costs_(config.costs),
      clock_(sim::resolve_clock(config.clock)),
      queue_(static_cast<std::size_t>(std::max(1, config.queue_capacity)),
             config.starvation_bound, clock_),
      offload_queue_(static_cast<std::size_t>(std::max(1, config.queue_capacity)),
                     config.starvation_bound, clock_) {
  if (config.net == nullptr || config.dict == nullptr) {
    throw std::invalid_argument("InferenceSession: EngineConfig needs net and dict");
  }
  if (config.batch_size <= 0) {
    throw std::invalid_argument("InferenceSession: batch_size must be positive");
  }
  // A NaN deadline would read as "no bound" in every deadline comparison
  // and a NaN timeout as "never wait"; a negative deadline has expired
  // before submit() returns.
  if (std::isnan(config.offload_timeout_s)) {
    throw std::invalid_argument("InferenceSession: offload_timeout_s must not be NaN");
  }
  for (const double deadline_s : config.route_deadline_s) {
    if (!(deadline_s >= 0.0)) {
      throw std::invalid_argument("InferenceSession: route deadlines must be >= 0 (not NaN)");
    }
  }
  // A request with no per-submit override can land on any route, so
  // admission may only reject when the queue wait blows the loosest of
  // the configured deadlines — i.e. when no route could still make it.
  admission_control_ = config.admission_control;
  quantized_inference_ = config.quantized_inference;
  admission_deadline_s_ =
      *std::max_element(route_deadline_s_.begin(), route_deadline_s_.end());
  service_estimate_s_ = std::max(0.0, config.admission_service_estimate_s);
  routing_ = config.policy
                 ? config.policy
                 : std::make_shared<core::EntropyThresholdPolicy>(*config.dict,
                                                                  config.policy_config);
  backend_ = config.backend ? config.backend : std::make_shared<NullBackend>();
  cell_ = std::move(config.cell);
  // One medium, one timeline: a cell's waits must run on the same clock
  // as every session transferring on it, or a virtual-time session
  // would block on wall airtime (and vice versa). Checked before any
  // thread starts.
  if (cell_ && cell_->clock() != clock_) {
    throw std::invalid_argument(
        "InferenceSession: the cell and the session must use the same clock "
        "(set SharedCellConfig::clock and EngineConfig::clock to one instance)");
  }
  callbacks_ = std::make_shared<detail::CallbackRunner>(
      static_cast<std::size_t>(std::max(1, config.queue_capacity)), clock_);

  // Every worker serves on the one shared net: eval-mode forwards are
  // cache-free and const-safe (nn/layer.h), so concurrent forwards do
  // not race. Each worker still owns an engine for its routing-signal
  // scratch.
  const int worker_count = std::max(1, config.worker_threads);
  engines_.reserve(static_cast<std::size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    engines_.push_back(
        std::make_unique<core::EdgeInferenceEngine>(*config.net, *config.dict, routing_));
  }
  workers_.reserve(static_cast<std::size_t>(worker_count));
  if (cell_) station_ = cell_->attach();
  try {
    offload_worker_ = std::thread([this] { offload_loop(); });
    for (int i = 0; i < worker_count; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
    // Don't serve until every thread is a registered clock actor — see
    // the start_mutex_ comment in the header.
    std::unique_lock<std::mutex> lock(start_mutex_);
    start_cv_.wait(lock, [&] { return started_threads_ == worker_count + 1; });
  } catch (...) {
    // Thread spawn failed partway: shut down the threads that did start
    // before rethrowing, or their joinable std::thread members would
    // terminate the process during unwinding.
    queue_.close();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    offload_queue_.close();
    if (offload_worker_.joinable()) offload_worker_.join();
    if (cell_) cell_->detach(station_);
    throw;
  }

  // Register with the process diagnostics registry last: the session is
  // fully serving, so a concurrent snapshot sees a live object.
  static std::atomic<std::uint64_t> next_session_id{0};
  diag_name_ = "session/" + std::to_string(next_session_id.fetch_add(1));
  diag_registration_ = diag::ScopedRegistration(diag::DiagnosticRegistry::global(), this);
}

diag::Value InferenceSession::diag_snapshot() const {
  diag::Value v = diag::Value::object();
  v.set("workers", worker_count());
  v.set("backend", backend_->describe());
  v.set("metrics", metrics().to_value());
  return v;
}

InferenceSession::~InferenceSession() {
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Workers are joined: nothing can enqueue offload jobs anymore, so the
  // dispatcher drains whatever is left and exits.
  offload_queue_.close();
  if (offload_worker_.joinable()) offload_worker_.join();
  if (cell_) cell_->detach(station_);
  // Every request has transitioned by now; flush their callbacks.
  callbacks_->shutdown();
}

ResultHandle InferenceSession::submit(Tensor images) {
  return enqueue(std::move(images), SubmitOptions{}, /*track_in_round=*/true);
}

ResultHandle InferenceSession::submit(Tensor images, SubmitOptions options) {
  return enqueue(std::move(images), std::move(options), /*track_in_round=*/true);
}

double InferenceSession::service_estimate_s() const {
  std::lock_guard<std::mutex> lock(service_mutex_);
  return service_estimate_s_;
}

void InferenceSession::observe_service(std::int64_t rows, double seconds) {
  if (rows <= 0 || !(seconds >= 0.0)) return;
  const double per_instance = seconds / static_cast<double>(rows);
  std::lock_guard<std::mutex> lock(service_mutex_);
  // EWMA over batches; the configured seed (or the first sample) is the
  // starting point.
  service_estimate_s_ = service_estimate_s_ <= 0.0
                            ? per_instance
                            : 0.8 * service_estimate_s_ + 0.2 * per_instance;
}

void InferenceSession::track_queued(int priority, std::int64_t count) {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  std::int64_t& queued = queued_by_priority_[priority];
  queued += count;
  if (queued <= 0) queued_by_priority_.erase(priority);
}

std::int64_t InferenceSession::queued_at_or_above(int priority) const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  std::int64_t ahead = 0;
  for (auto it = queued_by_priority_.lower_bound(priority); it != queued_by_priority_.end();
       ++it) {
    ahead += it->second;
  }
  return ahead;
}

void InferenceSession::check_admission(int count, double deadline_override_s, int priority) {
  if (!admission_control_) return;
  const double deadline_s =
      std::isnan(deadline_override_s) ? admission_deadline_s_ : deadline_override_s;
  if (!std::isfinite(deadline_s)) return;  // unbounded: nothing to miss
  const double estimate_s = service_estimate_s();
  if (estimate_s <= 0.0) return;  // nothing measured or seeded yet
  // Queue wait alone: instances already queued *ahead in the schedule*
  // of this request — same or higher priority — spread over the
  // serving workers. A low-priority backlog does not gate a
  // high-priority submit (the scheduler serves it first); the
  // request's own service time is deliberately not charged — admission
  // sheds load that is hopeless *before* it would even start.
  const double queue_wait_s = estimate_s * static_cast<double>(queued_at_or_above(priority)) /
                              static_cast<double>(workers_.empty() ? 1 : workers_.size());
  if (queue_wait_s <= deadline_s) return;
  collector_.record_admission_rejected(count);
  throw AdmissionRejected("InferenceSession::submit: estimated queue wait " +
                          std::to_string(queue_wait_s) + "s already exceeds the " +
                          std::to_string(deadline_s) + "s deadline");
}

ResultHandle InferenceSession::enqueue(Tensor images, SubmitOptions options,
                                       bool track_in_round) {
  Tensor batch = normalize_batch(std::move(images));
  const int count = batch.shape().batch();
  if (count <= 0) throw std::invalid_argument("InferenceSession::submit: empty batch");
  if (options.deadline_s < 0.0) {
    throw std::invalid_argument("InferenceSession::submit: deadline_s must be >= 0");
  }
  const int priority = options.priority.value_or(0);
  // Admission gates streaming submit() traffic only (track_in_round):
  // run() is the bulk-eval API — rejecting one of its chunks midway
  // would strand the results of the chunks already enqueued.
  if (track_in_round) check_admission(count, options.deadline_s, priority);
  auto state = std::make_shared<detail::RequestState>();
  state->first_id = next_id_.fetch_add(count);
  state->expected = count;
  state->clock = clock_;  // before any other thread can see the state
  state->submitted_at = clock_->now();
  state->deadline_override_s = options.deadline_s;
  state->queue_priority = priority;
  // Runs under the state mutex when a cancel wins, so the counter never
  // lags the handle's cancelled() view. Capturing `this` is safe: a
  // cancel can only win while the request is unsettled, and the
  // destructor joins the workers — which settle everything — before the
  // session's members die.
  state->cancel_hook = [this, count] { collector_.record_cancelled(count); };
  ResultHandle handle(state);
  if (options.on_complete) {
    // The hook (fired once by whichever transition wins) posts the user
    // callback to the runner thread; if the runner is already gone —
    // only reachable from a caller's own late cancel — it runs inline.
    state->completion_hook = [weak = std::weak_ptr<detail::CallbackRunner>(callbacks_),
                              callback = std::move(options.on_complete), handle]() {
      std::function<void()> bound = [callback, handle] { callback(handle); };
      if (const std::shared_ptr<detail::CallbackRunner> runner = weak.lock()) {
        runner->post(std::move(bound));
      } else {
        detail::run_guarded(bound);
      }
    };
  }
  // Counted before the push: a worker that pops the request decrements
  // immediately, and incrementing afterwards could drive the admission
  // counter transiently negative.
  track_queued(priority, count);
  if (!queue_.push(InferenceRequest{state->first_id, std::move(batch), state},
                   request_key(*state))) {
    track_queued(priority, -count);
    // The hook holds a handle back onto this state; a request that never
    // transitions would leak the cycle. Break it before reporting.
    state->completion_hook = nullptr;
    throw std::logic_error("InferenceSession::submit: session is shut down");
  }
  collector_.record_submitted(count);
  if (track_in_round) {
    // Registration happens after the push: the worker may already have
    // settled the state, which only makes the later drain() trivial.
    std::lock_guard<std::mutex> lock(round_mutex_);
    if (round_.size() >= round_prune_threshold_) {
      // Prune requests already settled AND read through their handle:
      // a handle-only streaming caller (submit -> wait, never drain)
      // must not accumulate every result the session ever served. The
      // doubling threshold amortizes the scan to O(1) per submit.
      round_.erase(std::remove_if(round_.begin(), round_.end(),
                                  [](const ResultHandle& h) {
                                    const detail::RequestState& s = *h.state_;
                                    std::lock_guard<std::mutex> state_lock(s.mutex);
                                    return s.done && (s.consumed || s.cancelled);
                                  }),
                   round_.end());
      round_prune_threshold_ = std::max<std::size_t>(64, 2 * round_.size());
    }
    round_.push_back(handle);
  }
  return handle;
}

void InferenceSession::collect(const ResultHandle& handle, std::vector<InferenceResult>& out,
                               std::string& first_error) {
  const detail::RequestState& state = *handle.state_;
  std::unique_lock<std::mutex> lock(state.mutex);
  state.wait_done(lock);
  if (state.cancelled) return;  // a cancelled request contributes nothing
  if (!state.error.empty()) {
    if (first_error.empty()) first_error = state.error;
    return;
  }
  out.insert(out.end(), state.results.begin(), state.results.end());
}

std::vector<InferenceResult> InferenceSession::drain() {
  std::vector<ResultHandle> round;
  std::vector<InferenceResult> results;
  {
    std::lock_guard<std::mutex> lock(round_mutex_);
    round.swap(round_);
    results = std::move(survivors_);
    survivors_.clear();
  }
  std::string first_error;
  for (const ResultHandle& handle : round) collect(handle, results, first_error);
  if (!first_error.empty()) {
    // Results of the requests that completed are kept: a follow-up
    // drain() returns them so the caller can tell which instances
    // survived the failure.
    std::lock_guard<std::mutex> lock(round_mutex_);
    survivors_.insert(survivors_.end(), std::make_move_iterator(results.begin()),
                      std::make_move_iterator(results.end()));
    throw std::runtime_error("InferenceSession worker failed: " + first_error);
  }
  std::sort(results.begin(), results.end(),
            [](const InferenceResult& a, const InferenceResult& b) { return a.id < b.id; });
  return results;
}

std::vector<InferenceResult> InferenceSession::run(const data::Dataset& dataset) {
  if (dataset.size() == 0) throw std::invalid_argument("InferenceSession::run: empty dataset");
  {
    // Fresh round: when nothing is in flight, survivors of an earlier
    // failed round are discarded so a retry returns only this run.
    std::lock_guard<std::mutex> lock(round_mutex_);
    if (round_.empty()) survivors_.clear();
  }
  // run()'s requests are not tracked in the submit() round: concurrent
  // streaming traffic keeps its own handles and drain(), and this call
  // waits exactly the handles it created.
  std::vector<ResultHandle> handles;
  std::vector<int> starts;
  handles.reserve(static_cast<std::size_t>((dataset.size() + batch_size_ - 1) / batch_size_));
  for (int start = 0; start < dataset.size(); start += batch_size_) {
    const int count = std::min(batch_size_, dataset.size() - start);
    handles.push_back(enqueue(dataset.images.slice_batch(start, count), SubmitOptions{}, false));
    starts.push_back(start);
  }
  std::vector<InferenceResult> results;
  results.reserve(static_cast<std::size_t>(dataset.size()));
  std::string first_error;
  for (std::size_t chunk = 0; chunk < handles.size(); ++chunk) {
    std::vector<InferenceResult> part;
    collect(handles[chunk], part, first_error);
    // Rebase the chunk's session-global ids so result i maps to dataset
    // instance i even when the session served other work before (or
    // concurrently with) this run.
    for (InferenceResult& r : part) r.id = starts[chunk] + (r.id - handles[chunk].id());
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  if (!first_error.empty()) {
    // Keep what completed for a follow-up drain(), mirroring drain()'s
    // failure contract. Note these ids are already dataset-rebased.
    std::lock_guard<std::mutex> lock(round_mutex_);
    survivors_.insert(survivors_.end(), std::make_move_iterator(results.begin()),
                      std::make_move_iterator(results.end()));
    throw std::runtime_error("InferenceSession worker failed: " + first_error);
  }
  std::sort(results.begin(), results.end(),
            [](const InferenceResult& a, const InferenceResult& b) { return a.id < b.id; });
  return results;
}

SessionMetrics InferenceSession::metrics() const {
  SessionMetrics m = collector_.snapshot();
  m.queue_depth_high_water = static_cast<std::int64_t>(queue_.high_water_mark());
  m.starvation_promotions =
      queue_.starvation_promotions() + offload_queue_.starvation_promotions();
  if (cell_) {
    m.cell_busy_s = cell_->busy_seconds();
    m.cell_airtime_utilization = cell_->utilization();
  }
  return m;
}

SchedKey InferenceSession::request_key(const detail::RequestState& state) const {
  SchedKey key;
  key.priority = state.queue_priority;
  // Earliest-deadline-first among equal priorities: the tightest bound
  // the request could face on any route (with an override, that is just
  // submit + override on every route).
  for (int r = 0; r < core::kNumRoutes; ++r) {
    key.deadline = std::min(key.deadline, deadline_at(state, static_cast<core::Route>(r)));
  }
  return key;
}

InferenceSession::SteadyClock::time_point InferenceSession::deadline_at(
    const detail::RequestState& state, core::Route route) const {
  // submitted_at and deadline_override_s are immutable after enqueue.
  double limit = state.deadline_override_s;
  if (std::isnan(limit)) limit = route_deadline_s_[static_cast<std::size_t>(route)];
  return sim::Clock::after(state.submitted_at, limit);
}

void InferenceSession::mark_started() {
  std::lock_guard<std::mutex> lock(start_mutex_);
  ++started_threads_;
  start_cv_.notify_all();
}

void InferenceSession::worker_loop(int worker_index) {
  // Registered actor for the loop's lifetime: a VirtualClock only
  // advances while every worker is parked in a queue pop or a timed
  // wait, never while one is mid-batch.
  sim::ActorGuard actor(*clock_);
  // Per-thread precision selection: every eval forward this worker runs
  // uses the session's configured compute path (the flag is
  // thread-local, so co-resident sessions can differ).
  ops::QuantizedScope quantized(quantized_inference_);
  mark_started();
  core::EdgeInferenceEngine& engine = *engines_[static_cast<std::size_t>(worker_index)];
  // A request cancelled while it sat in the queue is discarded here,
  // before it can touch the engine or the offload backend (the cancel
  // transition itself already recorded the metrics).
  auto discard_if_cancelled = [&](const InferenceRequest& request) {
    return request.completion->is_cancelled();
  };
  // Runs one process() call, settling its requests exactly once: on
  // failure every affected request is failed (with the error recorded)
  // so no handle — and therefore no drain() — can wait forever.
  auto settle_failure = [&](const std::vector<InferenceRequest>& requests, const char* error) {
    for (const InferenceRequest& request : requests) {
      const std::int64_t count = request.images.shape().batch();
      request.completion->fail(error, [&] { collector_.record_failed(count); });
    }
  };
  auto safe_process = [&](const std::vector<InferenceRequest>& requests) {
    std::int64_t rows = 0;
    for (const InferenceRequest& request : requests) rows += request.images.shape().batch();
    const SteadyClock::time_point started = clock_->now();
    try {
      process(engine, requests);
      // Feed the measured per-instance service time into the admission
      // estimate (successful batches only; a failing batch's timing
      // says nothing about healthy service). Measured on the session
      // clock: under a VirtualClock the raw compute is instantaneous
      // and only simulated delays (injected latency, transfers) count.
      observe_service(rows, sim::Clock::seconds_between(started, clock_->now()));
    } catch (const std::exception& e) {
      settle_failure(requests, e.what());
    } catch (...) {
      // A non-std exception (e.g. from a user-supplied backend or
      // policy) must not escape the worker thread: that would
      // std::terminate the whole process.
      settle_failure(requests, "non-standard exception");
    }
  };
  // Every successful pop leaves the popped instances "in service" from
  // the admission estimator's point of view; a requeued request (wrong
  // geometry or batch overflow) goes back to "queued".
  auto popped = [&](const InferenceRequest& request) {
    track_queued(request.completion->queue_priority, -request.images.shape().batch());
  };
  auto unpopped = [&](const InferenceRequest& request) {
    track_queued(request.completion->queue_priority, request.images.shape().batch());
  };
  while (true) {
    std::optional<Scheduled<InferenceRequest>> first = queue_.pop();
    if (!first.has_value()) return;  // closed and drained
    popped(first->item);
    if (discard_if_cancelled(first->item)) continue;
    // Coalesce pending requests into one edge batch, up to batch_size
    // instances of the same geometry, taking them in the queue's
    // scheduling order. A request that does not fit (wrong geometry or
    // it would overflow the cap) is requeued under its original key and
    // arrival seq — never parked on this worker — so a higher-priority
    // arrival can still overtake it before the next batch forms.
    std::vector<InferenceRequest> batch;
    int rows = first->item.images.shape().batch();
    const Shape item_shape = instance_shape(first->item.images.shape());
    batch.push_back(std::move(first->item));
    while (rows < batch_size_) {
      std::optional<Scheduled<InferenceRequest>> next = queue_.try_pop();
      if (!next.has_value()) break;
      popped(next->item);
      if (discard_if_cancelled(next->item)) continue;
      const int count = next->item.images.shape().batch();
      if (instance_shape(next->item.images.shape()) != item_shape ||
          rows + count > batch_size_) {
        unpopped(next->item);
        queue_.requeue(std::move(*next));
        break;
      }
      rows += count;
      batch.push_back(std::move(next->item));
    }
    // Queue-wait accounting happens once per request, when it finally
    // enters a batch (a requeued request is charged its whole wait).
    const SteadyClock::time_point batched_at = clock_->now();
    for (const InferenceRequest& request : batch) {
      collector_.record_queue_wait(
          request.completion->queue_priority,
          std::chrono::duration<double>(batched_at - request.completion->submitted_at).count());
    }
    safe_process(batch);
  }
}

void InferenceSession::offload_loop() {
  // The dispatcher is an actor too: while it occupies the cell the
  // VirtualClock advances through its scheduled transfer completions.
  sim::ActorGuard actor(*clock_);
  mark_started();
  while (std::optional<Scheduled<OffloadJob>> scheduled = offload_queue_.pop()) {
    OffloadJob& job = scheduled->item;
    OffloadTicket& ticket = *job.ticket;
    // Simulated transport: the payload's upload occupies this station's
    // share of the (possibly shared) cell for its transfer duration
    // (WiFi-derived +base RTT +jitter, keyed by the payload's first
    // result id so the draw does not depend on dispatch interleaving) —
    // a blocking cell transfer on the session clock. An abandoned
    // ticket cuts the transfer short — the sender gave up at its offload
    // timeout or deadline, so nothing keeps transmitting — and skips the
    // backend entirely; the giving-up waiter pokes the cell so the
    // cancel is seen promptly.
    const std::uint64_t transfer_key = static_cast<std::uint64_t>(job.first_id);
    auto ticket_abandoned = [&ticket] {
      std::lock_guard<std::mutex> lock(ticket.mutex);
      return ticket.abandoned;
    };
    OffloadAnswer answer;
    bool abandoned = false;
    if (cell_) {
      const sim::TransferOutcome up =
          cell_->uplink_transfer(station_, transfer_key, job.payload_bytes, ticket_abandoned);
      answer.upload_s = up.delay_s;
      abandoned = up.cancelled;
    } else {
      abandoned = ticket_abandoned();
    }
    if (!abandoned) {
      try {
        answer.predictions = backend_->classify(job.payload);
      } catch (...) {
        // A throwing backend is an unreachable cloud (whatever it threw):
        // the affected instances keep their edge predictions.
        answer.failed = true;
      }
    }
    // The answer is not free: its bytes ride the downlink, and only
    // after that transfer does the waiting worker see it. A waiter that
    // gives up mid-downlink cuts it short like mid-upload.
    if (cell_ && !answer.predictions.empty()) {
      const std::int64_t response_bytes =
          kResponseBytesPerInstance * static_cast<std::int64_t>(answer.predictions.size());
      answer.downlink_s =
          cell_->downlink_transfer(station_, transfer_key, response_bytes, ticket_abandoned)
              .delay_s;
    }
    {
      // The one exit: an abandoned ticket's waiter has already returned
      // and never reads this answer.
      std::lock_guard<std::mutex> lock(ticket.mutex);
      answer.answered_at = clock_->now();
      ticket.answer = std::move(answer);
      ticket.done = true;
    }
    clock_->notify(ticket.answered);
  }
}

InferenceSession::OffloadAnswer InferenceSession::offload(OffloadPayload payload,
                                                          std::size_t expected,
                                                          std::int64_t payload_bytes,
                                                          std::int64_t first_id, SchedKey key,
                                                          double wait_bound_s) {
  collector_.record_offload_dispatch();
  auto ticket = std::make_shared<OffloadTicket>();
  if (!offload_queue_.push(
          OffloadJob{std::move(payload), payload_bytes, first_id, ticket}, key)) {
    return {};  // session shutting down: edge fallback
  }
  std::unique_lock<std::mutex> lock(ticket->mutex);
  const sim::Clock::TimePoint bound = sim::Clock::after(clock_->now(), wait_bound_s);
  if (!clock_->wait(lock, ticket->answered, bound, [&] { return ticket->done; })) {
    // Give up: mark the slip abandoned so the dispatcher stops the
    // simulated upload and never bothers the backend; a late answer
    // dies with the ticket. The caller attributes the cause per
    // instance (offload timeout vs deadline expiry) and keeps edge
    // predictions, exactly like the NullBackend path. The poke() makes
    // a dispatcher parked mid-transfer re-check the abandonment flag.
    ticket->abandoned = true;
    lock.unlock();
    clock_->notify(ticket->answered);
    if (cell_) cell_->poke();
    OffloadAnswer answer;
    answer.gave_up = true;
    return answer;
  }
  OffloadAnswer answer = std::move(ticket->answer);
  if (answer.failed || answer.predictions.size() != expected) {
    // A throwing backend, or a wrong-sized reply from a misbehaving
    // one, is treated like an unreachable cloud rather than failing the
    // edge-answered instances in the batch too. (An empty reply is the
    // normal "unavailable".)
    if (answer.failed || !answer.predictions.empty()) collector_.record_offload_failure();
    return {};
  }
  return answer;
}

void InferenceSession::process(core::EdgeInferenceEngine& engine,
                               const std::vector<InferenceRequest>& requests) {
  if (requests.empty()) return;
  std::int64_t rows = 0;
  for (const InferenceRequest& request : requests) rows += request.images.shape().batch();
  std::vector<std::int64_t> ids(static_cast<std::size_t>(rows));
  std::vector<int> req_of_row(static_cast<std::size_t>(rows));
  // Stack the coalesced requests into one batch tensor; a lone request
  // (the common run() path submits full batches) is forwarded as-is.
  Tensor stacked;
  if (requests.size() > 1) {
    std::vector<int> dims = requests.front().images.shape().dims();
    dims[0] = static_cast<int>(rows);
    stacked = Tensor{Shape(dims)};
    const std::int64_t stride = stacked.numel() / rows;
    std::int64_t offset = 0;
    for (std::size_t q = 0; q < requests.size(); ++q) {
      const InferenceRequest& request = requests[q];
      const std::int64_t count = request.images.shape().batch();
      std::copy(request.images.data(), request.images.data() + count * stride,
                stacked.data() + offset * stride);
      for (std::int64_t i = 0; i < count; ++i) {
        ids[static_cast<std::size_t>(offset + i)] = request.id + i;
        req_of_row[static_cast<std::size_t>(offset + i)] = static_cast<int>(q);
      }
      offset += count;
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i) {
      ids[static_cast<std::size_t>(i)] = requests.front().id + i;
      req_of_row[static_cast<std::size_t>(i)] = 0;
    }
  }
  const Tensor& batch = requests.size() > 1 ? stacked : requests.front().images;

  core::BatchInference inference = engine.infer_batch(batch);
  const std::vector<core::InstanceDecision>& decisions = inference.decisions;
  std::vector<InferenceResult> batch_results(static_cast<std::size_t>(rows));

  // Ship cloud-routed instances to the offload dispatcher in one
  // payload. An instance whose request was cancelled, or whose deadline
  // already passed while it sat in the queue, is excluded — it keeps its
  // edge prediction and never touches the backend.
  std::vector<int> cloud_rows;
  const SteadyClock::time_point routed_at = clock_->now();
  for (std::size_t row = 0; row < decisions.size(); ++row) {
    if (decisions[row].route != core::Route::kCloud) continue;
    const detail::RequestState& state =
        *requests[static_cast<std::size_t>(req_of_row[row])].completion;
    if (state.is_cancelled()) continue;
    if (routed_at >= deadline_at(state, core::Route::kCloud)) {
      batch_results[row].deadline_expired = true;  // expired while queued
      continue;
    }
    cloud_rows.push_back(static_cast<int>(row));
  }
  OffloadAnswer answer;
  SteadyClock::time_point gave_up_at{};
  if (!cloud_rows.empty()) {
    OffloadPayload payload;
    if (backend_->needs_images()) payload.images = ops::gather_rows(batch, cloud_rows);
    if (backend_->needs_features()) {
      payload.features = ops::gather_rows(inference.features, cloud_rows);
    }
    const std::int64_t payload_bytes =
        backend_->payload_bytes(instance_shape(batch.shape()),
                                instance_shape(inference.features.shape())) *
        static_cast<std::int64_t>(cloud_rows.size());
    // Wait no longer than the offload timeout, and no longer than the
    // last payload instance's deadline keeps anyone interested. The
    // pending upload is ordered against the other dispatch-queue
    // entries by the same (priority, deadline, arrival) key as the
    // worker queue: the payload's highest request priority and its
    // *tightest* instance deadline.
    double max_remaining_s = 0.0;
    SchedKey job_key;
    job_key.priority = std::numeric_limits<int>::min();
    for (const int row : cloud_rows) {
      const detail::RequestState& state =
          *requests[static_cast<std::size_t>(req_of_row[static_cast<std::size_t>(row)])]
               .completion;
      const SteadyClock::time_point deadline = deadline_at(state, core::Route::kCloud);
      const double remaining_s =
          deadline == SteadyClock::time_point::max()
              ? std::numeric_limits<double>::infinity()
              : std::chrono::duration<double>(deadline - routed_at).count();
      max_remaining_s = std::max(max_remaining_s, remaining_s);
      job_key.priority = std::max(job_key.priority, state.queue_priority);
      job_key.deadline = std::min(job_key.deadline, deadline);
    }
    const std::int64_t first_id = ids[static_cast<std::size_t>(cloud_rows.front())];
    answer = offload(std::move(payload), cloud_rows.size(), payload_bytes, first_id, job_key,
                     std::min(offload_timeout_s_, max_remaining_s));
    gave_up_at = clock_->now();
  }

  // Price the work. An unset upload payload size is derived from the
  // backend's geometry-based estimate.
  sim::EdgeNodeCosts costs = costs_;
  if (costs.upload_bytes_per_instance == 0 && !cloud_rows.empty()) {
    costs.upload_bytes_per_instance =
        backend_->payload_bytes(instance_shape(batch.shape()),
                                instance_shape(inference.features.shape()));
  }

  for (std::size_t row = 0; row < decisions.size(); ++row) {
    const core::InstanceDecision& d = decisions[row];
    InferenceResult& r = batch_results[row];
    r.id = ids[row];
    r.route = d.route;
    r.entropy = d.entropy;
    r.main_confidence = d.main_confidence;
    r.margin = d.margin;
    r.extension_confidence = d.extension_confidence;
    r.main_prediction = d.main_prediction;
    r.edge_prediction = d.prediction;
    r.prediction = d.prediction;
    r.compute_energy_j = costs.compute_energy_j(d.route);
    r.compute_time_s = costs.compute_time_s(d.route);
    r.comm_energy_j = costs.comm_energy_j(d.route);
    r.comm_time_s = costs.comm_time_s(d.route);
  }
  // Per-instance attribution of the dispatch outcome, each instance
  // to exactly one cause: a cloud answer is used only if it arrived
  // before the instance's deadline (an answer past it, or a give-up
  // past it, is a deadline expiry); a give-up before the deadline is
  // an offload timeout; a prompt-but-empty reply (lossy link,
  // NullBackend) or a backend failure is a drop — neither flag.
  const bool answered = !answer.predictions.empty();
  std::int64_t timed_out = 0;
  for (std::size_t k = 0; k < cloud_rows.size(); ++k) {
    const std::size_t row = static_cast<std::size_t>(cloud_rows[k]);
    const detail::RequestState& state =
        *requests[static_cast<std::size_t>(req_of_row[row])].completion;
    const SteadyClock::time_point deadline = deadline_at(state, core::Route::kCloud);
    InferenceResult& r = batch_results[row];
    if (answered && answer.answered_at <= deadline) {
      r.prediction = answer.predictions[k];
      r.offloaded = true;
      // Simulated transfer occupancy of the payload that delivered this
      // answer (whole-payload figures; coalesced instances share one
      // transfer).
      r.upload_time_s = answer.upload_s;
      r.download_time_s = answer.downlink_s;
    } else if (answered) {
      r.deadline_expired = true;  // the answer came too late
    } else if (answer.gave_up) {
      if (gave_up_at < deadline) {
        ++timed_out;
      } else {
        r.deadline_expired = true;
      }
    }
  }
  if (timed_out > 0) collector_.record_offload_timeout(timed_out);

  // Settle each coalesced request's slot in the completion table,
  // flagging instances that completed past their routed deadline and
  // recording end-to-end (submit -> settle) latency — unless a cancel
  // won the race, in which case the results are dropped.
  std::size_t offset = 0;
  for (const InferenceRequest& request : requests) {
    const std::size_t count = static_cast<std::size_t>(request.images.shape().batch());
    const SteadyClock::time_point settled_at = clock_->now();
    std::int64_t late = 0;
    for (std::size_t i = offset; i < offset + count; ++i) {
      InferenceResult& r = batch_results[i];
      // Cloud instances were attributed above (an offloaded or
      // timed-out instance is never also an expiry); the on-device
      // routes get the observational late flag here.
      if (r.route != core::Route::kCloud && !r.deadline_expired &&
          settled_at > deadline_at(*request.completion, r.route)) {
        r.deadline_expired = true;
      }
      if (r.deadline_expired) ++late;
    }
    const double e2e_s =
        sim::Clock::seconds_between(request.completion->submitted_at, settled_at);
    for (std::size_t i = offset; i < offset + count; ++i) {
      batch_results[i].e2e_latency_s = e2e_s;
    }
    // Metrics are recorded inside the transition's critical section so a
    // caller woken by the settle can never read counters that miss it.
    // A lost transition means a cancel won mid-service: the inference
    // ran but the caller is gone, and the cancel already counted itself.
    request.completion->settle(
        std::vector<InferenceResult>(
            batch_results.begin() + static_cast<std::ptrdiff_t>(offset),
            batch_results.begin() + static_cast<std::ptrdiff_t>(offset + count)),
        [&] {
          for (std::size_t i = offset; i < offset + count; ++i) {
            collector_.record_completion(batch_results[i].route, e2e_s);
          }
          if (late > 0) collector_.record_deadline_expired(late);
        });
    offset += count;
  }
}

}  // namespace meanet::runtime
