// Per-request completion for the async serving API.
//
// submit() hands back a ResultHandle instead of a bare id: a future-like
// view onto the request's slot in the session's completion table. Each
// submitted request owns one detail::RequestState; the state transitions
// exactly once — the worker settles it with results or an error, or a
// caller cancels it first — and every handle sharing the state observes
// the transition through ready() / try_get() / wait() / cancelled().
// Reads are non-destructive — results stay in the state, so drain() can
// still collect a whole round while callers hold handles onto individual
// requests.
//
// Cancellation (ResultHandle::cancel()) races cleanly with the serving
// side: exactly one of {settle, fail, cancel} wins the transition, the
// losers are no-ops. A request cancelled while it still sits in the
// queue is discarded by the worker without ever touching the engine or
// the offload backend; a request cancelled mid-service finishes its
// inference but the results are dropped (the settle loses the race).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/inference_policy.h"
#include "sim/clock.h"

namespace meanet::runtime {

/// Per-instance outcome of Alg. 2.
struct InferenceResult {
  std::int64_t id = 0;
  /// Final prediction in global label space (cloud answer when the
  /// instance was offloaded and the backend responded in time).
  int prediction = -1;
  core::Route route = core::Route::kMainExit;
  /// True when the instance was cloud-routed and the backend answered
  /// within the offload timeout and the instance's deadline.
  bool offloaded = false;
  /// True when the instance's routed deadline expired
  /// (EngineConfig::route_deadline_s or the submit-time override). A
  /// cloud-routed instance with this flag kept its edge prediction —
  /// offloaded and deadline_expired are mutually exclusive.
  bool deadline_expired = false;
  // Exit-1 signals (only the ones the routing policy declared via
  // needed_signals() are computed; the rest stay 0).
  float entropy = 0.0f;
  float main_confidence = 0.0f;
  float margin = 0.0f;
  /// Max softmax score at exit 2 (0 when the extension did not run).
  float extension_confidence = 0.0f;
  /// Exit-1 argmax (the IsHard detector's input).
  int main_prediction = -1;
  /// Edge prediction before any cloud answer (the offload fallback).
  int edge_prediction = -1;
  // Per-instance cost (EngineConfig::costs pricing).
  double compute_energy_j = 0.0;
  double comm_energy_j = 0.0;
  double compute_time_s = 0.0;
  double comm_time_s = 0.0;
  /// Simulated transport occupancy of the offload that delivered this
  /// instance's cloud answer: the upload delay of its payload and the
  /// downlink delay of the response (whole-payload figures — coalesced
  /// instances share one transfer). 0 when the instance was not
  /// offloaded or the session has no cell (EngineConfig::cell). Pure
  /// functions of the cell's seed and the payload identity, so
  /// same-seed runs report bit-identical values at any worker count.
  double upload_time_s = 0.0;
  double download_time_s = 0.0;
  /// End-to-end (submit() -> settle) latency of the request that
  /// carried this instance, on the session clock, seconds — the same
  /// figure SessionMetrics aggregates into per-route percentiles.
  /// Under a VirtualClock this is pure simulated time (compute costs
  /// zero virtual seconds), so a seeded scenario reproduces it
  /// bit-identically at any worker count.
  double e2e_latency_s = 0.0;
};

namespace detail {

/// One submitted request's slot in the completion table. Transitions
/// exactly once: the worker that serves the request settles it (results
/// or error), or a cancel() beats the worker to it. Whoever wins fires
/// the completion hook — the losers drop their side silently.
struct RequestState {
  RequestState() { live_count.fetch_add(1, std::memory_order_relaxed); }
  ~RequestState() { live_count.fetch_sub(1, std::memory_order_relaxed); }
  RequestState(const RequestState&) = delete;
  RequestState& operator=(const RequestState&) = delete;

  /// Live RequestState instances across the process — the soak test's
  /// completion-state leak detector.
  inline static std::atomic<std::int64_t> live_count{0};

  std::int64_t first_id = 0;
  int expected = 0;
  /// The session's time source (the process WallClock until enqueue
  /// sets it, before any other thread can see the state): handle waits
  /// block through it and transitions notify through it, so a caller
  /// parked on wait() counts as a blocked actor under a VirtualClock.
  std::shared_ptr<sim::Clock> clock = sim::wall_clock_ptr();
  /// When submit() accepted the request (on the session clock): the
  /// base of end-to-end latency accounting and the epoch its deadline
  /// is measured from.
  std::chrono::steady_clock::time_point submitted_at{};
  /// Per-request deadline override in seconds from submit(); NaN means
  /// the session's per-route deadlines apply.
  double deadline_override_s = std::numeric_limits<double>::quiet_NaN();
  /// Scheduling priority the request was queued under (its
  /// SubmitOptions::priority, or 0), in the worker queue and for its
  /// cloud upload. Immutable after enqueue.
  int queue_priority = 0;

  mutable std::mutex mutex;
  mutable std::condition_variable done_cv;
  bool done = false;       // guarded by mutex
  bool cancelled = false;  // guarded by mutex; implies done
  std::vector<InferenceResult> results;  // guarded by mutex
  std::string error;                     // guarded by mutex; nonempty = failed
  /// Set once a handle read the results (wait()/try_get()); the session
  /// then prunes the request from its round on a later submit(), so
  /// handle-only streaming callers don't accumulate every result ever
  /// served. drain() still returns requests that are merely consumed
  /// but not yet pruned.
  mutable bool consumed = false;  // guarded by mutex
  /// Fired exactly once by whichever transition wins. The session wraps
  /// the user's on_complete so it runs on the completion-callback
  /// thread, never on a serving worker.
  std::function<void()> completion_hook;  // guarded by mutex until moved out
  /// Run under the mutex when a cancel() wins, before any waiter can
  /// observe the transition — the session records the cancellation in
  /// its metrics here, so counters never lag the handle state.
  std::function<void()> cancel_hook;  // set once at enqueue

  /// Completes the request with its results. `on_win` runs under the
  /// mutex before any waiter can observe done (the session records its
  /// completion metrics there). False if the transition was lost (the
  /// request was cancelled first).
  template <typename OnWin>
  bool settle(std::vector<InferenceResult> request_results, OnWin on_win) {
    return transition([&] { results = std::move(request_results); }, on_win);
  }
  bool settle(std::vector<InferenceResult> request_results) {
    return settle(std::move(request_results), [] {});
  }

  /// Fails the request. False if the transition was lost.
  template <typename OnWin>
  bool fail(std::string why, OnWin on_win) {
    return transition([&] { error = std::move(why); }, on_win);
  }
  bool fail(std::string why) { return fail(std::move(why), [] {}); }

  /// Cancels the request. False if it had already settled (or was
  /// already cancelled) — a no-op then.
  bool cancel() {
    return transition([&] { cancelled = true; },
                      [&] {
                        if (cancel_hook) cancel_hook();
                      });
  }

  bool is_cancelled() const {
    std::lock_guard<std::mutex> lock(mutex);
    return cancelled;
  }

  /// Blocks through the session clock until the request settles. Call
  /// with `lock` held on `mutex`.
  void wait_done(std::unique_lock<std::mutex>& lock) const {
    clock->wait(lock, done_cv, sim::Clock::TimePoint::max(), [&] { return done; });
  }

 private:
  template <typename Mutation, typename OnWin>
  bool transition(Mutation mutate, OnWin on_win) {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (done) return false;
      mutate();
      on_win();  // metrics land before done is observable
      done = true;
      hook = std::move(completion_hook);
      completion_hook = nullptr;
    }
    clock->notify(done_cv);
    if (hook) hook();  // outside the lock: the hook may take other locks
    return true;
  }
};

}  // namespace detail

/// Future-like view onto one submit() call's instances. Copyable and
/// cheap; all copies observe the same completion. A default-constructed
/// handle is invalid and throws on use.
class ResultHandle {
 public:
  ResultHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Result id of the request's first instance (instance i of the
  /// request gets id() + i), matching what submit() used to return.
  std::int64_t id() const { return checked().first_id; }

  /// Instances in the request.
  int count() const { return checked().expected; }

  /// True once the request settled (successfully, with an error, or by
  /// cancellation).
  bool ready() const {
    const detail::RequestState& state = checked();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.done;
  }

  /// Cancels the request. Returns true when the cancellation won — the
  /// request will never deliver results, its wait() returns empty, and
  /// if it was still queued the worker discards it without touching the
  /// engine or the offload backend. Returns false (a no-op) when the
  /// request had already settled; the results it delivered stay valid.
  bool cancel() { return checked().cancel(); }

  /// True when the request was cancelled before it could settle.
  bool cancelled() const {
    const detail::RequestState& state = checked();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.cancelled;
  }

  /// Blocks until the request settles, then returns its per-instance
  /// results ordered by id — empty if the request was cancelled. Throws
  /// std::runtime_error if the serving worker failed on this request.
  /// Reads are non-destructive (wait() can be called again), but mark
  /// the request consumed so the session can eventually prune it from
  /// the drain() round.
  std::vector<InferenceResult> wait() const {
    const detail::RequestState& state = checked();
    std::unique_lock<std::mutex> lock(state.mutex);
    state.wait_done(lock);
    if (!state.error.empty()) {
      throw std::runtime_error("InferenceSession worker failed: " + state.error);
    }
    state.consumed = true;
    return state.results;  // empty when cancelled
  }

  /// Non-blocking wait(): nullopt while the request is in flight; throws
  /// like wait() if the request failed; empty if it was cancelled.
  std::optional<std::vector<InferenceResult>> try_get() const {
    const detail::RequestState& state = checked();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.done) return std::nullopt;
    if (!state.error.empty()) {
      throw std::runtime_error("InferenceSession worker failed: " + state.error);
    }
    state.consumed = true;
    return state.results;
  }

 private:
  friend class InferenceSession;

  explicit ResultHandle(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  detail::RequestState& checked() const {
    if (!state_) throw std::logic_error("ResultHandle: invalid (default-constructed) handle");
    return *state_;
  }

  std::shared_ptr<detail::RequestState> state_;
};

}  // namespace meanet::runtime
