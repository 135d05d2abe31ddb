// Persistent worker pool that serves sim::CloudNode's batch-row
// shards: one cloud batch split into contiguous row ranges, each an
// eval forward on its own slot. Everything below the shard (GEMM, conv)
// runs on the slot's thread, so run() never nests.
//
// The workers live for the process: their thread-local ops::Workspace
// scratch survives across batches, and a batch pays a condvar wake-up,
// not a thread spawn.
//
// Concurrency contract: run() executes fn(0) on the calling thread and
// fn(1..threads-1) on pool workers, returning after all complete. A
// throw from any slot is caught there; run() still waits for every
// slot, then rethrows the lowest slot's exception on the caller.
// Concurrent run() calls from different threads (two sessions'
// dispatchers offloading to one CloudNode) serialize on an internal
// mutex. Everything is mutex+condvar — no atomics-as-synchronization —
// so the pool is clean under TSAN.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "diag/provider.h"
#include "diag/registry.h"

namespace meanet::ops {

/// Lazily-started, process-lifetime worker pool. Workers are created on
/// first demand and grow monotonically to the largest `threads` ever
/// requested. A worker that finishes its slot re-enters the condvar
/// wait immediately — there is no spin/backoff window between jobs, so
/// an idle pool costs nothing but parked threads (the benches print
/// stats() in their headers to prove the pool actually engaged).
class GemmPool : public diag::DiagnosticProvider {
 public:
  /// The process-wide pool.
  static GemmPool& instance();

  /// Runs fn(slot) for slot in [0, threads): slot 0 on the calling
  /// thread, the rest on pool workers. Blocks until every slot
  /// returned, then rethrows the first exception in slot order, if
  /// any. threads <= 1 runs fn(0) inline with no locking. Not
  /// reentrant: fn must not call run() with threads > 1.
  void run(int threads, const std::function<void(int)>& fn);

  /// The even split of [0, count) into `parts` contiguous ranges:
  /// slot's [begin, end). Sizes differ by at most one.
  static std::pair<int, int> split(int count, int slot, int parts) {
    const auto at = [&](int s) {
      return static_cast<int>(static_cast<std::int64_t>(count) * s / parts);
    };
    return {at(slot), at(slot + 1)};
  }

  /// Workers currently alive (high-water of past run() widths).
  int worker_count() const;

  /// Lifetime dispatch counters, for bench headers and diagnostics.
  struct Stats {
    int workers = 0;                  ///< pool depth (== worker_count())
    std::uint64_t jobs = 0;           ///< run() calls, including width-1
    std::uint64_t fanout_jobs = 0;    ///< run() calls that used workers
    std::uint64_t stripes = 0;        ///< total fn(slot) executions
  };
  Stats stats() const;

  // DiagnosticProvider: the singleton registers itself as "gemm_pool"
  // on first use (the first CloudNode::classify constructs it), so a
  // registry snapshot taken after a cloud batch always includes the
  // pool.
  std::string diag_name() const override { return "gemm_pool"; }
  diag::Value diag_snapshot() const override;

  ~GemmPool();

 private:
  GemmPool();
  void ensure_workers(int workers);
  void worker_loop(int index);

  /// Serializes whole jobs: one run() owns the pool at a time.
  std::mutex run_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::vector<std::uint64_t> seen_generation_;  // per worker, guarded by mutex_
  const std::function<void(int)>* job_ = nullptr;
  int job_threads_ = 0;   // fn(1..job_threads_-1) run on workers
  int pending_ = 0;       // participating workers not yet finished
  std::vector<std::exception_ptr> errors_;  // per slot of the current job
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  // Dispatch counters (guarded by mutex_ for the worker-side slot
  // count; the width-1 fast path uses jobs_inline_ so it stays
  // lock-free).
  std::uint64_t jobs_fanout_ = 0;
  std::uint64_t stripes_ = 0;
  std::atomic<std::uint64_t> jobs_inline_{0};

  // Last member, so it is the first destroyed once the destructor body
  // (which joins the workers while the pool is still snapshot-safe)
  // returns. The global registry is leaked, so this
  // static-destruction-time unregister is always safe.
  diag::ScopedRegistration diag_registration_;
};

}  // namespace meanet::ops
