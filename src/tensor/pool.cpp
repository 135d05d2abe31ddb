#include "tensor/pool.h"

namespace meanet::ops {

GemmPool& GemmPool::instance() {
  // Function-local static: constructed on first use, destroyed at
  // process exit after main() returns — the workers are joined there,
  // so no thread outlives static destruction.
  static GemmPool pool;
  return pool;
}

GemmPool::GemmPool()
    : diag_registration_(diag::DiagnosticRegistry::global(), this) {}

GemmPool::~GemmPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

int GemmPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

GemmPool::Stats GemmPool::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.workers = static_cast<int>(workers_.size());
    out.fanout_jobs = jobs_fanout_;
    out.stripes = stripes_;
  }
  out.jobs = out.fanout_jobs + jobs_inline_.load(std::memory_order_relaxed);
  return out;
}

diag::Value GemmPool::diag_snapshot() const {
  const Stats s = stats();
  diag::Value v = diag::Value::object();
  v.set("workers", s.workers);
  v.set("jobs", s.jobs);
  v.set("fanout_jobs", s.fanout_jobs);
  v.set("stripes", s.stripes);
  return v;
}

void GemmPool::ensure_workers(int workers) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < workers) {
    const int index = static_cast<int>(workers_.size());
    // A worker born mid-life starts at the current generation so it can
    // never pick up a job that finished before it existed.
    seen_generation_.push_back(generation_);
    workers_.emplace_back([this, index] { worker_loop(index); });
  }
}

void GemmPool::run(int threads, const std::function<void(int)>& fn) {
  if (threads <= 1) {
    jobs_inline_.fetch_add(1, std::memory_order_relaxed);
    fn(0);
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  ensure_workers(threads - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_threads_ = threads;
    pending_ = threads - 1;
    errors_.assign(static_cast<std::size_t>(threads), nullptr);
    ++jobs_fanout_;
    stripes_ += static_cast<std::uint64_t>(threads);
    ++generation_;
    work_cv_.notify_all();
  }
  // The caller serves slot 0 — no self-deadlock, no idle caller. Its
  // throw must not unwind past the wait: workers still run fn.
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  job_ = nullptr;
  std::exception_ptr first = caller_error;
  for (std::size_t slot = 1; !first && slot < errors_.size(); ++slot) first = errors_[slot];
  errors_.clear();
  lock.unlock();
  if (first) std::rethrow_exception(first);
}

void GemmPool::worker_loop(int index) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // A finished worker lands straight back in this condvar wait — the
    // loop has no spin/backoff window, so between jobs the pool
    // costs nothing but parked threads.
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation_[index]; });
    if (stop_) return;
    seen_generation_[index] = generation_;
    if (index + 1 >= job_threads_) continue;  // this job is narrower than the pool
    const std::function<void(int)>* job = job_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job)(index + 1);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    errors_[static_cast<std::size_t>(index) + 1] = error;
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

}  // namespace meanet::ops
