// Measurement helpers of the end-to-end benchmark: wall time, nearest-rank
// percentiles (through runtime::sorted_percentile, not a second copy), the
// seeded open-loop arrival schedule, span recording with self-time
// arithmetic, metric reports with name validation, and host/process facts.
//
// Nothing here reaches into the library's internals: every number is read
// from a public call or a counter the library already exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ----- Time ---------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Sleeps until now_s() reaches `t` (no-op when already past).
void sleep_until_s(double t);

// ----- Percentiles ----------------------------------------------------------

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample set; sorts a
/// copy and reads the rank through runtime::sorted_percentile. 0 when empty.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

// ----- Open-loop arrivals ---------------------------------------------------

/// Due times (seconds from the start of the stream) of a Poisson arrival
/// process of `rate_per_s` over [0, duration_s): exponential gaps drawn
/// from a generator seeded with `seed`. The same seed gives the same
/// schedule on every platform: the gaps are drawn from util::Rng's
/// mt19937_64 engine bits, not from a library-defined distribution.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s);

// ----- Spans ----------------------------------------------------------------

struct Span {
  std::int64_t id = 0;
  /// Id of the enclosing span; -1 for a root.
  std::int64_t parent = -1;
  /// Request the span belongs to; -1 when unknown.
  std::int64_t request = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const { return end_s - start_s; }
};

/// Thread-safe in-memory span sink. Spans are kept until the run ends and
/// read back with spans(); nothing is written while recording.
class SpanRecorder {
 public:
  /// Records a finished span and returns its id.
  std::int64_t record(std::string name, double start_s, double end_s, std::int64_t request = -1,
                      std::int64_t parent = -1);
  std::vector<Span> spans() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A span's duration minus the part of it its children cover. Children
/// may nest or overlap each other; each is clipped to the parent first,
/// and overlapping children count once (the union of their intervals).
double self_time(const Span& parent, const std::vector<Span>& children);

/// self_time of every span in `spans`, keyed by position, with children
/// found through Span::parent.
std::vector<double> self_times(const std::vector<Span>& spans);

// ----- Metrics ----------------------------------------------------------------

/// True for 1..64 characters of [A-Za-z0-9_.-] starting with a letter or
/// a digit — the names BENCHMARK.json accepts.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered metric set. add() rejects malformed or duplicate names by
/// throwing std::invalid_argument, so a bad name fails the run instead of
/// reaching the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  bool has(const std::string& name) const;
  double value(const std::string& name) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string to_json(bool correct, std::int64_t attempted, std::int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Formats a double with every digit needed to round-trip it.
std::string format_number(double value);

/// JSON string literal with the escapes RFC 8259 requires.
std::string json_string(const std::string& text);

// ----- Process and host -------------------------------------------------------

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Logical CPUs the process may run on.
int online_cpus();

/// CPU model string from /proc/cpuinfo ("unknown" when absent).
std::string cpu_model();

}  // namespace e2e
