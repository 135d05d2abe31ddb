// The four workloads of the end-to-end benchmark. Each one drives the
// library only through its public API, measures for a given number of
// seconds, checks its outputs, and reports its end-to-end metrics; with a
// Tracer it also wraps the seams it owns (offload backend, routing policy,
// completion callback) and reports the per-layer metrics it owns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

/// Where a run finds its prepared models and helper binaries.
struct Context {
  std::string prep_dir;
  std::uint64_t prep_seed = 0;
  /// meanet_cloudd binary spawned by wire_offload.
  std::string cloudd;
  /// Directory for the run's sockets (kept short: sun_path is ~108 bytes).
  std::string run_dir;
};

/// Per-layer output of a traced workload.
struct Tracer {
  SpanRecorder spans;
  Report layers;
};

/// Instances a workload sent and how each one settled. Every sent
/// instance must land in exactly one of the four outcomes.
struct Books {
  std::string phase;
  std::int64_t sent = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;

  bool closed() const { return sent == completed + failed + cancelled + rejected; }
  std::string describe() const;
};

struct Outcome {
  Report metrics;  // end-to-end metrics
  std::vector<Books> books;
  /// Output-check failures; empty = every check passed.
  std::vector<std::string> errors;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> lines;
  /// Session workers and client threads the workload ran with.
  int session_workers = 0;
  int client_threads = 0;
  /// The metric harness.trace_overhead compares (traced ÷ untraced).
  std::string headline;

  std::int64_t attempted() const;
  std::int64_t failed() const;
};

struct WorkloadParams {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Brief runs (the traced run's) time fewer set-ups; setup_s is the
  /// median of each workload's timed set-ups.
  bool brief = false;
};

/// Names of the four workloads, in their canonical order.
const std::vector<std::string>& workload_names();

/// Runs one workload; a null tracer means untraced.
Outcome run_workload(const std::string& name, const Context& ctx, const WorkloadParams& params,
                     Tracer* tracer);

}  // namespace e2e
