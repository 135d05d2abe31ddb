#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "core/edge_inference.h"
#include "core/trainer.h"
#include "layers.h"
#include "models.h"
#include "nn/serialize.h"
#include "runtime/offload_backend.h"
#include "runtime/session.h"
#include "sim/cloud_node.h"
#include "tensor/pool.h"
#include "wire/frame.h"
#include "wire/process.h"
#include "wire/wire_backend.h"

namespace e2e {

using namespace meanet;

namespace {

constexpr int kMainExit = static_cast<int>(core::Route::kMainExit);
constexpr int kExtension = static_cast<int>(core::Route::kExtensionExit);
constexpr int kCloud = static_cast<int>(core::Route::kCloud);

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// FNV-1a over an instance's bytes: maps an offload payload's first row
/// back to the request that carried it.
std::uint64_t instance_hash(const float* data, std::int64_t count) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::int64_t i = 0; i < count * static_cast<std::int64_t>(sizeof(float)); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

// ----- Seams the benchmark owns --------------------------------------------

/// Timing OffloadBackend: records one span per classify() around the real
/// backend, attributed to a request through `request_of`, and keeps the
/// first few payloads for the codec replay.
class TimingBackend : public runtime::OffloadBackend {
 public:
  TimingBackend(std::shared_ptr<runtime::OffloadBackend> inner, SpanRecorder* spans,
                std::string span_name,
                std::function<std::int64_t(const runtime::OffloadPayload&)> request_of)
      : inner_(std::move(inner)),
        spans_(spans),
        span_name_(std::move(span_name)),
        request_of_(std::move(request_of)) {}

  std::vector<int> classify(const runtime::OffloadPayload& payload) override {
    const double t0 = now_s();
    std::vector<int> out;
    try {
      out = inner_->classify(payload);
    } catch (...) {
      spans_->record(span_name_ + ".failed", t0, now_s(), request_of_(payload));
      throw;
    }
    spans_->record(span_name_, t0, now_s(), request_of_(payload));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (samples_.size() < 8) samples_.push_back(payload);
    }
    return out;
  }
  bool needs_images() const override { return inner_->needs_images(); }
  bool needs_features() const override { return inner_->needs_features(); }
  std::int64_t payload_bytes(const Shape& image, const Shape& feature) const override {
    return inner_->payload_bytes(image, feature);
  }
  std::string describe() const override { return "timed(" + inner_->describe() + ")"; }

  std::vector<runtime::OffloadPayload> samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }

 private:
  std::shared_ptr<runtime::OffloadBackend> inner_;
  SpanRecorder* spans_;
  std::string span_name_;
  std::function<std::int64_t(const runtime::OffloadPayload&)> request_of_;
  mutable std::mutex mutex_;
  std::vector<runtime::OffloadPayload> samples_;
};

/// Timing RoutingPolicy: one span per route() call around the real policy.
class TimingPolicy : public core::RoutingPolicy {
 public:
  TimingPolicy(std::shared_ptr<const core::RoutingPolicy> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}
  core::Route route(const core::RouteSignals& signals) const override {
    const double t0 = now_s();
    const core::Route r = inner_->route(signals);
    spans_->record("route", t0, now_s());
    return r;
  }
  unsigned needed_signals() const override { return inner_->needed_signals(); }
  std::string describe() const override { return "timed(" + inner_->describe() + ")"; }

 private:
  std::shared_ptr<const core::RoutingPolicy> inner_;
  SpanRecorder* spans_;
};

std::shared_ptr<const core::RoutingPolicy> entropy_policy(const data::ClassDict& dict,
                                                          double threshold, bool cloud,
                                                          Tracer* tracer) {
  auto policy = std::make_shared<core::EntropyThresholdPolicy>(
      dict, core::PolicyConfig{threshold, cloud});
  if (tracer == nullptr) return policy;
  return std::make_shared<TimingPolicy>(policy, &tracer->spans);
}

std::vector<double> span_durations(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_s());
  }
  return out;
}

std::vector<Tensor> split_rows(const Tensor& images, int rows_per_piece) {
  std::vector<Tensor> out;
  const int n = images.shape().batch();
  for (int first = 0; first + rows_per_piece <= n; first += rows_per_piece) {
    out.push_back(images.slice_batch(first, rows_per_piece));
  }
  return out;
}

/// Temporarily points this process's stdout at /dev/null while `fn` runs,
/// so a spawned child inherits the quiet descriptor and its prints never
/// reach the result stream.
template <typename Fn>
auto with_quiet_stdout(Fn&& fn) {
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  const int null = ::open("/dev/null", O_WRONLY);
  ::dup2(null, STDOUT_FILENO);
  struct Restore {
    int saved, null;
    ~Restore() {
      ::dup2(saved, STDOUT_FILENO);
      ::close(saved);
      ::close(null);
    }
  } restore{saved, null};
  return fn();
}

/// Reads the number that follows `"key":` after `from` in a JSON document
/// (the daemon's registry snapshot); -1 when absent.
double json_number_after(const std::string& doc, std::size_t from, const std::string& key) {
  const std::size_t at = doc.find("\"" + key + "\"", from);
  if (at == std::string::npos) return -1.0;
  const std::size_t colon = doc.find(':', at + key.size() + 2);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(doc.c_str() + colon + 1, nullptr);
}

struct ServerCounters {
  double instances = 0, batches = 0, cross_session = 0;
};

ServerCounters server_counters(const std::string& doc) {
  const std::size_t at = doc.find("\"wire_server/");
  if (at == std::string::npos) throw std::runtime_error("daemon snapshot has no wire_server");
  return ServerCounters{json_number_after(doc, at, "instances_served"),
                        json_number_after(doc, at, "batches"),
                        json_number_after(doc, at, "cross_session_batches")};
}

// ----- Shared bookkeeping -----------------------------------------------------

/// One served request as the client saw it.
struct Served {
  double done_s = 0.0;     // when the client had the answer
  double latency_s = 0.0;  // the workload's latency figure
  int instances = 0;
};

/// Closed-loop client: submits requests from a pool round-robin from
/// `first` until `end_s`, waits for each answer and checks it with `check`.
/// Each client keeps its own log; the shared books (and `errors`, for a
/// submit that throws) are updated under `mutex` at the end.
template <typename Submit, typename Check>
void closed_loop(std::size_t first, double end_s, std::size_t pool_size, Submit&& submit,
                 Check&& check, std::vector<Served>& log, Books& books,
                 std::vector<std::string>& errors, std::mutex& mutex) {
  Books mine;
  std::string error;
  for (std::size_t k = first; now_s() < end_s; ++k) {
    const std::size_t r = k % pool_size;
    const double t0 = now_s();
    runtime::ResultHandle handle;
    try {
      handle = submit(r);
    } catch (const std::exception& e) {
      error = std::string("submit threw: ") + e.what();
      break;
    }
    const int count = handle.count();
    mine.sent += count;
    std::vector<runtime::InferenceResult> results;
    try {
      results = handle.wait();
    } catch (const std::exception&) {
      mine.failed += count;
      continue;
    }
    const double t1 = now_s();
    if (handle.cancelled()) {
      mine.cancelled += count;
      continue;
    }
    mine.completed += static_cast<std::int64_t>(results.size());
    check(r, results);
    log.push_back(Served{t1, t1 - t0, count});
  }
  std::lock_guard<std::mutex> lock(mutex);
  books.sent += mine.sent;
  books.completed += mine.completed;
  books.failed += mine.failed;
  books.cancelled += mine.cancelled;
  if (!error.empty()) errors.push_back(error);
}

/// Adds the closed-loop throughput (instances answered ÷ the time from
/// `begin_s` to the last answer) and the whole-run request latency p50 and
/// p90. The tail is p90, not p99: wire_offload answers only 100-250
/// requests a run, and a percentile needs at least ten samples beyond it
/// to repeat.
void closed_loop_metrics(Outcome& out, const std::vector<std::vector<Served>>& logs,
                         double begin_s) {
  std::vector<double> latencies;
  double instances = 0.0, last_s = begin_s;
  for (const auto& log : logs) {
    for (const Served& s : log) {
      instances += s.instances;
      last_s = std::max(last_s, s.done_s);
      latencies.push_back(s.latency_s);
    }
  }
  out.metrics.add("throughput_ips", instances / std::max(1e-9, last_s - begin_s),
                  "instances/s");
  out.metrics.add("p50_ms", percentile(latencies, 0.5) * 1e3, "ms");
  out.metrics.add("p90_ms", percentile(latencies, 0.9) * 1e3, "ms");
  out.lines.push_back(fmt("%zu requests timed", latencies.size()));
}

void add_route_shares(Report& layers, const std::array<std::int64_t, 3>& routes) {
  const double total = static_cast<double>(routes[0] + routes[1] + routes[2]);
  layers.add("core.share.main_exit", total > 0 ? routes[kMainExit] / total : 0.0, "share");
  layers.add("core.share.extension_exit", total > 0 ? routes[kExtension] / total : 0.0, "share");
  layers.add("core.share.cloud", total > 0 ? routes[kCloud] / total : 0.0, "share");
}

/// Session counters accumulated between two snapshots.
struct SessionDelta {
  std::int64_t submitted = 0, completed = 0, failed = 0, cancelled = 0, rejected = 0;
  std::int64_t dispatches = 0;
};

SessionDelta session_delta(const runtime::SessionMetrics& before,
                           const runtime::SessionMetrics& after) {
  return SessionDelta{after.submitted_instances - before.submitted_instances,
                      after.completed_instances - before.completed_instances,
                      after.failed_instances - before.failed_instances,
                      after.cancelled_instances - before.cancelled_instances,
                      after.admission_rejections - before.admission_rejections,
                      after.offload_dispatches - before.offload_dispatches};
}

/// The session's own books must agree with the client's.
void check_session_books(Outcome& out, const Books& client, const SessionDelta& session) {
  if (session.submitted != client.sent - client.rejected ||
      session.completed != client.completed || session.failed != client.failed ||
      session.cancelled != client.cancelled || session.rejected != client.rejected) {
    out.errors.push_back(fmt(
        "%s: session books (submitted %lld completed %lld failed %lld cancelled %lld rejected "
        "%lld) disagree with the client's",
        client.phase.c_str(), static_cast<long long>(session.submitted),
        static_cast<long long>(session.completed), static_cast<long long>(session.failed),
        static_cast<long long>(session.cancelled), static_cast<long long>(session.rejected)));
  }
}

void finish_books(Outcome& out) {
  for (const Books& b : out.books) {
    out.lines.push_back(b.describe());
    if (!b.closed()) out.errors.push_back("books do not close: " + b.describe());
  }
}

// ===== camera_stream ===========================================================

constexpr double kCameraRate = 400.0;
constexpr double kCameraSloS = 0.033;
constexpr double kCameraThreshold = 0.6;
constexpr int kCameraSetups = 9;

struct CameraStack {
  EdgeModel edge;
  std::unique_ptr<sim::CloudNode> cloud;
  std::shared_ptr<TimingBackend> timing;  // traced runs only
  std::unique_ptr<runtime::InferenceSession> session;
};

Outcome run_camera(const Context& ctx, const WorkloadParams& params, Tracer* tracer) {
  Outcome out;
  out.session_workers = 1;
  out.client_threads = 1;
  out.headline = "p50_ms";
  const data::Dataset pool = held_out_pool(Family::kResNetCifar, ctx.prep_seed, 200);
  const std::vector<double> due = poisson_schedule(params.seed * 2 + 1, kCameraRate,
                                                   params.seconds);
  const int n = static_cast<int>(due.size());
  const data::Dataset frames = sample_inputs(pool, n, params.seed);
  const data::Dataset warm = sample_inputs(pool, 4, params.seed + 0x3a3aULL);
  const std::int64_t stride = frames.instance_shape().numel();
  // Traced runs attribute each offload to its frame by the frame's bytes.
  std::unordered_map<std::uint64_t, std::int64_t> frame_of;
  for (int i = 0; tracer != nullptr && i < n; ++i) {
    frame_of[instance_hash(frames.images.data() + i * stride, stride)] = i;
  }

  // Set-up: load, build the session, warm it up; the last one is kept.
  std::vector<double> setup_s, load_s;
  std::unique_ptr<CameraStack> stack;
  Books warm_books{"camera_stream/setup"};
  for (int rep = 0; rep < (params.brief ? 3 : kCameraSetups); ++rep) {
    stack.reset();
    const double t0 = now_s();
    auto s = std::make_unique<CameraStack>();
    s->edge = load_edge(ctx.prep_dir, Family::kResNetCifar);
    s->cloud = std::make_unique<sim::CloudNode>(load_cloud(ctx.prep_dir));
    load_s.push_back(now_s() - t0);
    runtime::EngineConfig cfg;
    cfg.net = s->edge.net.get();
    cfg.dict = &s->edge.dict;
    cfg.policy = entropy_policy(s->edge.dict, kCameraThreshold, true, tracer);
    std::shared_ptr<runtime::OffloadBackend> backend =
        std::make_shared<runtime::RawImageBackend>(s->cloud.get());
    if (tracer != nullptr) {
      s->timing = std::make_shared<TimingBackend>(
          backend, &tracer->spans, "cloud.classify", [&](const runtime::OffloadPayload& p) {
            const auto it = frame_of.find(instance_hash(p.images.data(), stride));
            return it == frame_of.end() ? std::int64_t{-1} : it->second;
          });
      backend = s->timing;
    }
    cfg.backend = backend;
    cfg.quantized_inference = true;
    cfg.batch_size = 1;
    cfg.worker_threads = 1;
    cfg.queue_capacity = 1 << 14;
    s->session = std::make_unique<runtime::InferenceSession>(cfg);
    for (int i = 0; i < warm.size(); ++i) {
      ++warm_books.sent;
      warm_books.completed += static_cast<std::int64_t>(s->session->submit(warm.instance(i)).wait().size());
    }
    setup_s.push_back(now_s() - t0);
    stack = std::move(s);
  }
  out.books.push_back(warm_books);
  runtime::InferenceSession& session = *stack->session;
  session.drain();
  const runtime::SessionMetrics before = session.metrics();

  // Per-frame outcome, written once by the completion callback.
  struct FrameRecord {
    double submit_s = 0.0, submit_call_s = 0.0, e2e_s = 0.0;
    runtime::InferenceResult result;
    bool failed = false;
    std::atomic<int> settles{0};
  };
  std::unique_ptr<FrameRecord[]> records(new FrameRecord[static_cast<std::size_t>(n)]);
  std::atomic<std::int64_t> settled{0};
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs.push_back(frames.instance(i));

  Books books{"camera_stream/measure"};
  std::vector<std::string> submit_errors;  // written by the generator only
  const double start = now_s() + 0.05;
  std::thread generator([&] {
    for (int i = 0; i < n; ++i) {
      FrameRecord& rec = records[static_cast<std::size_t>(i)];
      sleep_until_s(start + due[static_cast<std::size_t>(i)]);
      runtime::SubmitOptions opts;
      opts.on_complete = [&rec, &settled, tracer, i](const runtime::ResultHandle& h) {
        const double t0 = now_s();
        try {
          const std::vector<runtime::InferenceResult> results = h.wait();
          if (results.size() == 1) rec.result = results.front();
          rec.e2e_s = rec.result.e2e_latency_s;
        } catch (const std::exception&) {
          rec.failed = true;
        }
        rec.settles.fetch_add(1);
        settled.fetch_add(1);
        if (tracer != nullptr) tracer->spans.record("callback", t0, now_s(), i);
      };
      rec.submit_s = now_s();
      try {
        session.submit(std::move(inputs[static_cast<std::size_t>(i)]), std::move(opts));
      } catch (const runtime::AdmissionRejected&) {
        ++books.rejected;
        settled.fetch_add(1);
      } catch (const std::exception& e) {
        submit_errors.push_back(fmt("frame %d: submit threw: %s", i, e.what()));
        rec.failed = true;
        rec.settles.fetch_add(1);
        settled.fetch_add(1);
      }
      rec.submit_call_s = now_s() - rec.submit_s;
      ++books.sent;
    }
  });
  generator.join();
  out.errors.insert(out.errors.end(), submit_errors.begin(), submit_errors.end());
  const double deadline = now_s() + 60.0;
  while (settled.load() < n && now_s() < deadline) sleep_until_s(now_s() + 0.001);
  session.drain();
  const runtime::SessionMetrics after = session.metrics();

  // Outcomes, books and accuracy.
  std::vector<double> latency, submit_call, late;
  std::array<std::int64_t, 3> routes{0, 0, 0};
  std::int64_t correct = 0, slo_met = 0, offloaded = 0, cloud_fixed = 0, ext_fixed = 0;
  double last_settle = start;
  for (int i = 0; i < n; ++i) {
    const FrameRecord& rec = records[static_cast<std::size_t>(i)];
    const double due_abs = start + due[static_cast<std::size_t>(i)];
    late.push_back(rec.submit_s - due_abs);
    submit_call.push_back(rec.submit_call_s);
    const int settles = rec.settles.load();
    if (settles > 1) out.errors.push_back(fmt("frame %d settled %d times", i, settles));
    if (settles == 0) continue;
    if (rec.failed) {
      ++books.failed;
      continue;
    }
    ++books.completed;
    const runtime::InferenceResult& r = rec.result;
    const int label = frames.labels[static_cast<std::size_t>(i)];
    const double lat = (rec.submit_s - due_abs) + rec.e2e_s;
    latency.push_back(lat);
    last_settle = std::max(last_settle, rec.submit_s + rec.e2e_s);
    if (lat <= kCameraSloS) ++slo_met;
    ++routes[static_cast<std::size_t>(r.route)];
    if (r.prediction == label) ++correct;
    if (r.route == core::Route::kExtensionExit && r.prediction == label &&
        r.main_prediction != label) {
      ++ext_fixed;
    }
    if (r.offloaded) {
      ++offloaded;
      if (r.prediction == label && r.edge_prediction != label) ++cloud_fixed;
    }
  }
  out.books.push_back(books);
  check_session_books(out, books, session_delta(before, after));
  const double sent = std::max<double>(1.0, static_cast<double>(books.sent));
  out.metrics.add("setup_s", median(setup_s), "s");
  out.metrics.add("throughput_ips", books.completed / std::max(1e-9, last_settle - start),
                  "instances/s");
  out.metrics.add("p50_ms", percentile(latency, 0.5) * 1e3, "ms");
  out.metrics.add("p90_ms", percentile(latency, 0.9) * 1e3, "ms");
  out.metrics.add("accuracy", correct / sent, "share");
  out.metrics.add("edge_share", (routes[kMainExit] + routes[kExtension]) / sent, "share");
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.lines.push_back(fmt("camera_stream: slo_met_share %.4f share (settled <= 33 ms after due)",
                          slo_met / sent));
  out.lines.push_back(fmt("camera_stream: offered %.0f frames/s, %zu frames timed, p99 %.3f ms, "
                          "generator late p99 %.3f ms",
                          kCameraRate, latency.size(), percentile(latency, 0.99) * 1e3,
                          percentile(late, 0.99) * 1e3));

  if (tracer != nullptr) {
    Report& layers = tracer->layers;
    const ForwardTimes fwd =
        replay_forwards(*stack->edge.net, frames.images.slice_batch(0, 1), true, 201);
    const EdgeMacs macs = edge_macs(*stack->edge.net, frames.instance_shape());
    // Request spans with their measured offload child and a replayed
    // compute child, so self time = latency not explained by compute or
    // the cloud: queueing, hand-offs, settle.
    const std::vector<Span> live = tracer->spans.spans();
    std::unordered_map<std::int64_t, const Span*> offload_of;
    for (const Span& s : live) {
      if (s.name == "cloud.classify" && s.request >= 0) offload_of[s.request] = &s;
    }
    SpanRecorder tree;
    std::vector<std::int64_t> request_spans;
    for (int i = 0; i < n; ++i) {
      const FrameRecord& rec = records[static_cast<std::size_t>(i)];
      if (rec.settles.load() != 1 || rec.failed) continue;
      const double end = rec.submit_s + rec.e2e_s;
      const std::int64_t id = tree.record("request", rec.submit_s, end, i);
      request_spans.push_back(id);
      double anchor = end;
      const auto it = offload_of.find(i);
      if (it != offload_of.end()) {
        tree.record("cloud.classify", it->second->start_s, it->second->end_s, i, id);
        anchor = it->second->start_s;
      }
      const double compute =
          fwd.main_s + (rec.result.route == core::Route::kExtensionExit ? fwd.extension_s : 0.0);
      tree.record("compute.replay", anchor - compute, anchor, i, id);
    }
    const std::vector<Span> spans = tree.spans();
    const std::vector<double> self = self_times(spans);
    std::vector<double> request_self;
    for (const std::int64_t id : request_spans) request_self.push_back(self[static_cast<std::size_t>(id)]);
    const std::vector<double> classify = span_durations(live, "cloud.classify");
    const runtime::PriorityWaitStats wait =
        after.queue_wait_by_priority.empty() ? runtime::PriorityWaitStats{}
                                             : after.queue_wait_by_priority.front();
    double macs_total = 0.0;
    for (int i = 0; i < n; ++i) {
      const FrameRecord& rec = records[static_cast<std::size_t>(i)];
      if (rec.settles.load() != 1 || rec.failed) continue;
      macs_total += static_cast<double>(macs.main);
      if (rec.result.route == core::Route::kExtensionExit) macs_total += macs.extension;
    }
    layers.add("nn.load_model.ms", median(load_s) * 1e3, "ms");
    layers.add("core.forward_main.ms", fwd.main_s * 1e3, "ms");
    layers.add("core.forward_extension.ms", fwd.extension_s * 1e3, "ms");
    // The bare entropy policy: the session's own is the timing wrapper.
    const core::EntropyThresholdPolicy policy(stack->edge.dict,
                                              core::PolicyConfig{kCameraThreshold, true});
    layers.add("core.route.us",
               replay_route_s(*stack->edge.net, policy, frames.images.slice_batch(0, 1), true,
                              401) * 1e6,
               "us");
    add_route_shares(layers, routes);
    layers.add("core.extension_fix_share",
               routes[kExtension] > 0 ? static_cast<double>(ext_fixed) / routes[kExtension] : 0.0,
               "share");
    layers.add("core.cloud_fix_share",
               offloaded > 0 ? static_cast<double>(cloud_fixed) / offloaded : 0.0, "share");
    layers.add("core.edge_macs_per_instance",
               books.completed > 0 ? macs_total / books.completed : 0.0, "count");
    layers.add("runtime.submit.us", median(submit_call) * 1e6, "us");
    layers.add("runtime.queue_wait.p50_ms", wait.p50_s * 1e3, "ms");
    layers.add("runtime.queue_wait.p99_ms", wait.p99_s * 1e3, "ms");
    layers.add("runtime.queue_depth_high_water",
               static_cast<double>(after.queue_depth_high_water), "count");
    layers.add("runtime.self.p50_ms", percentile(request_self, 0.5) * 1e3, "ms");
    layers.add("runtime.offload_wait.p99_ms", percentile(classify, 0.99) * 1e3, "ms");
    layers.add("sim.cloud_classify.ms", percentile(classify, 0.5) * 1e3, "ms");
    layers.add("harness.send_late.p99_ms", percentile(late, 0.99) * 1e3, "ms");
  }
  stack.reset();
  return out;
}

// ===== bulk_mobilenet ==========================================================

constexpr int kBulkBatch = 32;
constexpr int kBulkPoolRequests = 48;
constexpr int kBulkSetups = 15;

struct BulkStack {
  EdgeModel edge;
  std::unique_ptr<runtime::InferenceSession> session;
};

Outcome run_bulk(const Context& ctx, const WorkloadParams& params, Tracer* tracer) {
  Outcome out;
  out.session_workers = 2;
  out.client_threads = 2;
  out.headline = "throughput_ips";
  const data::Dataset pool = held_out_pool(Family::kMobileNetImage, ctx.prep_seed, 100);
  const data::Dataset inputs = sample_inputs(pool, kBulkBatch * kBulkPoolRequests, params.seed);
  const std::vector<Tensor> requests = split_rows(inputs.images, kBulkBatch);

  // Expected answers: Alg. 2's edge half replayed on MEANet directly.
  std::vector<EdgeReplay> expected;
  {
    EdgeModel reference = load_edge(ctx.prep_dir, Family::kMobileNetImage);
    for (const Tensor& request : requests) {
      expected.push_back(replay_edge(*reference.net, reference.dict, request,
                                     std::numeric_limits<double>::infinity(), false));
    }
  }

  std::vector<double> setup_s;
  std::unique_ptr<BulkStack> stack;
  Books warm_books{"bulk_mobilenet/setup"};
  for (int rep = 0; rep < (params.brief ? 3 : kBulkSetups); ++rep) {
    stack.reset();
    const double t0 = now_s();
    auto s = std::make_unique<BulkStack>();
    s->edge = load_edge(ctx.prep_dir, Family::kMobileNetImage);
    runtime::EngineConfig cfg;
    cfg.net = s->edge.net.get();
    cfg.dict = &s->edge.dict;
    cfg.policy = entropy_policy(s->edge.dict, std::numeric_limits<double>::infinity(), false,
                                tracer);
    cfg.batch_size = kBulkBatch;
    cfg.worker_threads = 2;
    s->session = std::make_unique<runtime::InferenceSession>(cfg);
    warm_books.sent += kBulkBatch;
    warm_books.completed += static_cast<std::int64_t>(s->session->submit(requests.front()).wait().size());
    setup_s.push_back(now_s() - t0);
    stack = std::move(s);
  }
  out.books.push_back(warm_books);
  runtime::InferenceSession& session = *stack->session;
  session.drain();
  const runtime::SessionMetrics before = session.metrics();
  const ops::GemmPool::Stats pool_before = ops::GemmPool::instance().stats();

  Books books{"bulk_mobilenet/measure"};
  std::vector<std::string> client_errors;
  std::mutex books_mutex;
  std::atomic<std::int64_t> mismatches{0}, correct{0};
  std::array<std::atomic<std::int64_t>, 3> routes{};
  std::vector<std::vector<Served>> logs(2);
  const double begin = now_s();
  const double end = begin + params.seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      closed_loop(
          static_cast<std::size_t>(c * kBulkPoolRequests / 2), end, requests.size(),
          [&](std::size_t r) {
            runtime::SubmitOptions opts;
            if (tracer != nullptr) {
              opts.on_complete = [tracer](const runtime::ResultHandle&) {
                const double t = now_s();
                tracer->spans.record("callback", t, t);
              };
            }
            return session.submit(requests[r], std::move(opts));
          },
          [&](std::size_t r, const std::vector<runtime::InferenceResult>& results) {
            const EdgeReplay& want = expected[r];
            for (std::size_t i = 0; i < results.size(); ++i) {
              const int label = inputs.labels[r * kBulkBatch + i];
              if (results[i].prediction != want.prediction[i] ||
                  static_cast<int>(results[i].route) != want.route[i]) {
                mismatches.fetch_add(1);
              }
              if (results[i].prediction == label) correct.fetch_add(1);
              routes[static_cast<std::size_t>(results[i].route)].fetch_add(1);
            }
          },
          logs[static_cast<std::size_t>(c)], books, client_errors, books_mutex);
    });
  }
  for (std::thread& t : clients) t.join();
  out.errors.insert(out.errors.end(), client_errors.begin(), client_errors.end());
  session.drain();
  const runtime::SessionMetrics after = session.metrics();
  const ops::GemmPool::Stats pool_after = ops::GemmPool::instance().stats();
  out.books.push_back(books);
  check_session_books(out, books, session_delta(before, after));
  if (mismatches.load() > 0) {
    out.errors.push_back(fmt("bulk_mobilenet: %lld predictions differ from the direct MEANet replay",
                             static_cast<long long>(mismatches.load())));
  }

  const double sent = std::max<double>(1.0, static_cast<double>(books.sent));
  out.metrics.add("setup_s", median(setup_s), "s");
  closed_loop_metrics(out, logs, begin);
  out.metrics.add("accuracy", correct.load() / sent, "share");
  out.metrics.add("edge_share", (routes[kMainExit].load() + routes[kExtension].load()) / sent,
                  "share");
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");

  if (tracer != nullptr) {
    const double jobs = static_cast<double>(pool_after.jobs - pool_before.jobs);
    tracer->layers.add("tensor.pool.fanout_share",
                       jobs > 0 ? (pool_after.fanout_jobs - pool_before.fanout_jobs) / jobs : 0.0,
                       "share");
  }
  stack.reset();
  return out;
}

// ===== wire_offload ============================================================

constexpr int kWireBatch = 128;
constexpr int kWirePoolRequests = 16;
constexpr int kWireSetups = 5;

struct WireStack {
  std::unique_ptr<wire::ChildProcess> daemon;
  std::string socket_path;
  EdgeModel edge;
  std::shared_ptr<wire::WireBackend> backends[2];
  std::shared_ptr<TimingBackend> timing[2];
  std::unique_ptr<runtime::InferenceSession> sessions[2];
  double connect_s = 0.0;

  ~WireStack() {
    for (auto& s : sessions) s.reset();
    for (auto& t : timing) t.reset();
    for (auto& b : backends) b.reset();
    if (daemon) daemon->terminate();
    std::error_code ec;
    std::filesystem::remove(socket_path, ec);
  }
};

std::unique_ptr<WireStack> build_wire(const Context& ctx, double threshold,
                                      const Tensor& warm_request, Tracer* tracer,
                                      Books& warm_books) {
  static std::atomic<int> counter{0};
  auto s = std::make_unique<WireStack>();
  s->socket_path = ctx.run_dir + "/w" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter.fetch_add(1)) + ".sock";
  const double t0 = now_s();
  const int classes = family_spec(Family::kResNetCifar).num_classes;
  s->daemon = with_quiet_stdout([&] {
    return std::make_unique<wire::ChildProcess>(std::vector<std::string>{
        ctx.cloudd, "--socket", s->socket_path, "--model", cloud_weights_path(ctx.prep_dir),
        "--image-channels", "3", "--classes", std::to_string(classes), "--max-batch",
        std::to_string(kWireBatch)});
  });
  // Poll for the listening socket at a fine grain (the backend's own
  // connect retry sleeps 20 ms, which would quantise the set-up time).
  while (!std::filesystem::exists(s->socket_path)) {
    if (!s->daemon->running()) throw std::runtime_error("meanet_cloudd exited during start-up");
    if (now_s() - t0 > 30.0) throw std::runtime_error("meanet_cloudd did not start");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (int k = 0; k < 2; ++k) {
    wire::WireBackendConfig wc;
    wc.socket_path = s->socket_path;
    s->backends[k] = std::make_shared<wire::WireBackend>(wc);
  }
  s->backends[0]->ping();
  s->connect_s = now_s() - t0;
  s->edge = load_edge(ctx.prep_dir, Family::kResNetCifar);
  for (int k = 0; k < 2; ++k) {
    runtime::EngineConfig cfg;
    cfg.net = s->edge.net.get();
    cfg.dict = &s->edge.dict;
    cfg.policy = entropy_policy(s->edge.dict, threshold, true, tracer);
    std::shared_ptr<runtime::OffloadBackend> backend = s->backends[k];
    if (tracer != nullptr) {
      s->timing[k] = std::make_shared<TimingBackend>(
          backend, &tracer->spans, "wire.exchange",
          [](const runtime::OffloadPayload&) { return std::int64_t{-1}; });
      backend = s->timing[k];
    }
    cfg.backend = backend;
    cfg.batch_size = kWireBatch;
    cfg.worker_threads = 1;
    s->sessions[k] = std::make_unique<runtime::InferenceSession>(cfg);
  }
  for (auto& session : s->sessions) {
    warm_books.sent += kWireBatch;
    warm_books.completed += static_cast<std::int64_t>(session->submit(warm_request).wait().size());
  }
  return s;
}

Outcome run_wire(const Context& ctx, const WorkloadParams& params, Tracer* tracer) {
  Outcome out;
  out.session_workers = 2;  // one per session
  out.client_threads = 2;
  out.headline = "throughput_ips";
  const double threshold = wire_threshold(ctx.prep_dir);
  const data::Dataset pool = held_out_pool(Family::kResNetCifar, ctx.prep_seed, 200);
  const data::Dataset inputs = sample_inputs(pool, kWireBatch * kWirePoolRequests, params.seed);
  const std::vector<Tensor> requests = split_rows(inputs.images, kWireBatch);

  // Expected answers: the same session shape over an in-process
  // RawImageBackend on the same cloud weights (byte-identical contract).
  std::vector<std::vector<runtime::InferenceResult>> expected;
  {
    EdgeModel reference = load_edge(ctx.prep_dir, Family::kResNetCifar);
    sim::CloudNode cloud(load_cloud(ctx.prep_dir));
    runtime::EngineConfig cfg;
    cfg.net = reference.net.get();
    cfg.dict = &reference.dict;
    cfg.policy_config = core::PolicyConfig{threshold, true};
    cfg.backend = std::make_shared<runtime::RawImageBackend>(&cloud);
    cfg.batch_size = kWireBatch;
    runtime::InferenceSession session(cfg);
    for (const Tensor& request : requests) expected.push_back(session.submit(request).wait());
  }

  std::vector<double> setup_s, connect_s;
  std::unique_ptr<WireStack> stack;
  Books warm_books{"wire_offload/setup"};
  for (int rep = 0; rep < (params.brief ? 3 : kWireSetups); ++rep) {
    stack.reset();
    const double t0 = now_s();
    std::unique_ptr<WireStack> s = build_wire(ctx, threshold, requests.front(), tracer, warm_books);
    setup_s.push_back(now_s() - t0);
    connect_s.push_back(s->connect_s);
    stack = std::move(s);
  }
  out.books.push_back(warm_books);
  runtime::SessionMetrics before[2];
  for (int k = 0; k < 2; ++k) {
    stack->sessions[k]->drain();
    before[k] = stack->sessions[k]->metrics();
  }
  const ServerCounters server_before = server_counters(stack->backends[0]->fetch_diagnostics());

  Books books{"wire_offload/measure"};
  std::vector<std::string> client_errors;
  std::mutex books_mutex;
  std::atomic<std::int64_t> mismatches{0}, correct{0}, offloaded{0};
  std::array<std::atomic<std::int64_t>, 3> routes{};
  std::vector<std::vector<Served>> logs(2);
  const double begin = now_s();
  const double end = begin + params.seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      runtime::InferenceSession& session = *stack->sessions[c];
      closed_loop(
          static_cast<std::size_t>(c * kWirePoolRequests / 2), end, requests.size(),
          [&](std::size_t r) { return session.submit(requests[r]); },
          [&](std::size_t r, const std::vector<runtime::InferenceResult>& results) {
            const std::vector<runtime::InferenceResult>& want = expected[r];
            for (std::size_t i = 0; i < results.size(); ++i) {
              const int label = inputs.labels[r * kWireBatch + i];
              if (results[i].prediction != want[i].prediction ||
                  results[i].route != want[i].route || results[i].offloaded != want[i].offloaded) {
                mismatches.fetch_add(1);
              }
              if (results[i].prediction == label) correct.fetch_add(1);
              if (results[i].offloaded) offloaded.fetch_add(1);
              routes[static_cast<std::size_t>(results[i].route)].fetch_add(1);
            }
          },
          logs[static_cast<std::size_t>(c)], books, client_errors, books_mutex);
    });
  }
  for (std::thread& t : clients) t.join();
  out.errors.insert(out.errors.end(), client_errors.begin(), client_errors.end());
  SessionDelta delta;
  for (int k = 0; k < 2; ++k) {
    stack->sessions[k]->drain();
    const SessionDelta d = session_delta(before[k], stack->sessions[k]->metrics());
    delta.submitted += d.submitted;
    delta.completed += d.completed;
    delta.failed += d.failed;
    delta.cancelled += d.cancelled;
    delta.rejected += d.rejected;
    delta.dispatches += d.dispatches;
  }
  out.books.push_back(books);
  check_session_books(out, books, delta);
  if (mismatches.load() > 0) {
    out.errors.push_back(fmt("wire_offload: %lld results differ from the in-process "
                             "RawImageBackend", static_cast<long long>(mismatches.load())));
  }

  const double sent = std::max<double>(1.0, static_cast<double>(books.sent));
  out.metrics.add("setup_s", median(setup_s), "s");
  closed_loop_metrics(out, logs, begin);
  out.metrics.add("accuracy", correct.load() / sent, "share");
  out.metrics.add("edge_share", (routes[kMainExit].load() + routes[kExtension].load()) / sent,
                  "share");
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.lines.push_back(fmt("wire_offload: entropy threshold %.4f, cloud share %.4f",
                          threshold, routes[kCloud].load() / sent));

  if (tracer != nullptr) {
    Report& layers = tracer->layers;
    const ServerCounters server_after =
        server_counters(stack->backends[0]->fetch_diagnostics());
    const double batches = server_after.batches - server_before.batches;
    const std::vector<double> exchange = span_durations(tracer->spans.spans(), "wire.exchange");
    // Codec replay on payloads this run actually offloaded.
    std::vector<double> encode_s, decode_s;
    double bytes = 0.0, instances = 0.0;
    for (const auto& timing : stack->timing) {
      for (const runtime::OffloadPayload& payload : timing->samples()) {
        const int rows = payload.images.shape().batch();
        const std::vector<int> answer(static_cast<std::size_t>(rows), 1);
        std::vector<std::uint8_t> request_bytes, response_bytes;
        encode_s.push_back(median_time_s(15, [&] {
          request_bytes = wire::encode_offload_request(payload);
          response_bytes = wire::encode_offload_response(answer);
        }));
        decode_s.push_back(median_time_s(15, [&] {
          wire::decode_offload_request(request_bytes);
          wire::decode_offload_response(response_bytes);
        }));
        wire::Frame frame;
        frame.command = wire::Command::kOffloadRequest;
        frame.payload = request_bytes;
        bytes += static_cast<double>(wire::encode_frame(frame).size());
        instances += rows;
      }
    }
    layers.add("wire.encode.us", median(encode_s) * 1e6, "us");
    layers.add("wire.decode.us", median(decode_s) * 1e6, "us");
    layers.add("wire.bytes_per_instance", instances > 0 ? bytes / instances : 0.0, "count");
    layers.add("wire.exchange.p50_ms", percentile(exchange, 0.5) * 1e3, "ms");
    layers.add("wire.exchange.p90_ms", percentile(exchange, 0.9) * 1e3, "ms");
    layers.add("wire.server.batch_mean",
               batches > 0 ? (server_after.instances - server_before.instances) / batches : 0.0,
               "instances");
    layers.add("wire.server.cross_session_share",
               batches > 0 ? (server_after.cross_session - server_before.cross_session) / batches
                           : 0.0,
               "share");
    layers.add("wire.connect_ms", median(connect_s) * 1e3, "ms");
    layers.add("runtime.instances_per_dispatch",
               delta.dispatches > 0 ? static_cast<double>(offloaded.load()) / delta.dispatches
                                    : 0.0,
               "instances");
  }
  stack.reset();
  return out;
}

// ===== edge_training ===========================================================

constexpr int kTrainMainEpochs = 4;
constexpr int kTrainEdgeEpochs = 4;
constexpr double kTrainGateThreshold = 0.6;
constexpr int kTrainSetups = 7;
constexpr int kTrainTestPerClass = 100;

Outcome run_training(const Context&, const WorkloadParams& params, Tracer* tracer) {
  Outcome out;
  out.session_workers = 0;
  out.client_threads = 1;
  out.headline = "throughput_ips";
  const Family family = Family::kResNetCifar;
  const std::uint64_t model_seed = params.seed * 31 + 7;

  // Set-up: data generation, split and model construction.
  std::vector<double> setup_s;
  data::SyntheticDataset generated;
  data::SplitResult parts;
  for (int rep = 0; rep < (params.brief ? 3 : kTrainSetups); ++rep) {
    const double t0 = now_s();
    data::SyntheticSpec spec = family_spec(family);
    spec.test_per_class = kTrainTestPerClass;
    data::SyntheticDataset g = data::make_synthetic(spec, params.seed);
    util::Rng split_rng(params.seed ^ 0x5b11ULL);
    data::SplitResult p = data::split(g.train, 0.9, split_rng);
    core::MEANet net = build_edge(family, model_seed);
    setup_s.push_back(now_s() - t0);
    generated = std::move(g);
    parts = std::move(p);
  }
  const data::Dataset& train = parts.first;
  const data::Dataset& validation = parts.second;
  const data::Dataset& test = generated.test;

  struct Round {
    double main_s = 0, select_s = 0, edge_s = 0;
    std::int64_t instances = 0;
    std::vector<int> predictions;
    double accuracy = 0, edge_share = 0;
  };
  std::vector<Round> rounds;
  const double end = now_s() + params.seconds;
  while (rounds.size() < 2 || now_s() < end) {
    core::MEANet net = build_edge(family, model_seed);
    core::DistributedTrainer trainer(net);
    util::Rng rng(params.seed ^ 0x7a11ULL);
    core::TrainOptions main_opts;
    main_opts.epochs = kTrainMainEpochs;
    main_opts.sgd.learning_rate = 0.1f;
    core::TrainOptions edge_opts;
    edge_opts.epochs = kTrainEdgeEpochs;
    edge_opts.sgd.learning_rate = 0.05f;
    Round round;
    const double t0 = now_s();
    trainer.train_main(train, main_opts, rng);
    const double t1 = now_s();
    const data::ClassDict dict =
        trainer.select_hard_classes_from_validation(validation, train.num_classes / 2);
    const double t2 = now_s();
    trainer.train_edge_blocks(train, dict, edge_opts, rng);
    const double t3 = now_s();
    round.main_s = t1 - t0;
    round.select_s = t2 - t1;
    round.edge_s = t3 - t2;
    const std::int64_t hard = std::count_if(train.labels.begin(), train.labels.end(),
                                            [&](int label) { return dict.is_hard(label); });
    round.instances = kTrainMainEpochs * static_cast<std::int64_t>(train.size()) +
                      kTrainEdgeEpochs * hard;

    // Edge-only test accuracy after Alg. 1, and the share the camera's
    // entropy gate would keep on the edge.
    std::int64_t correct = 0, kept = 0;
    for (int first = 0; first < test.size(); first += 32) {
      const int count = std::min(32, test.size() - first);
      const Tensor images = test.images.slice_batch(first, count);
      const EdgeReplay edge_only =
          replay_edge(net, dict, images, std::numeric_limits<double>::infinity(), false);
      const EdgeReplay gated = replay_edge(net, dict, images, kTrainGateThreshold, true);
      for (int i = 0; i < count; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        round.predictions.push_back(edge_only.prediction[k]);
        if (edge_only.prediction[k] == test.labels[static_cast<std::size_t>(first + i)]) ++correct;
        if (gated.route[k] != kCloud) ++kept;
      }
    }
    round.accuracy = static_cast<double>(correct) / test.size();
    round.edge_share = static_cast<double>(kept) / test.size();
    rounds.push_back(std::move(round));
  }

  Books books{"edge_training/measure"};
  std::vector<double> round_ms, main_s, select_s, edge_s;
  double total_s = 0.0;
  std::int64_t instances = 0;
  for (const Round& r : rounds) {
    books.sent += r.instances;
    books.completed += r.instances;
    const double seconds = r.main_s + r.select_s + r.edge_s;
    round_ms.push_back(seconds * 1e3);
    main_s.push_back(r.main_s);
    select_s.push_back(r.select_s);
    edge_s.push_back(r.edge_s);
    total_s += seconds;
    instances += r.instances;
    if (r.predictions != rounds.front().predictions || r.accuracy != rounds.front().accuracy) {
      out.errors.push_back(fmt("edge_training: round accuracy %.6f differs from the first "
                               "round's %.6f under the same seed",
                               r.accuracy, rounds.front().accuracy));
    }
  }
  out.books.push_back(books);
  out.metrics.add("setup_s", median(setup_s), "s");
  out.metrics.add("throughput_ips", instances / std::max(1e-9, total_s), "instances/s");
  out.metrics.add("p50_ms", percentile(round_ms, 0.5), "ms");
  out.metrics.add("p90_ms", percentile(round_ms, 0.9), "ms");
  out.metrics.add("accuracy", rounds.front().accuracy, "share");
  out.metrics.add("edge_share", rounds.front().edge_share, "share");
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.lines.push_back(fmt("edge_training: train_ips %.1f instances/s over %zu Alg. 1 rounds "
                          "(%d+%d epochs each)",
                          instances / std::max(1e-9, total_s), rounds.size(), kTrainMainEpochs,
                          kTrainEdgeEpochs));

  if (tracer != nullptr) {
    Report& layers = tracer->layers;
    layers.add("train.main.s", median(main_s), "s");
    layers.add("train.select_hard.s", median(select_s), "s");
    layers.add("train.edge_blocks.s", median(edge_s), "s");
    report_train_replays(layers, train, model_seed);
  }
  return out;
}

}  // namespace

std::string Books::describe() const {
  return fmt("books %s: sent %lld = completed %lld + failed %lld + cancelled %lld + rejected %lld",
             phase.c_str(), static_cast<long long>(sent), static_cast<long long>(completed),
             static_cast<long long>(failed), static_cast<long long>(cancelled),
             static_cast<long long>(rejected));
}

std::int64_t Outcome::attempted() const {
  std::int64_t n = 0;
  for (const Books& b : books) n += b.sent;
  return n;
}

std::int64_t Outcome::failed() const {
  std::int64_t n = 0;
  for (const Books& b : books) n += b.failed + b.cancelled + b.rejected;
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"camera_stream", "bulk_mobilenet",
                                                 "wire_offload", "edge_training"};
  return names;
}

Outcome run_workload(const std::string& name, const Context& ctx, const WorkloadParams& params,
                     Tracer* tracer) {
  Outcome out;
  if (name == "camera_stream") {
    out = run_camera(ctx, params, tracer);
  } else if (name == "bulk_mobilenet") {
    out = run_bulk(ctx, params, tracer);
  } else if (name == "wire_offload") {
    out = run_wire(ctx, params, tracer);
  } else if (name == "edge_training") {
    out = run_training(ctx, params, tracer);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  finish_books(out);
  return out;
}

}  // namespace e2e
