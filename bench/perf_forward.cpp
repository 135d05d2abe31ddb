// Tracked performance baseline of the inference hot path.
//
// Times the serving kernels on:
//   - single-image eval forwards of the edge models,
//   - batched eval forwards (one implicit GEMM per conv over the whole
//     batch),
//   - the cloud classifier's eval forward at the batch sizes the wire
//     daemon serves, and ResNet-B's edge passes at the batch sizes
//     e2ebench's wire_offload runs them, each with its achieved
//     GFLOP/s,
//   - the routing-signal reductions (softmax / argmax / entropy /
//     margin),
//   - end-to-end submit -> settle through a 2-worker InferenceSession
//     sharing one net,
// and emits BENCH_forward.json so every future perf PR is judged
// against a measured trajectory, not vibes.
//
// The model-forward rows additionally time the portable 4x16
// microkernel (SIMD dispatch forced off), the int8 quantized path
// (ops::QuantizedScope) and, when the AVX-512 tier is active, the AVX2
// kernel it displaced, so the JSON tracks every serving tier. Each rep
// times every variant of a row back to back (interleaved_median_ms), so
// host drift lands on all of them alike.
//
// The batch sweep times each model at batch 1 / 8 / 32, float and
// int8 (a float conv is one implicit GEMM over the batch,
// ops::conv_gemm_nchw; int8 runs per image), reporting imgs/s. The
// training rows time one Alg. 1 main-block step per model at batch 32:
// a train-mode forward_main, then backward_main of its cross-entropy
// gradient. The cloud rows time build_cloud_classifier's eval forward
// at batch 16 (one of meanet_cloudd's row shards on a 4-core host) and
// batch 62 (the mean server batch of e2ebench's wire_offload); the edge
// rows time ResNet-B's eval forward_main at batch 128 (one
// wire_offload request) and forward_extension at batch 64 (about the
// hard half of one). Both report GFLOP/s = 2 x MACs (nn::collect_stats,
// MEANet::edge_macs) x batch / time. The JSON header records the host
// shape (nproc, SIMD and int8 tiers).
//
// Usage: perf_forward [--quick] [--out PATH]
// Exit status is nonzero when, on any single-image forward, the
// dispatched SIMD kernel is slower than the portable one, the AVX-512
// kernel (when active) is slower than the AVX2 one, or (with a
// vectorized int8 tier) the int8 path is slower than float — the CI
// perf smoke gates. "Slower" means the fast side's median exceeds its
// fallback's by more than the larger of the two sides' interquartile
// ranges, both timed interleaved in one loop: a smaller gap is within
// what the host's noise moves a median. The batch-sweep, training,
// cloud and edge rows are recorded, not gated.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/builders.h"
#include "diag/value.h"
#include "nn/loss.h"
#include "nn/model_stats.h"
#include "runtime/session.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "tensor/simd.h"

using namespace meanet;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median wall-clock milliseconds of `fn` over `reps` runs (one warmup).
template <typename Fn>
double median_ms(int reps, Fn fn) {
  fn();  // warm caches, scratch buffers, branch predictors
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double start = now_s();
    fn();
    samples.push_back((now_s() - start) * 1e3);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median and interquartile range of one alternative's samples.
struct Timing {
  double median_ms = 0.0;
  double iqr_ms = 0.0;
};

/// Interleaved timings of several alternatives: each rep times every
/// alternative once, back to back, so a thermal throttle or
/// noisy-neighbor window lands on all of them instead of skewing
/// whichever happened to own that slice of wall clock. Odd reps run the
/// alternatives in reverse, so none always follows the same neighbour.
/// The exit gates judge gaps between alternatives against their
/// spread, which interleaving stabilizes far better than extra
/// serialized reps would.
std::vector<Timing> interleaved_timings(int reps, const std::vector<std::function<void()>>& fns) {
  for (const auto& fn : fns) fn();  // warm caches, scratch buffers, branch predictors
  std::vector<std::vector<double>> samples(fns.size());
  for (int i = 0; i < reps; ++i) {
    for (std::size_t j = 0; j < fns.size(); ++j) {
      const std::size_t f = i % 2 == 0 ? j : fns.size() - 1 - j;
      const double start = now_s();
      fns[f]();
      samples[f].push_back((now_s() - start) * 1e3);
    }
  }
  std::vector<Timing> timings;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    timings.push_back({s[n / 2], s[(3 * n) / 4] - s[n / 4]});
  }
  return timings;
}

/// True when `fast` is slower than `fallback` by more than the larger
/// of their interquartile ranges.
bool slower_beyond_noise(const Timing& fast, const Timing& fallback) {
  return fast.median_ms - fallback.median_ms > std::max(fast.iqr_ms, fallback.iqr_ms);
}

struct Row {
  std::string name;
  Timing gemm;
  Timing portable;  // SIMD dispatch forced to the portable kernel
  Timing int8;      // quantized serving path; 0 = not measured
  Timing avx2;      // AVX2 kernel while AVX-512 is active; 0 = not measured
  double int8_speedup() const {
    return int8.median_ms > 0.0 ? gemm.median_ms / int8.median_ms : 0.0;
  }
};

/// Times `fn` on the dispatched kernels.
template <typename Fn>
Row measure(const std::string& name, int reps, Fn fn) {
  Row row;
  row.name = name;
  row.gemm.median_ms = median_ms(reps, fn);
  std::printf("  %-38s gemm %9.3f ms\n", name.c_str(), row.gemm.median_ms);
  return row;
}

/// Like measure(), plus the portable-microkernel, int8 and (under AVX-512)
/// AVX2 tiers — for the model-forward rows where those paths actually
/// engage. The dispatched tier and its rivals are timed interleaved.
template <typename Fn>
Row measure_tiers(const std::string& name, int reps, Fn fn) {
  Row row;
  row.name = name;
  const ops::SimdLevel level = ops::simd_level();
  const auto at_level = [&](ops::SimdLevel tier) {
    return [&fn, level, tier] {
      ops::set_simd_level(tier);
      fn();
      ops::set_simd_level(level);
    };
  };
  std::vector<std::function<void()>> variants = {
      fn,
      at_level(ops::SimdLevel::kPortable),
      [&] {
        ops::QuantizedScope quantized(true);
        fn();
      },
  };
  const bool avx2_baseline = level == ops::SimdLevel::kAvx512;
  if (avx2_baseline) variants.push_back(at_level(ops::SimdLevel::kAvx2));
  const std::vector<Timing> timings = interleaved_timings(reps, variants);
  row.gemm = timings[0];
  row.portable = timings[1];
  row.int8 = timings[2];
  if (avx2_baseline) row.avx2 = timings[3];
  std::printf("  %-38s gemm %9.3f ms\n", name.c_str(), row.gemm.median_ms);
  std::printf("  %-38s portable %5.3f ms  avx2 %5.3f ms  int8 %5.3f ms (%s)  int8 %5.2fx\n", "",
              row.portable.median_ms, row.avx2.median_ms, row.int8.median_ms,
              ops::int8_kernel_name(ops::int8_kernel()), row.int8_speedup());
  return row;
}

struct ModelUnderTest {
  std::string name;
  bench::EdgeModel model;
  bench::DatasetKind kind;
};

/// One point of the batch sweep: a fixed batch size, float and int8.
struct BatchRow {
  std::string model;
  int batch = 0;
  double float_ms = 0.0;
  double int8_ms = 0.0;
  double imgs_per_s(double ms) const { return ms > 0.0 ? batch * 1e3 / ms : 0.0; }
};

/// One Alg. 1 main-block training step at a fixed batch: the medians
/// of its train-mode forward and of its backward.
struct TrainRow {
  std::string model;
  int batch = 0;
  double forward_ms = 0.0;
  double backward_ms = 0.0;
};

/// One eval forward pass at a fixed batch: its median and interquartile
/// range, and the GFLOP/s its MACs give at that median.
struct PassRow {
  std::string model;
  std::string pass;
  int batch = 0;
  Timing forward;
  double gflops = 0.0;
};

/// Times `forward` (interleaved_timings' rep loop) and prints the row.
template <typename Fn>
PassRow measure_pass(const std::string& model, const std::string& pass, int batch,
                     std::int64_t macs_per_instance, int reps, Fn forward) {
  PassRow row{model, pass, batch, interleaved_timings(reps, {forward})[0], 0.0};
  row.gflops =
      2.0 * static_cast<double>(macs_per_instance) * batch / (row.forward.median_ms * 1e6);
  std::printf("  %-28s %-17s batch %3d   %8.3f ms (IQR %.3f)   %6.1f GFLOP/s\n",
              model.c_str(), pass.c_str(), batch, row.forward.median_ms, row.forward.iqr_ms,
              row.gflops);
  return row;
}

TrainRow measure_training(const std::string& model, core::MEANet& net, const Tensor& images,
                          int num_classes, int reps) {
  std::vector<int> labels(static_cast<std::size_t>(images.shape().batch()));
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i) % num_classes;
  std::vector<double> forward, backward;
  for (int i = 0; i <= reps; ++i) {  // step 0 warms the caches and scratch
    const double start = now_s();
    const core::MainForward out = net.forward_main(images, nn::Mode::kTrain);
    const double forwarded = now_s();
    const nn::LossResult loss = nn::softmax_cross_entropy(out.logits, labels);
    const double backward_start = now_s();
    net.backward_main(loss.grad);
    const double end = now_s();
    if (i == 0) continue;
    forward.push_back((forwarded - start) * 1e3);
    backward.push_back((end - backward_start) * 1e3);
  }
  std::sort(forward.begin(), forward.end());
  std::sort(backward.begin(), backward.end());
  TrainRow row{model, images.shape().batch(), forward[forward.size() / 2],
               backward[backward.size() / 2]};
  std::printf("  %-28s train batch %2d   forward %8.3f ms   backward %8.3f ms\n",
              model.c_str(), row.batch, row.forward_ms, row.backward_ms);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_forward.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_forward [--quick] [--out PATH]\n");
      return 2;
    }
  }
  const int reps = quick ? 5 : 21;
  // The gated single-image rows keep the full rep count under --quick:
  // a forward takes ~0.15 ms, so with 5 reps one noisy millisecond on a
  // shared host can flip a tier gate either way.
  const int gated_reps = 21;
  const int e2e_frames = quick ? 48 : 200;

  std::printf("=== perf_forward: serving kernels by tier (%s) ===\n",
              quick ? "quick" : "full");
  std::vector<Row> rows;
  std::vector<Row> gated;  // single-image rows the exit status checks
  std::vector<BatchRow> sweep;
  std::vector<TrainRow> training;

  const ModelUnderTest models[] = {
      {"resnet_b_cifar", bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike},
      {"mobilenet_b_imagenet", bench::EdgeModel::kMobileNetB,
       bench::DatasetKind::kImageNetLike},
  };
  for (const ModelUnderTest& m : models) {
    util::Rng rng(3);
    core::MEANet net = bench::build_edge_model(m.model, m.kind, bench::default_num_hard(m.kind),
                                               core::FusionMode::kSum, rng);
    const data::SyntheticSpec spec = bench::spec_for(m.kind);
    util::Rng data_rng(9);
    const Tensor single = Tensor::normal(Shape{1, spec.channels, spec.height, spec.width},
                                         data_rng);
    const Tensor batch = Tensor::normal(Shape{32, spec.channels, spec.height, spec.width},
                                        data_rng);
    Row one = measure_tiers(m.name + "_single_image", gated_reps,
                            [&] { (void)net.forward_main(single, nn::Mode::kEval); });
    rows.push_back(one);
    gated.push_back(one);
    rows.push_back(measure_tiers(m.name + "_batch32", std::max(3, reps / 3),
                                 [&] { (void)net.forward_main(batch, nn::Mode::kEval); }));

    // Batch sweep in the serving config: a float conv is one implicit
    // GEMM over the batch and int8 runs per image.
    for (const int bs : {1, 8, 32}) {
      const Tensor input = Tensor::normal(
          Shape{bs, spec.channels, spec.height, spec.width}, data_rng);
      auto forward = [&] { (void)net.forward_main(input, nn::Mode::kEval); };
      const int batch_reps = std::max(5, reps / std::max(1, bs / 4));
      BatchRow row;
      row.model = m.name;
      row.batch = bs;
      row.float_ms = median_ms(batch_reps, forward);
      {
        ops::QuantizedScope quantized(true);
        row.int8_ms = median_ms(batch_reps, forward);
      }
      std::printf(
          "  %-28s batch %2d   float %8.3f ms (%7.1f img/s)   int8 %8.3f ms (%7.1f img/s)\n",
          m.name.c_str(), bs, row.float_ms, row.imgs_per_s(row.float_ms), row.int8_ms,
          row.imgs_per_s(row.int8_ms));
      sweep.push_back(row);
    }
    training.push_back(measure_training(m.name, net, batch, spec.num_classes, std::max(11, reps)));
  }

  std::vector<PassRow> cloud_rows;
  {
    // The cloud classifier on the CIFAR-like images e2ebench's wire
    // daemon classifies.
    util::Rng rng(5);
    const data::SyntheticSpec spec = bench::spec_for(bench::DatasetKind::kCifarLike);
    nn::Sequential cloud = core::build_cloud_classifier(spec.channels, spec.num_classes, rng);
    const std::int64_t macs =
        nn::collect_stats(cloud, Shape{1, spec.channels, spec.height, spec.width}).total_macs();
    util::Rng data_rng(13);
    for (const int bs : {16, 62}) {
      const Tensor input =
          Tensor::normal(Shape{bs, spec.channels, spec.height, spec.width}, data_rng);
      cloud_rows.push_back(measure_pass("cloud_classifier", "forward", bs, macs,
                                        quick ? 11 : 31,
                                        [&] { (void)cloud.forward(input, nn::Mode::kEval); }));
    }
  }
  std::vector<PassRow> edge_rows;
  {
    // ResNet-B's two edge passes in wire_offload's shapes.
    util::Rng rng(3);
    const bench::DatasetKind kind = bench::DatasetKind::kCifarLike;
    core::MEANet net = bench::build_edge_model(bench::EdgeModel::kResNetB, kind,
                                               bench::default_num_hard(kind),
                                               core::FusionMode::kSum, rng);
    const data::SyntheticSpec spec = bench::spec_for(kind);
    const core::EdgeMacs macs = net.edge_macs(Shape{1, spec.channels, spec.height, spec.width});
    util::Rng data_rng(19);
    const Tensor request = Tensor::normal(Shape{128, spec.channels, spec.height, spec.width},
                                          data_rng);
    const Tensor hard = request.slice_batch(0, 64);
    const Tensor features = net.forward_main(hard, nn::Mode::kEval).features;
    const int pass_reps = quick ? 11 : 31;
    edge_rows.push_back(measure_pass("resnet_b_cifar", "forward_main", 128, macs.main, pass_reps,
                                     [&] { (void)net.forward_main(request, nn::Mode::kEval); }));
    edge_rows.push_back(measure_pass(
        "resnet_b_cifar", "forward_extension", 64, macs.extension, pass_reps,
        [&] { (void)net.forward_extension(hard, features, nn::Mode::kEval); }));
  }

  {
    // Routing-signal reductions on a serving-sized logits block.
    util::Rng rng(17);
    const Tensor logits = Tensor::normal(Shape{256, 20}, rng);
    Tensor probs;
    std::vector<int> argmax;
    std::vector<float> conf, margin, entropy;
    rows.push_back(measure("routing_signal_reductions_256x20", reps * 4, [&] {
      ops::softmax_into(logits, probs);
      ops::row_argmax_into(probs, argmax);
      ops::row_max_into(probs, conf);
      ops::row_margin_into(probs, margin);
      ops::row_entropy_into(probs, entropy);
    }));
  }

  {
    // End-to-end submit -> settle on a shared net, 2 workers, no cloud.
    util::Rng rng(3);
    core::MEANet net =
        bench::build_edge_model(bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike,
                                bench::default_num_hard(bench::DatasetKind::kCifarLike),
                                core::FusionMode::kSum, rng);
    const data::SyntheticSpec spec = bench::spec_for(bench::DatasetKind::kCifarLike);
    std::vector<int> hard(static_cast<std::size_t>(
        bench::default_num_hard(bench::DatasetKind::kCifarLike)));
    for (std::size_t i = 0; i < hard.size(); ++i) hard[i] = static_cast<int>(i);
    data::ClassDict dict(spec.num_classes, hard);
    util::Rng data_rng(11);
    std::vector<Tensor> frames;
    for (int i = 0; i < e2e_frames; ++i) {
      frames.push_back(Tensor::normal(Shape{spec.channels, spec.height, spec.width}, data_rng));
    }
    auto serve_once = [&] {
      runtime::EngineConfig cfg;
      cfg.net = &net;
      cfg.dict = &dict;
      cfg.worker_threads = 2;
      cfg.batch_size = 8;
      runtime::InferenceSession session(cfg);
      for (const Tensor& frame : frames) session.submit(frame);
      (void)session.drain();
    };
    rows.push_back(measure("e2e_submit_settle_" + std::to_string(e2e_frames) + "f", 3,
                           serve_once));
  }

  // The tracked baseline is rendered by the shared diag exporter — the
  // same serializer (and schema tag) behind the diagnostics registry.
  diag::Value doc = diag::Value::object();
  doc.set("schema", diag::kSchemaVersion);
  doc.set("bench", "perf_forward");
  doc.set("quick", quick);
  doc.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  doc.set("simd", ops::simd_level_name(ops::simd_level()));
  doc.set("int8_kernel", ops::int8_kernel_name(ops::int8_kernel()));
  diag::Value results = diag::Value::array();
  for (const Row& row : rows) {
    diag::Value v = diag::Value::object();
    v.set("name", row.name);
    v.set("gemm_ms", row.gemm.median_ms);
    v.set("portable_ms", row.portable.median_ms);
    v.set("int8_ms", row.int8.median_ms);
    v.set("int8_speedup", row.int8_speedup());
    v.set("avx2_ms", row.avx2.median_ms);
    results.push(std::move(v));
  }
  doc.set("results", std::move(results));
  diag::Value batch_sweep = diag::Value::array();
  for (const BatchRow& row : sweep) {
    diag::Value v = diag::Value::object();
    v.set("model", row.model);
    v.set("batch", row.batch);
    v.set("float_ms", row.float_ms);
    v.set("imgs_per_s", row.imgs_per_s(row.float_ms));
    v.set("int8_ms", row.int8_ms);
    v.set("int8_imgs_per_s", row.imgs_per_s(row.int8_ms));
    batch_sweep.push(std::move(v));
  }
  doc.set("batch_sweep", std::move(batch_sweep));
  diag::Value train_rows = diag::Value::array();
  for (const TrainRow& row : training) {
    diag::Value v = diag::Value::object();
    v.set("model", row.model);
    v.set("batch", row.batch);
    v.set("forward_ms", row.forward_ms);
    v.set("backward_ms", row.backward_ms);
    train_rows.push(std::move(v));
  }
  doc.set("training", std::move(train_rows));
  const auto pass_rows = [](const std::vector<PassRow>& rows) {
    diag::Value array = diag::Value::array();
    for (const PassRow& row : rows) {
      diag::Value v = diag::Value::object();
      v.set("model", row.model);
      v.set("pass", row.pass);
      v.set("batch", row.batch);
      v.set("forward_ms", row.forward.median_ms);
      v.set("iqr_ms", row.forward.iqr_ms);
      v.set("gflops", row.gflops);
      array.push(std::move(v));
    }
    return array;
  };
  doc.set("cloud_forward", pass_rows(cloud_rows));
  doc.set("edge_forward", pass_rows(edge_rows));
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  const std::string rendered = diag::to_json(doc);
  std::fprintf(out, "%s\n", rendered.c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  bool regressed = false;
  const auto gate = [&](const Row& row, const char* fast_name, const Timing& fast,
                        const char* fallback_name, const Timing& fallback) {
    const bool measured = fast.median_ms > 0.0 && fallback.median_ms > 0.0;
    if (!measured || !slower_beyond_noise(fast, fallback)) return;
    std::fprintf(stderr,
                 "PERF REGRESSION: %s %s (%.3f ms, IQR %.3f) slower than %s (%.3f ms, IQR %.3f)\n",
                 row.name.c_str(), fast_name, fast.median_ms, fast.iqr_ms, fallback_name,
                 fallback.median_ms, fallback.iqr_ms);
    regressed = true;
  };
  for (const Row& row : gated) {
    // The dispatched microkernel must never lose to the portable one
    // it replaced at startup.
    if (ops::simd_level() != ops::SimdLevel::kPortable) {
      gate(row, ops::simd_level_name(ops::simd_level()), row.gemm, "portable", row.portable);
    }
    // Nor may the AVX-512 kernel lose to the AVX2 kernel it displaced.
    gate(row, "avx512", row.gemm, "avx2", row.avx2);
    // With a VNNI tier the int8 path must beat float; the scalar
    // fallback is a correctness tier, not a speed claim.
    if (ops::int8_kernel_vectorized()) gate(row, "int8 path", row.int8, "float", row.gemm);
  }
  return regressed ? 1 : 0;
}
