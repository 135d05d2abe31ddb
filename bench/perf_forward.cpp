// Tracked performance baseline of the inference hot path.
//
// Times the serving kernels on:
//   - single-image eval forwards of the edge models,
//   - batched eval forwards (one implicit GEMM per conv over the whole
//     batch),
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
// JSON header records the host shape (nproc, SIMD and int8 tiers).
//
// Usage: perf_forward [--quick] [--out PATH]
// Exit status is nonzero when, on any single-image forward, the
// dispatched SIMD kernel is slower than the portable one, the AVX-512
// kernel (when active) is slower than the AVX2 one, or (with a
// vectorized int8 tier) the int8 path is slower than float — the CI
// perf smoke gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "diag/value.h"
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

/// Interleaved medians of several alternatives: each rep times every
/// alternative once, back to back, so a thermal throttle or
/// noisy-neighbor window lands on all of them instead of skewing
/// whichever happened to own that slice of wall clock. Odd reps run the
/// alternatives in reverse, so none always follows the same neighbour.
/// The exit gates judge ratios between alternatives, which interleaving
/// stabilizes far better than extra serialized reps would.
std::vector<double> interleaved_median_ms(int reps,
                                          const std::vector<std::function<void()>>& fns) {
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
  std::vector<double> medians;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

struct Row {
  std::string name;
  double gemm_ms = 0.0;
  double portable_ms = 0.0;  // SIMD dispatch forced to the portable kernel
  double int8_ms = 0.0;      // quantized serving path; 0 = not measured
  double avx2_ms = 0.0;      // AVX2 kernel while AVX-512 is active; 0 = not measured
  double int8_speedup() const { return int8_ms > 0.0 ? gemm_ms / int8_ms : 0.0; }
};

/// Times `fn` on the dispatched kernels.
template <typename Fn>
Row measure(const std::string& name, int reps, Fn fn) {
  Row row;
  row.name = name;
  row.gemm_ms = median_ms(reps, fn);
  std::printf("  %-38s gemm %9.3f ms\n", name.c_str(), row.gemm_ms);
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
  const std::vector<double> ms = interleaved_median_ms(reps, variants);
  row.gemm_ms = ms[0];
  row.portable_ms = ms[1];
  row.int8_ms = ms[2];
  if (avx2_baseline) row.avx2_ms = ms[3];
  std::printf("  %-38s gemm %9.3f ms\n", name.c_str(), row.gemm_ms);
  std::printf("  %-38s portable %5.3f ms  avx2 %5.3f ms  int8 %5.3f ms (%s)  int8 %5.2fx\n", "",
              row.portable_ms, row.avx2_ms, row.int8_ms,
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
    v.set("gemm_ms", row.gemm_ms);
    v.set("portable_ms", row.portable_ms);
    v.set("int8_ms", row.int8_ms);
    v.set("int8_speedup", row.int8_speedup());
    v.set("avx2_ms", row.avx2_ms);
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
  for (const Row& row : gated) {
    // The dispatched microkernel must never lose to the portable one
    // it replaced at startup.
    if (ops::simd_level() != ops::SimdLevel::kPortable && row.portable_ms > 0.0 &&
        row.gemm_ms > row.portable_ms) {
      std::fprintf(stderr,
                   "PERF REGRESSION: %s %s kernel (%.3f ms) slower than portable (%.3f ms)\n",
                   row.name.c_str(), ops::simd_level_name(ops::simd_level()), row.gemm_ms,
                   row.portable_ms);
      regressed = true;
    }
    // Nor may the AVX-512 kernel lose to the AVX2 kernel it displaced.
    if (row.avx2_ms > 0.0 && row.gemm_ms > row.avx2_ms) {
      std::fprintf(stderr,
                   "PERF REGRESSION: %s avx512 kernel (%.3f ms) slower than avx2 (%.3f ms)\n",
                   row.name.c_str(), row.gemm_ms, row.avx2_ms);
      regressed = true;
    }
    // With a VNNI tier the int8 path must beat float; the scalar
    // fallback is a correctness tier, not a speed claim.
    if (ops::int8_kernel_vectorized() && row.int8_ms > 0.0 && row.int8_ms > row.gemm_ms) {
      std::fprintf(stderr,
                   "PERF REGRESSION: %s int8 path (%.3f ms) slower than float (%.3f ms)\n",
                   row.name.c_str(), row.int8_ms, row.gemm_ms);
      regressed = true;
    }
  }
  return regressed ? 1 : 0;
}
