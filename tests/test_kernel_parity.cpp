// Parity and concurrency guarantees of the GEMM-backed inference hot
// path:
//  - the blocked, packed GEMM matches the reference GEMM
//    (reference_kernels.h) across seeded shapes and all four transpose
//    cases;
//  - Conv2d / DepthwiseConv2d forwards match the reference direct
//    convolutions within 1e-5 across odd sizes, stride 2, padding, and
//    batch > 1;
//  - eval-mode Conv+BN folding matches the unfused pair, and the GEMM
//    tile epilogue that finishes a folded conv with its bias, a
//    residual and a ReLU is bit-identical to those separate passes
//    (stem, identity and projection residual blocks, an inverted
//    residual's skip; several k blocks, image-straddling tiles);
//  - eval-mode forwards are cache-free (activation_cache_elems == 0)
//    and thread-safe: four workers share ONE net and reproduce the
//    single-threaded logits bit-identically (run this binary under
//    TSAN to verify the absence of data races mechanically);
//  - the runtime-dispatched SIMD microkernel matches the portable
//    4x16 within float-rounding tolerance, and each fixed kernel is
//    bit-identical across row splits of its A operand; the AVX-512
//    tier is bit-identical to AVX2 on GEMMs, implicit-GEMM convs, a
//    ResNet-B forward and a train step's gradients;
//  - the int8 quantized path (tensor/qgemm.h) round-trips weights
//    within half a quantization step, tracks the float forward within
//    the documented tolerance, and its scalar and VNNI kernels produce
//    bit-identical results;
//  - the implicit-GEMM conv (ops::conv_gemm_nchw) is bit-identical to
//    im2col + gemm() per image, on every kernel tier, and its B packer
//    writes im2col's values lane for lane, zero past a ragged panel;
//  - a conv forward over a batch, float or int8, is bit-identical to
//    one batch-1 forward per image;
//  - Conv2d's backward (per-image dW, one whole-batch dX GEMM, the
//    stride-specialized col2im) and its parameters-only variant are
//    bit-identical to im2col + gemm() + col2im per image, on every
//    kernel tier; ops::col2im and DepthwiseConv2d's backward are
//    bit-identical to their loop-nest references;
//  - the persistent GemmPool serves jobs of changing width, and a throw
//    in any of its slots reaches the caller only after every slot has
//    finished, and the pool keeps working.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/inverted_residual.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "nn/residual_block.h"
#include "nn/sequential.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/qgemm.h"
#include "tensor/simd.h"
#include "reference_kernels.h"
#include "tiny_models.h"

namespace meanet {
namespace {

using meanet::testing::reference_col2im;
using meanet::testing::reference_conv;
using meanet::testing::reference_depthwise;
using meanet::testing::reference_depthwise_backward;
using meanet::testing::reference_gemm;
using meanet::testing::reference_matmul;
using meanet::testing::tiny_meanet_b;

TEST(GemmParity, BlockedMatchesNaiveAcrossShapesAndTransposes) {
  util::Rng rng(7);
  // Odd sizes, tile-boundary sizes, degenerate rows/cols.
  const int sizes[][3] = {{1, 1, 1},   {3, 5, 7},    {4, 16, 256}, {17, 33, 9},
                          {64, 64, 64}, {5, 130, 31}, {130, 17, 300}};
  for (const auto& s : sizes) {
    const int m = s[0], n = s[1], k = s[2];
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    const Tensor at = Tensor::normal(Shape{k, m}, rng);
    const Tensor bt = Tensor::normal(Shape{n, k}, rng);
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        const Tensor& a_stored = ta ? at : a;
        const Tensor& b_stored = tb ? bt : b;
        const Tensor expected = reference_matmul(a_stored, b_stored, ta != 0, tb != 0);
        const Tensor fast = ops::matmul(a_stored, b_stored, ta != 0, tb != 0);
        ASSERT_EQ(expected.shape(), fast.shape());
        for (std::int64_t i = 0; i < expected.numel(); ++i) {
          ASSERT_NEAR(expected[i], fast[i], 1e-4f * std::max(1.0f, std::fabs(expected[i])))
              << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta << " tb=" << tb
              << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmParity, AccumulationMatches) {
  util::Rng rng(11);
  const int m = 19, n = 37, k = 23;
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  const Tensor c0 = Tensor::normal(Shape{m, n}, rng);
  Tensor expected = c0;
  reference_gemm(false, false, m, n, k, a.data(), k, b.data(), n, expected.data(), n);
  Tensor fast = c0;
  ops::gemm(false, false, m, n, k, a.data(), k, b.data(), n, fast.data(), n);
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_NEAR(expected[i], fast[i], 1e-4f * std::max(1.0f, std::fabs(expected[i])));
  }
}

TEST(GemmParity, PersistentPoolSurvivesRepeatedWidthChanges) {
  // The pool's workers live for the process and the pool grows
  // monotonically; alternate widths across jobs to exercise the
  // generation handshake rather than a fresh spawn/join per job. A
  // worker beyond a job's width must sit that job out.
  for (int i = 0; i < 12; ++i) {
    const int width = 1 + i % 4;
    std::vector<int> hits(4, 0);
    ops::GemmPool::instance().run(width,
                                  [&](int slot) { ++hits[static_cast<std::size_t>(slot)]; });
    std::vector<int> expected(4, 0);
    std::fill_n(expected.begin(), width, 1);
    EXPECT_EQ(hits, expected) << "iter=" << i << " width=" << width;
  }
}

/// Runs a width-4 pool job whose slots in `throwing` throw "slot N" at
/// once while the others sleep first, and returns what run() rethrew
/// plus how many non-throwing slots had finished by then.
std::pair<std::string, int> run_throwing_job(const std::vector<int>& throwing) {
  std::atomic<int> finished{0};
  try {
    ops::GemmPool::instance().run(4, [&](int slot) {
      if (std::find(throwing.begin(), throwing.end(), slot) != throwing.end()) {
        throw std::runtime_error("slot " + std::to_string(slot));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    return {e.what(), finished.load()};
  }
  return {"", finished.load()};
}

/// The pool serves a normal width-4 job: every slot runs exactly once.
void expect_pool_serves_next_job() {
  std::vector<int> hits(4, 0);
  ops::GemmPool::instance().run(4, [&](int slot) { ++hits[static_cast<std::size_t>(slot)]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));
}

TEST(GemmPoolErrors, CallerSlotThrowIsRethrownAfterEverySlotFinished) {
  const auto [message, finished] = run_throwing_job({0});
  EXPECT_EQ(message, "slot 0");
  EXPECT_EQ(finished, 3);
  expect_pool_serves_next_job();
}

TEST(GemmPoolErrors, WorkerSlotThrowIsRethrownAfterEverySlotFinished) {
  const auto [message, finished] = run_throwing_job({2});
  EXPECT_EQ(message, "slot 2");
  EXPECT_EQ(finished, 3);
  expect_pool_serves_next_job();
}

TEST(GemmPoolErrors, FirstThrowInSlotOrderWins) {
  const auto [message, finished] = run_throwing_job({3, 1});
  EXPECT_EQ(message, "slot 1");
  EXPECT_EQ(finished, 2);
  expect_pool_serves_next_job();
}

/// RAII set/restore of the float microkernel selection.
class SimdLevelScope {
 public:
  explicit SimdLevelScope(ops::SimdLevel level) : previous_(ops::simd_level()) {
    ops::set_simd_level(level);
  }
  ~SimdLevelScope() { ops::set_simd_level(previous_); }

 private:
  ops::SimdLevel previous_;
};

TEST(SimdParity, VectorMicrokernelMatchesPortableWithinTolerance) {
  if (ops::max_simd_level() == ops::SimdLevel::kPortable) {
    GTEST_SKIP() << "no vector microkernel on this host";
  }
  util::Rng rng(43);
  // Full tiles, ragged tiles, and sizes spanning several KC/NC blocks.
  const int sizes[][3] = {{6, 16, 32}, {17, 33, 9}, {64, 64, 64}, {130, 130, 130}};
  for (const auto& s : sizes) {
    const int m = s[0], n = s[1], k = s[2];
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    Tensor portable;
    Tensor vectorized;
    {
      SimdLevelScope scope(ops::SimdLevel::kPortable);
      portable = ops::matmul(a, b);
    }
    {
      SimdLevelScope scope(ops::max_simd_level());
      vectorized = ops::matmul(a, b);
    }
    ASSERT_EQ(portable.shape(), vectorized.shape());
    // The vector kernel contracts multiply-adds into FMAs, so results
    // differ from the portable kernel only by rounding.
    for (std::int64_t i = 0; i < portable.numel(); ++i) {
      ASSERT_NEAR(portable[i], vectorized[i],
                  1e-4f * std::max(1.0f, std::fabs(portable[i])))
          << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(SimdParity, PortableKernelIsBitIdenticalAcrossRowSplits) {
  // A CloudNode shard runs each Linear GEMM on a slice of the batch's
  // rows, so per fixed kernel a row's result must not depend on which
  // slice it sits in. The default kernel is covered through
  // CloudNodeSharding; pin the portable tier here. The splits leave
  // ragged MR tiles on both sides.
  util::Rng rng(47);
  const int m = 160;
  const Tensor a = Tensor::normal(Shape{m, 160}, rng);
  const Tensor b = Tensor::normal(Shape{160, 160}, rng);
  SimdLevelScope scope(ops::SimdLevel::kPortable);
  const Tensor whole = ops::matmul(a, b);
  for (const int rows : {1, 3, 57, 130}) {
    EXPECT_TRUE(allclose(whole.slice_batch(0, rows), ops::matmul(a.slice_batch(0, rows), b), 0.0f))
        << "rows=" << rows;
    EXPECT_TRUE(allclose(whole.slice_batch(rows, m - rows),
                         ops::matmul(a.slice_batch(rows, m - rows), b), 0.0f))
        << "rows=" << rows;
  }
}

TEST(SimdParity, SetLevelClampsToTheHardwareCeiling) {
  const ops::SimdLevel before = ops::simd_level();
  const ops::SimdLevel max = ops::max_simd_level();
  ops::set_simd_level(ops::SimdLevel::kPortable);
  EXPECT_EQ(ops::simd_level(), ops::SimdLevel::kPortable);
  // The host's ceiling is honoured, and so is every x86 tier below it
  // (an AVX-512 host also runs the AVX2 kernel). A level the host lacks
  // degrades to portable instead of faulting later.
  for (const ops::SimdLevel requested :
       {ops::SimdLevel::kAvx2, ops::SimdLevel::kAvx512, ops::SimdLevel::kNeon}) {
    ops::set_simd_level(requested);
    const bool honoured = requested == max || (requested == ops::SimdLevel::kAvx2 &&
                                               max == ops::SimdLevel::kAvx512);
    EXPECT_EQ(ops::simd_level(), honoured ? requested : ops::SimdLevel::kPortable)
        << ops::simd_level_name(requested) << " on a " << ops::simd_level_name(max) << " host";
  }
  if (max == ops::SimdLevel::kAvx512) {
    ops::set_simd_level(ops::SimdLevel::kAvx2);
    EXPECT_EQ(ops::simd_level(), ops::SimdLevel::kAvx2);
  }
  ops::set_simd_level(before);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> as_vector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

/// Runs `fn` under AVX2 for the reference, then under AVX2 again (the
/// run is deterministic) and AVX-512, and expects every result to equal
/// the reference bit for bit.
template <typename Fn>
void expect_avx512_matches_avx2(const std::string& what, Fn fn) {
  std::vector<float> reference;
  {
    SimdLevelScope scope(ops::SimdLevel::kAvx2);
    reference = fn();
  }
  for (const ops::SimdLevel level : {ops::SimdLevel::kAvx2, ops::SimdLevel::kAvx512}) {
    SimdLevelScope scope(level);
    EXPECT_TRUE(same_bits(reference, fn())) << what << " " << ops::simd_level_name(level);
  }
}

TEST(SimdParity, Avx512IsBitIdenticalToAvx2) {
  if (ops::max_simd_level() != ops::SimdLevel::kAvx512) {
    GTEST_SKIP() << "no AVX-512F tier on this host";
  }
  util::Rng rng(113);
  // Full tiles, tiles ragged in m/n/k for both MR=6 and MR=8, and
  // shapes whose KC (k > 256) and NC (n > 1024) blocks repeat.
  const int sizes[][3] = {{8, 16, 32}, {17, 33, 9}, {33, 1037, 300}, {70, 70, 520}};
  for (const auto& s : sizes) {
    const int m = s[0], n = s[1], k = s[2];
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    const Tensor at = Tensor::normal(Shape{k, m}, rng);
    const Tensor bt = Tensor::normal(Shape{n, k}, rng);
    const Tensor c0 = Tensor::normal(Shape{m, n}, rng);
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        // Into a zeroed C and accumulating onto a filled one.
        for (const bool accumulate : {false, true}) {
          expect_avx512_matches_avx2(
              "gemm m=" + std::to_string(m) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(k) + " ta=" + std::to_string(ta) +
                  " tb=" + std::to_string(tb) + " accumulate=" + std::to_string(accumulate),
              [&] {
                std::vector<float> c =
                    accumulate ? as_vector(c0) : std::vector<float>(c0.numel(), 0.0f);
                ops::gemm(ta != 0, tb != 0, m, n, k, ta ? at.data() : a.data(), ta ? m : k,
                          tb ? bt.data() : b.data(), tb ? k : n, c.data(), n);
                return c;
              });
        }
      }
    }
  }

  // Implicit-GEMM conv: 49 columns per 7x7 image, so 16-wide tiles
  // straddle image boundaries and take the bounce path; the 32x3x3
  // patch (288 rows) spans two KC blocks.
  {
    const ops::ConvGeometry g{32, 7, 7, 3, 1, 1};
    const int out_channels = 37, batch = 5;
    const Tensor weight = Tensor::normal(Shape{out_channels, g.patch_size()}, rng);
    const Tensor images = Tensor::normal(Shape{batch, 32, 7, 7}, rng);
    expect_avx512_matches_avx2("conv_gemm_nchw", [&] {
      std::vector<float> out(static_cast<std::size_t>(batch) * out_channels * 49, 0.0f);
      ops::conv_gemm_nchw(out_channels, weight.data(), images.data(), batch, g, out.data());
      return out;
    });
  }

  // A ResNet-B (8/16/32 channels, 16x16 RGB) eval forward, and one
  // train step's parameter gradients, which run Conv2d::backward's
  // transposed GEMMs and Linear. Each run builds the same fresh net, so
  // train-mode BatchNorm statistics never leak between runs.
  const core::ResNetConfig config;
  util::Rng data_rng(127);
  const Tensor images = Tensor::normal(Shape{4, config.image_channels, 16, 16}, data_rng);
  const std::vector<int> labels = {0, 7, 3, 19};      // main exit: 20 classes
  const std::vector<int> hard_labels = {0, 4, 2, 1};  // extension exit: 5 hard classes
  const auto build_net = [&] {
    util::Rng net_rng(131);
    return core::build_resnet_meanet_b(config, 5, core::FusionMode::kSum, net_rng);
  };
  expect_avx512_matches_avx2("resnet_b forward_main eval", [&] {
    core::MEANet net = build_net();
    const core::MainForward fwd = net.forward_main(images, nn::Mode::kEval);
    std::vector<float> out = as_vector(fwd.features);
    const std::vector<float> logits = as_vector(fwd.logits);
    out.insert(out.end(), logits.begin(), logits.end());
    return out;
  });
  expect_avx512_matches_avx2("resnet_b train step gradients", [&] {
    core::MEANet net = build_net();
    const core::MainForward fwd = net.forward_main(images, nn::Mode::kTrain);
    const Tensor ext_logits = net.forward_extension(images, fwd.features, nn::Mode::kTrain);
    net.backward_main(nn::softmax_cross_entropy(fwd.logits, labels).grad);
    net.backward_extension(nn::softmax_cross_entropy(ext_logits, hard_labels).grad);
    std::vector<float> grads;
    for (const nn::Parameter* param : net.all_parameters()) {
      grads.insert(grads.end(), param->grad.data(), param->grad.data() + param->grad.numel());
    }
    return grads;
  });
}

/// Test-owned int8 weight storage in the layout quantize_weight_rows
/// writes and qgemm_u8s8 reads: s8 codes [rows, k_padded] with
/// zero-padded tails, per-row scales and per-row code sums.
struct Int8Weights {
  int k_padded = 0;
  std::vector<std::int8_t> codes;
  std::vector<float> scales;
  std::vector<std::int32_t> row_sums;
};

/// Quantizes w [rows, cols] per row into buffers pre-filled with junk,
/// so every code, tail, scale and sum must be written, not inherited.
Int8Weights quantize_rows(const Tensor& w) {
  const int rows = w.shape().dim(0);
  const int cols = w.shape().dim(1);
  Int8Weights q;
  q.k_padded = ops::quantized_k_padded(cols);
  q.codes.assign(static_cast<std::size_t>(rows) * q.k_padded, 7);
  q.scales.assign(static_cast<std::size_t>(rows), -1.0f);
  q.row_sums.assign(static_cast<std::size_t>(rows), -1);
  ops::quantize_weight_rows(w.data(), rows, cols, q.codes.data(), q.scales.data(),
                            q.row_sums.data());
  return q;
}

TEST(QuantizedParity, DequantizedWeightsRoundTripWithinHalfStep) {
  util::Rng rng(53);
  const int rows = 5, cols = 19;
  const Tensor w = Tensor::normal(Shape{rows, cols}, rng);
  const Int8Weights q = quantize_rows(w);
  EXPECT_EQ(q.k_padded, 20);  // 19 rounded up to the 4-wide k group
  ASSERT_EQ(q.codes.size(), static_cast<std::size_t>(rows) * q.k_padded);
  ASSERT_EQ(q.scales.size(), static_cast<std::size_t>(rows));
  Tensor decoded(Shape{rows, cols});
  for (int r = 0; r < rows; ++r) {
    const std::int8_t* codes = q.codes.data() + static_cast<std::ptrdiff_t>(r) * q.k_padded;
    std::int32_t sum = 0;
    for (int c = 0; c < q.k_padded; ++c) {
      sum += codes[c];
      if (c >= cols) {
        EXPECT_EQ(codes[c], 0) << "padding r=" << r << " c=" << c;
      } else {
        decoded[static_cast<std::int64_t>(r) * cols + c] =
            static_cast<float>(codes[c]) * q.scales[static_cast<std::size_t>(r)];
      }
    }
    EXPECT_EQ(q.row_sums[static_cast<std::size_t>(r)], sum) << "r=" << r;
  }
  for (int r = 0; r < rows; ++r) {
    // Symmetric rounding quantization: every element is within half a
    // step of its code, and the row max hits a code exactly.
    const float step = q.scales[static_cast<std::size_t>(r)];
    for (int c = 0; c < cols; ++c) {
      const std::int64_t i = static_cast<std::int64_t>(r) * cols + c;
      EXPECT_LE(std::fabs(decoded[i] - w[i]), 0.5f * step + 1e-7f) << "r=" << r << " c=" << c;
    }
  }
}

/// Quantizes W [rows, k] and X [k, n], runs qgemm_u8s8, returns C.
Tensor run_qgemm(const Tensor& w, const Tensor& x, const Tensor& bias) {
  const int rows = w.shape().dim(0);
  const int k = w.shape().dim(1);
  const int n = x.shape().dim(1);
  const Int8Weights q = quantize_rows(w);
  const float a_scale = ops::activation_scale(x.data(), static_cast<std::size_t>(x.numel()));
  std::vector<std::uint8_t> act(static_cast<std::size_t>(x.numel()));
  ops::quantize_activations_u8(x.data(), act.size(), a_scale, act.data());
  Tensor c(Shape{rows, n});
  ops::qgemm_u8s8(rows, n, k, q.k_padded, q.codes.data(), q.scales.data(), q.row_sums.data(),
                  act.data(), a_scale, bias.data(), c.data(), n);
  return c;
}

TEST(QuantizedParity, QgemmTracksFloatGemmWithinQuantizationError) {
  util::Rng rng(59);
  // Ragged and tile-aligned shapes for both kernel tiers (16-wide
  // column panels, 4-row blocks, k groups of 4).
  const int sizes[][3] = {{1, 1, 1}, {4, 16, 32}, {13, 37, 29}, {16, 48, 64}, {7, 130, 75}};
  for (const auto& s : sizes) {
    const int rows = s[0], n = s[2], k = s[1];
    const Tensor w = Tensor::normal(Shape{rows, k}, rng);
    const Tensor x = Tensor::normal(Shape{k, n}, rng);
    const Tensor bias = Tensor::normal(Shape{rows}, rng);
    Tensor ref(Shape{rows, n});
    ops::gemm(false, false, rows, n, k, w.data(), k, x.data(), n, ref.data(), n);
    for (int r = 0; r < rows; ++r) {
      for (int j = 0; j < n; ++j) ref[static_cast<std::int64_t>(r) * n + j] += bias[r];
    }
    const Tensor q8 = run_qgemm(w, x, bias);
    float max_abs = 0.0f;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(ref[i]));
    }
    // ~1% relative error measured for normal operands; 5% of the
    // dynamic range is a comfortable regression bound.
    const float tolerance = 0.05f * std::max(1.0f, max_abs);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_NEAR(ref[i], q8[i], tolerance)
          << "rows=" << rows << " n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(QuantizedParity, ScalarAndVectorInt8KernelsAreBitIdentical) {
  if (ops::max_int8_kernel() == ops::Int8Kernel::kScalar) {
    GTEST_SKIP() << "no VNNI tier on this host";
  }
  util::Rng rng(61);
  const int sizes[][3] = {{4, 16, 32}, {13, 37, 29}, {7, 130, 75}};
  for (const auto& s : sizes) {
    const int rows = s[0], n = s[2], k = s[1];
    const Tensor w = Tensor::normal(Shape{rows, k}, rng);
    const Tensor x = Tensor::normal(Shape{k, n}, rng);
    const Tensor bias = Tensor::normal(Shape{rows}, rng);
    const ops::Int8Kernel before = ops::int8_kernel();
    ops::set_int8_kernel(ops::max_int8_kernel());
    const Tensor vectorized = run_qgemm(w, x, bias);
    ops::set_int8_kernel(ops::Int8Kernel::kScalar);
    const Tensor scalar = run_qgemm(w, x, bias);
    ops::set_int8_kernel(before);
    // s32 accumulation is exact and both epilogues use one fused
    // multiply-add with round-to-nearest int->float conversion, so the
    // tiers agree to the bit (qgemm.h documents this contract).
    EXPECT_TRUE(allclose(vectorized, scalar, 0.0f))
        << "rows=" << rows << " n=" << n << " k=" << k;
  }
}

TEST(QuantizedParity, AllZeroActivationsDegenerateToBias) {
  util::Rng rng(67);
  const Tensor w = Tensor::normal(Shape{3, 8}, rng);
  const Tensor x = Tensor::zeros(Shape{8, 5});
  const Tensor bias = Tensor::normal(Shape{3}, rng);
  const Tensor q8 = run_qgemm(w, x, bias);
  for (int r = 0; r < 3; ++r) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(q8[static_cast<std::int64_t>(r) * 5 + j], bias[r]);
    }
  }
}

TEST(QuantizedParity, ConvForwardTracksFloat) {
  util::Rng rng(71);
  nn::Conv2d conv(8, 16, 3, 1, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{2, 8, 12, 12}, rng);
  const Tensor fp = conv.forward(x, nn::Mode::kEval);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < fp.numel(); ++i) max_abs = std::max(max_abs, std::fabs(fp[i]));
  const float tolerance = 0.05f * std::max(1.0f, max_abs);
  ops::QuantizedScope quantized(true);
  const Tensor q8 = conv.forward(x, nn::Mode::kEval);
  ASSERT_EQ(q8.shape(), fp.shape());
  for (std::int64_t i = 0; i < fp.numel(); ++i) {
    ASSERT_NEAR(fp[i], q8[i], tolerance) << "i=" << i;
  }
}

TEST(QuantizedParity, FoldedConvBnEvalComposesWithInt8) {
  util::Rng rng(73);
  nn::Sequential fused("fused");
  fused.emplace<nn::Conv2d>(3, 6, 3, 1, 1, /*bias=*/true, rng, "c");
  fused.emplace<nn::BatchNorm2d>(6);
  for (int i = 0; i < 3; ++i) {
    fused.forward(Tensor::normal(Shape{4, 3, 9, 9}, rng), nn::Mode::kTrain);
  }
  const Tensor x = Tensor::normal(Shape{2, 3, 9, 9}, rng);
  const Tensor fp = fused.forward(x, nn::Mode::kEval);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < fp.numel(); ++i) max_abs = std::max(max_abs, std::fabs(fp[i]));
  ops::QuantizedScope quantized(true);
  const Tensor q8 = fused.forward(x, nn::Mode::kEval);
  ASSERT_EQ(q8.shape(), fp.shape());
  // int8 quantizes the BN-folded weights, so the fused path and the
  // quantized path compose without extra error terms.
  const float tolerance = 0.05f * std::max(1.0f, max_abs);
  for (std::int64_t i = 0; i < fp.numel(); ++i) {
    ASSERT_NEAR(fp[i], q8[i], tolerance) << "i=" << i;
  }
}

TEST(QuantizedParity, ScopeRestoresThePreviousFlag) {
  EXPECT_FALSE(ops::quantized_inference());
  {
    ops::QuantizedScope outer(true);
    EXPECT_TRUE(ops::quantized_inference());
    {
      ops::QuantizedScope inner(false);
      EXPECT_FALSE(ops::quantized_inference());
    }
    EXPECT_TRUE(ops::quantized_inference());
  }
  EXPECT_FALSE(ops::quantized_inference());
}

class ConvParity : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, int>> {};
// batch, in_c, out_c, kernel, stride, padding

TEST_P(ConvParity, GemmPathMatchesNaiveLoopNest) {
  const auto [batch, in_c, out_c, kernel, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(batch * 7919 + in_c * 131 + out_c * 17 +
                                           kernel * 5 + stride * 3 + padding));
  nn::Conv2d conv(in_c, out_c, kernel, stride, padding, /*bias=*/true, rng);
  const int size = 9;  // odd, so strides hit ragged edges
  if (conv.output_shape(Shape{1, in_c, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{batch, in_c, size, size}, rng);
  const Tensor expected = reference_conv(x, conv.weight().value.data(),
                                         conv.bias().value.data(), out_c, kernel, stride, padding);
  const Tensor fast = conv.forward(x, nn::Mode::kEval);
  ASSERT_EQ(expected.shape(), fast.shape());
  EXPECT_TRUE(allclose(expected, fast, 1e-5f))
      << "b=" << batch << " in=" << in_c << " out=" << out_c << " k=" << kernel
      << " s=" << stride << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(SeededShapes, ConvParity,
                         ::testing::Combine(::testing::Values(1, 3), ::testing::Values(1, 3),
                                            ::testing::Values(2, 5), ::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 2), ::testing::Values(0, 1, 2)));

class DepthwiseParity : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};
// channels, kernel, stride, padding

TEST_P(DepthwiseParity, SpecializedPathMatchesNaiveLoopNest) {
  const auto [channels, kernel, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(channels * 101 + kernel * 13 + stride * 7 + padding));
  nn::DepthwiseConv2d dw(channels, kernel, stride, padding, rng);
  const int size = 11;
  if (dw.output_shape(Shape{1, channels, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{2, channels, size, size}, rng);
  const Tensor expected =
      reference_depthwise(x, dw.weight().value.data(), nullptr, kernel, stride, padding);
  const Tensor fast = dw.forward(x, nn::Mode::kEval);
  ASSERT_EQ(expected.shape(), fast.shape());
  EXPECT_TRUE(allclose(expected, fast, 1e-5f))
      << "c=" << channels << " k=" << kernel << " s=" << stride << " p=" << padding;
  // The bias a folded BatchNorm supplies lands after the taps.
  const Tensor bias = Tensor::normal(Shape{channels}, rng);
  EXPECT_TRUE(allclose(
      reference_depthwise(x, dw.weight().value.data(), bias.data(), kernel, stride, padding),
      dw.forward_with(x, dw.weight().value.data(), bias.data()), 1e-5f))
      << "with bias: c=" << channels << " k=" << kernel << " s=" << stride << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(SeededShapes, DepthwiseParity,
                         ::testing::Combine(::testing::Values(1, 3), ::testing::Values(3, 5),
                                            ::testing::Values(1, 2), ::testing::Values(0, 1, 2)));

TEST_P(DepthwiseParity, BackwardMatchesReferenceBitForBit) {
  const auto [channels, kernel, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(channels * 103 + kernel * 11 + stride * 5 + padding));
  nn::DepthwiseConv2d dw(channels, kernel, stride, padding, rng);
  const int size = 11;
  if (dw.output_shape(Shape{1, channels, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{2, channels, size, size}, rng);
  Tensor gout = Tensor::normal(dw.output_shape(x.shape()), rng);
  // Zeros, as a ReLU6 behind the layer leaves them: the backward skips
  // those taps.
  for (std::int64_t i = 0; i < gout.numel(); i += 3) gout[i] = 0.0f;
  for (const bool frozen : {false, true}) {
    dw.set_frozen(frozen);
    // Start from a non-zero weight gradient, as a second batch would.
    const Tensor grad0 = Tensor::normal(dw.weight().grad.shape(), rng);
    std::vector<float> expected_weight = as_vector(grad0);
    const Tensor expected_input =
        reference_depthwise_backward(x, gout, dw.weight().value.data(), kernel, stride,
                                              padding, frozen, expected_weight.data());
    dw.weight().grad = grad0;
    (void)dw.forward(x, nn::Mode::kTrain);
    const Tensor grad_input = dw.backward(gout);
    EXPECT_TRUE(same_bits(as_vector(expected_input), as_vector(grad_input)))
        << "input grad: c=" << channels << " k=" << kernel << " s=" << stride
        << " p=" << padding << (frozen ? " frozen" : "");
    EXPECT_TRUE(same_bits(expected_weight, as_vector(dw.weight().grad)))
        << "weight grad: c=" << channels << " k=" << kernel << " s=" << stride
        << " p=" << padding << (frozen ? " frozen" : "");
  }
}

TEST(DepthwiseParity, NarrowerThanKernelInputsStayInBounds) {
  // Regression: with in_w < kernel (valid thanks to padding) the
  // interior-column bound's truncating division used to round toward
  // zero instead of clamping to "no interior", reading past the row.
  util::Rng rng(41);
  for (const int stride : {1, 2}) {
    nn::DepthwiseConv2d dw(1, 3, stride, /*padding=*/1, rng);
    const Tensor x = Tensor::normal(Shape{1, 1, 3, 2}, rng);  // 2-wide rows
    const Tensor expected =
        reference_depthwise(x, dw.weight().value.data(), nullptr, 3, stride, 1);
    EXPECT_TRUE(allclose(expected, dw.forward(x, nn::Mode::kEval), 1e-6f))
        << "stride=" << stride;
  }
  // The unpadded stride-2 case that originally read past the row.
  nn::DepthwiseConv2d dw(1, 3, 2, /*padding=*/0, rng);
  const Tensor x = Tensor::normal(Shape{1, 1, 3, 2}, rng);
  const Tensor expected = reference_depthwise(x, dw.weight().value.data(), nullptr, 3, 2, 0);
  EXPECT_TRUE(allclose(expected, dw.forward(x, nn::Mode::kEval), 1e-6f));
}

// ----- Implicit-GEMM conv (ops::conv_gemm_nchw) -----------------------

/// im2col written out as its definition, element by element: the
/// oracle's own oracle, so a fault in the tap-row copy that im2col and
/// the implicit-GEMM packer share cannot hide in both sides at once.
std::vector<float> im2col_by_definition(const float* image, const ops::ConvGeometry& g) {
  const int out_h = g.out_height(), out_w = g.out_width();
  std::vector<float> columns;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        for (int oh = 0; oh < out_h; ++oh) {
          for (int ow = 0; ow < out_w; ++ow) {
            const int ih = oh * g.stride - g.padding + kh;
            const int iw = ow * g.stride - g.padding + kw;
            const bool inside = ih >= 0 && ih < g.in_height && iw >= 0 && iw < g.in_width;
            columns.push_back(
                inside ? image[(static_cast<std::ptrdiff_t>(c) * g.in_height + ih) * g.in_width +
                               iw]
                       : 0.0f);
          }
        }
      }
    }
  }
  return columns;
}

TEST(ConvGemmParity, MatchesIm2colPlusGemmPerImageBitForBit) {
  // Geometries: a 7x7 input (out_hw 49 at stride 1, so 16-wide tiles
  // straddle images), a 3x2 input narrower than the kernel (valid only
  // through padding), and a 9x9 input whose 17-image batch spans
  // several NC blocks (batch * out_hw > 1024). 32 input channels give
  // patches of 288 and 800 rows: two and four KC blocks.
  struct Input {
    int channels, height, width;
  };
  const Input inputs[] = {{3, 7, 7}, {32, 7, 7}, {2, 3, 2}, {32, 9, 9}};
  const int out_channels = 19;  // ragged in every tier's MR
  const std::vector<ops::SimdLevel> levels =
      ops::simd_level() == ops::SimdLevel::kPortable
          ? std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable}
          : std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable, ops::simd_level()};
  util::Rng rng(137);
  int checked = 0;
  for (const Input in : inputs) {
    for (const int kernel : {1, 3, 5}) {
      for (const int stride : {1, 2}) {
        for (const int padding : {0, 1, 2}) {
          const ops::ConvGeometry g{in.channels, in.height, in.width, kernel, stride, padding};
          const int out_h = g.out_height(), out_w = g.out_width();
          if (in.height + 2 * padding < kernel || in.width + 2 * padding < kernel) continue;
          const int out_hw = out_h * out_w, patch = g.patch_size();
          const std::int64_t in_stride =
              static_cast<std::int64_t>(in.channels) * in.height * in.width;
          const std::int64_t out_stride = static_cast<std::int64_t>(out_channels) * out_hw;
          const Tensor weight = Tensor::normal(Shape{out_channels, patch}, rng);
          for (const int batch : {1, 3, 17}) {
            const Tensor images =
                Tensor::normal(Shape{batch, in.channels, in.height, in.width}, rng);
            std::vector<float> columns(static_cast<std::size_t>(patch) * out_hw);
            for (int n = 0; n < batch; ++n) {
              ops::im2col(images.data() + n * in_stride, g, columns.data());
              ASSERT_TRUE(same_bits(columns, im2col_by_definition(images.data() + n * in_stride, g)))
                  << "im2col itself, cin=" << in.channels << " " << in.height << "x" << in.width
                  << " k=" << kernel << " s=" << stride << " p=" << padding << " n=" << n;
            }
            for (const ops::SimdLevel level : levels) {
              SimdLevelScope scope(level);
              std::vector<float> expected(static_cast<std::size_t>(batch) * out_stride);
              for (int n = 0; n < batch; ++n) {
                ops::im2col(images.data() + n * in_stride, g, columns.data());
                ops::gemm(false, false, out_channels, out_hw, patch, weight.data(), patch,
                          columns.data(), out_hw, expected.data() + n * out_stride, out_hw);
              }
              std::vector<float> actual(expected.size(), 0.0f);
              ops::conv_gemm_nchw(out_channels, weight.data(), images.data(), batch, g,
                                  actual.data());
              EXPECT_TRUE(same_bits(expected, actual))
                  << ops::simd_level_name(level) << " cin=" << in.channels << " " << in.height
                  << "x" << in.width << " k=" << kernel << " s=" << stride << " p=" << padding
                  << " batch=" << batch;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ConvGemmParity, PackerPathsMatchIm2colBitForBit) {
  // The geometries each path of the B packer serves, checked twice: the
  // packed panels of every (KC, NC) block against im2col's matrix, lane
  // for lane (a lane past a ragged panel's nr must read 0), and the
  // conv against im2col + gemm() per image. Every case is padded (the
  // packer copies a zero-padded slab per block) or ends on a ragged
  // gathered panel.
  struct Case {
    const char* what;
    ops::ConvGeometry g;
    int batch;
  };
  const Case cases[] = {
      {"16x16 3x3 pad 1: contiguous panels", {16, 16, 16, 3, 1, 1}, 3},
      {"8x8 3x3 pad 1: 8-wide gathers", {32, 8, 8, 3, 1, 1}, 3},
      {"4x4 3x3 pad 1: 4-wide gathers", {64, 4, 4, 3, 1, 1}, 5},
      {"24x24 3x3 pad 1: mixed runs", {8, 24, 24, 3, 1, 1}, 2},
      {"24x24 3x3 stride 2 pad 1", {8, 24, 24, 3, 2, 1}, 3},
      {"12x12 3x3 pad 1: mixed runs", {12, 12, 12, 3, 1, 1}, 3},
      {"1x1 over 5x5: panels straddle images", {12, 5, 5, 1, 1, 0}, 3},
      {"1-wide 3x3 pad 1", {4, 5, 1, 3, 1, 1}, 3},
      {"1-wide 1x1", {4, 5, 1, 1, 1, 0}, 3},
      {"stride 3", {6, 10, 10, 3, 3, 1}, 3},
      {"kernel 2", {5, 7, 7, 2, 1, 0}, 3},
      {"kernel 4 stride 2 pad 1", {5, 9, 9, 4, 2, 1}, 3},
      {"padded, a KC block starts mid-channel", {40, 6, 6, 3, 1, 1}, 2},
      {"padded, an NC block starts mid-image", {3, 7, 7, 3, 1, 1}, 23},
  };
  const int out_channels = 19;  // ragged in every tier's MR
  const std::vector<ops::SimdLevel> levels =
      ops::simd_level() == ops::SimdLevel::kPortable
          ? std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable}
          : std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable, ops::simd_level()};
  util::Rng rng(139);
  bool mid_channel = false, mid_image = false;
  for (const Case& tc : cases) {
    const ops::ConvGeometry& g = tc.g;
    const int out_hw = g.out_height() * g.out_width(), patch = g.patch_size();
    const int n = tc.batch * out_hw;
    const std::int64_t in_stride = static_cast<std::int64_t>(g.in_channels) * g.in_height *
                                   g.in_width;
    const std::int64_t out_stride = static_cast<std::int64_t>(out_channels) * out_hw;
    const Tensor images =
        Tensor::normal(Shape{tc.batch, g.in_channels, g.in_height, g.in_width}, rng);
    std::vector<std::vector<float>> columns;  // im2col of each image
    for (int b = 0; b < tc.batch; ++b) {
      columns.push_back(im2col_by_definition(images.data() + b * in_stride, g));
    }
    for (int p0 = 0; p0 < patch; p0 += ops::detail::kKC) {
      const int kc = std::min(ops::detail::kKC, patch - p0);
      mid_channel |= g.padding > 0 && p0 % (g.kernel * g.kernel) != 0;
      for (int j0 = 0; j0 < n; j0 += ops::detail::kNC) {
        const int nc = std::min(ops::detail::kNC, n - j0);
        mid_image |= g.padding > 0 && j0 % out_hw != 0;
        const int panels = (nc + ops::detail::kNR - 1) / ops::detail::kNR;
        std::vector<float> expected(static_cast<std::size_t>(panels) * kc * ops::detail::kNR);
        for (int jb = 0; jb < nc; jb += ops::detail::kNR) {
          for (int p = 0; p < kc; ++p) {
            for (int i = 0; i < ops::detail::kNR; ++i) {
              const int col = j0 + jb + i;
              expected[(static_cast<std::size_t>(jb / ops::detail::kNR) * kc + p) *
                           ops::detail::kNR + i] =
                  jb + i < nc ? columns[col / out_hw][static_cast<std::size_t>(p0 + p) * out_hw +
                                                      col % out_hw]
                              : 0.0f;
            }
          }
        }
        // Start from NaN so a lane the packer never writes shows up.
        // Read as the driver does: one source per block, one panel at
        // a time, each packed or (when allowed) read in place; the
        // kernel sees row p at base + rows[p], or base + 16p if packed.
        const ops::detail::ConvBlockSource source =
            ops::detail::conv_block_source(images.data(), g, p0, kc, j0, nc);
        for (const bool in_place : {false, true}) {
          std::vector<float> packed(expected.size(), std::nanf(""));
          std::vector<float> seen(expected.size());
          for (int jb = 0; jb < nc; jb += ops::detail::kNR) {
            float* dst = packed.data() + static_cast<std::size_t>(jb) * kc;
            const ops::detail::BPanel panel = ops::detail::conv_b_panel(
                source, j0 + jb, std::min(ops::detail::kNR, nc - jb), in_place, dst);
            for (int p = 0; p < kc; ++p) {
              const std::ptrdiff_t row =
                  panel.rows != nullptr ? panel.rows[p] : std::ptrdiff_t{p} * ops::detail::kNR;
              std::memcpy(seen.data() + static_cast<std::size_t>(jb) * kc +
                              static_cast<std::size_t>(p) * ops::detail::kNR,
                          panel.base + row, sizeof(float) * ops::detail::kNR);
            }
          }
          EXPECT_TRUE(same_bits(expected, seen))
              << tc.what << ": block p0=" << p0 << " j0=" << j0 << " in_place=" << in_place;
        }
      }
    }
    const Tensor weight = Tensor::normal(Shape{out_channels, patch}, rng);
    std::vector<float> image_columns(static_cast<std::size_t>(patch) * out_hw);
    for (const ops::SimdLevel level : levels) {
      SimdLevelScope scope(level);
      std::vector<float> expected(static_cast<std::size_t>(tc.batch) * out_stride);
      for (int b = 0; b < tc.batch; ++b) {
        ops::im2col(images.data() + b * in_stride, g, image_columns.data());
        ops::gemm(false, false, out_channels, out_hw, patch, weight.data(), patch,
                  image_columns.data(), out_hw, expected.data() + b * out_stride, out_hw);
      }
      std::vector<float> actual(expected.size(), 0.0f);
      ops::conv_gemm_nchw(out_channels, weight.data(), images.data(), tc.batch, g,
                          actual.data());
      EXPECT_TRUE(same_bits(expected, actual)) << ops::simd_level_name(level) << " " << tc.what;
    }
  }
  // The two block-boundary cases still cross a boundary at these block
  // sizes.
  EXPECT_TRUE(mid_channel);
  EXPECT_TRUE(mid_image);
}

TEST(ConvGemmParity, InPlacePanelsMatchDenseGemmBitForBit) {
  // A conv forward reads a B panel in place when its 16 columns are
  // consecutive in the block's source, and packs every other panel.
  // These convs mix both in one block: in-place panels next to gathered
  // (row- or image-straddling, stride 2), ragged and image-straddling
  // ones, padded (slab) and unpadded, one and two KC blocks. Each runs
  // with and without the fused epilogue and is compared bit for bit
  // with the same tier's dense gemm() on an explicit im2col followed by
  // the epilogue's separate passes.
  struct Case {
    const char* what;
    ops::ConvGeometry g;
    int batch;
  };
  const Case cases[] = {
      {"17x17 3x3 pad 1: in place, row straddles, ragged tail", {6, 17, 17, 3, 1, 1}, 3},
      {"16x16 3x3 pad 1, KC block starts mid-channel", {40, 16, 16, 3, 1, 1}, 2},
      {"18x18 3x3 unpadded: every panel in place", {5, 18, 18, 3, 1, 0}, 3},
      {"1x1 over 6x6: in place and image straddles, ragged", {8, 6, 6, 1, 1, 0}, 5},
      {"1x1 over 16x16, two KC blocks", {300, 16, 16, 1, 1, 0}, 2},
      {"20x20 3x3 pad 1: NC block starts mid-image", {3, 20, 20, 3, 1, 1}, 4},
      {"3x3 stride 2 pad 1: gathered", {4, 32, 32, 3, 2, 1}, 2},
      {"1x1 stride 2: gathered", {8, 32, 32, 1, 2, 0}, 2},
  };
  const int out_channels = 19;  // ragged in every tier's MR
  const std::vector<ops::SimdLevel> levels =
      ops::simd_level() == ops::SimdLevel::kPortable
          ? std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable}
          : std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable, ops::simd_level()};
  util::Rng rng(151);
  int mixed_blocks = 0, ragged_panels = 0;
  for (const Case& tc : cases) {
    const ops::ConvGeometry& g = tc.g;
    const int out_hw = g.out_height() * g.out_width(), patch = g.patch_size();
    const int n = tc.batch * out_hw;
    const std::int64_t in_stride = static_cast<std::int64_t>(g.in_channels) * g.in_height *
                                   g.in_width;
    const std::int64_t out_stride = static_cast<std::int64_t>(out_channels) * out_hw;
    // Which panels the driver reads in place, block by block.
    const Tensor images =
        Tensor::normal(Shape{tc.batch, g.in_channels, g.in_height, g.in_width}, rng);
    std::vector<float> scratch(static_cast<std::size_t>(ops::detail::kKC) * ops::detail::kNR);
    int in_place = 0, packed = 0;
    for (int p0 = 0; p0 < patch; p0 += ops::detail::kKC) {
      const int kc = std::min(ops::detail::kKC, patch - p0);
      for (int j0 = 0; j0 < n; j0 += ops::detail::kNC) {
        const int nc = std::min(ops::detail::kNC, n - j0);
        const ops::detail::ConvBlockSource source =
            ops::detail::conv_block_source(images.data(), g, p0, kc, j0, nc);
        int block_in_place = 0, block_packed = 0;
        for (int jb = 0; jb < nc; jb += ops::detail::kNR) {
          const int nr = std::min(ops::detail::kNR, nc - jb);
          const ops::detail::BPanel panel =
              ops::detail::conv_b_panel(source, j0 + jb, nr, true, scratch.data());
          ++(panel.rows != nullptr ? block_in_place : block_packed);
          ragged_panels += nr < ops::detail::kNR;
        }
        mixed_blocks += block_in_place > 0 && block_packed > 0;
        in_place += block_in_place;
        packed += block_packed;
      }
    }
    if (g.stride == 1) {
      EXPECT_GT(in_place, 0) << tc.what;
    } else {
      EXPECT_EQ(in_place, 0) << tc.what;
    }

    const Tensor weight = Tensor::normal(Shape{out_channels, patch}, rng);
    const Tensor bias = Tensor::normal(Shape{out_channels}, rng);
    const Tensor residual = Tensor::normal(Shape{tc.batch, out_channels, out_hw}, rng);
    const ops::ConvEpilogue epilogues[] = {{}, {bias.data(), residual.data(), true}};
    std::vector<float> image_columns(static_cast<std::size_t>(patch) * out_hw);
    for (const ops::SimdLevel level : levels) {
      SimdLevelScope scope(level);
      for (const ops::ConvEpilogue& e : epilogues) {
        std::vector<float> expected(static_cast<std::size_t>(tc.batch) * out_stride, 0.0f);
        for (int b = 0; b < tc.batch; ++b) {
          ops::im2col(images.data() + b * in_stride, g, image_columns.data());
          ops::gemm(false, false, out_channels, out_hw, patch, weight.data(), patch,
                    image_columns.data(), out_hw, expected.data() + b * out_stride, out_hw);
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
          float v = expected[i];
          if (e.bias != nullptr) v = v + e.bias[(i / out_hw) % out_channels];
          if (e.residual != nullptr) v = v + e.residual[i];
          if (e.relu) v = v > 0.0f ? v : 0.0f;
          expected[i] = v;
        }
        std::vector<float> actual(expected.size(), 0.0f);
        ops::conv_gemm_nchw(out_channels, weight.data(), images.data(), tc.batch, g,
                            actual.data(), e);
        EXPECT_TRUE(same_bits(expected, actual))
            << ops::simd_level_name(level) << " " << tc.what
            << (e.relu ? " with epilogue" : " without epilogue") << " (" << in_place
            << " panels in place, " << packed << " packed)";
      }
    }
  }
  EXPECT_GT(mixed_blocks, 0);
  EXPECT_GT(ragged_panels, 0);
}

// ----- Conv2d backward ------------------------------------------------

/// ops::col2im against reference_col2im, accumulating into a non-zero
/// image: the same (c, kh, kw, oh, ow) order gives the same bits.
TEST(ConvBackwardParity, Col2imMatchesReferenceBitForBit) {
  struct Input {
    int channels, height, width;
  };
  const Input inputs[] = {{3, 7, 7}, {32, 9, 9}, {2, 3, 2}, {8, 16, 16}};
  util::Rng rng(149);
  int checked = 0;
  for (const Input in : inputs) {
    for (const int kernel : {1, 3, 5}) {
      for (const int stride : {1, 2}) {
        for (const int padding : {0, 1, 2}) {
          if (in.height + 2 * padding < kernel || in.width + 2 * padding < kernel) continue;
          const ops::ConvGeometry g{in.channels, in.height, in.width, kernel, stride, padding};
          const Tensor columns =
              Tensor::normal(Shape{g.patch_size(), g.out_height() * g.out_width()}, rng);
          const Tensor image = Tensor::normal(Shape{in.channels, in.height, in.width}, rng);
          std::vector<float> expected = as_vector(image);
          reference_col2im(columns.data(), in.channels, in.height, in.width, kernel,
                                    stride, padding, expected.data());
          std::vector<float> actual = as_vector(image);
          ops::col2im(columns.data(), g, actual.data());
          EXPECT_TRUE(same_bits(expected, actual))
              << "cin=" << in.channels << " " << in.height << "x" << in.width << " k=" << kernel
              << " s=" << stride << " p=" << padding;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

/// The gradients of one Conv2d backward.
struct ConvGrads {
  std::vector<float> weight, bias, input;
};

/// The per-image backward Conv2d::backward must reproduce bit for bit:
/// per image, dW += gout x im2col^T (gemm() reading the columns
/// transposed), the bias sum, and grad columns = W^T x gout (gemm()
/// into zeroed columns) scattered by reference_col2im. The GEMMs are ops::gemm,
/// not reference_gemm: a memcmp needs the blocked GEMM's KC split and
/// its tier's FMA rounding, and GemmParity checks ops::gemm against
/// reference_gemm.
ConvGrads per_image_backward(const Tensor& input, const Tensor& grad_output,
                             const float* weight, int out_channels, const ops::ConvGeometry& g,
                             bool frozen) {
  const int batch = input.shape().batch();
  const int out_hw = g.out_height() * g.out_width(), patch = g.patch_size();
  const std::int64_t in_stride = static_cast<std::int64_t>(g.in_channels) * g.in_height *
                                 g.in_width;
  const std::int64_t out_stride = static_cast<std::int64_t>(out_channels) * out_hw;
  ConvGrads grads;
  grads.weight.assign(static_cast<std::size_t>(out_channels) * patch, 0.0f);
  grads.bias.assign(static_cast<std::size_t>(out_channels), 0.0f);
  grads.input.assign(static_cast<std::size_t>(input.numel()), 0.0f);
  std::vector<float> columns(static_cast<std::size_t>(patch) * out_hw);
  std::vector<float> grad_columns(columns.size());
  for (int n = 0; n < batch; ++n) {
    const float* gout = grad_output.data() + n * out_stride;
    if (!frozen) {
      ops::im2col(input.data() + n * in_stride, g, columns.data());
      ops::gemm(false, true, out_channels, patch, out_hw, gout, out_hw, columns.data(), out_hw,
                grads.weight.data(), patch);
      for (int oc = 0; oc < out_channels; ++oc) {
        float acc = 0.0f;
        for (int i = 0; i < out_hw; ++i) acc += gout[static_cast<std::ptrdiff_t>(oc) * out_hw + i];
        grads.bias[static_cast<std::size_t>(oc)] += acc;
      }
    }
    std::fill(grad_columns.begin(), grad_columns.end(), 0.0f);
    ops::gemm(true, false, patch, out_hw, out_channels, weight, patch, gout, out_hw,
              grad_columns.data(), out_hw);
    reference_col2im(grad_columns.data(), g.in_channels, g.in_height, g.in_width,
                              g.kernel, g.stride, g.padding, grads.input.data() + n * in_stride);
  }
  return grads;
}

TEST(ConvBackwardParity, MatchesPerImageIm2colGemmCol2imBitForBit) {
  // ConvGemmParity's geometries plus a 16x16 input with 256-column
  // images (ResNet-B's first stage). 19 output channels are ragged in
  // every tier's MR; the 17-image batches span several image groups of
  // the input-gradient GEMM.
  struct Input {
    int channels, height, width;
  };
  const Input inputs[] = {{3, 7, 7}, {32, 9, 9}, {2, 3, 2}, {8, 16, 16}};
  const int out_channels = 19;
  const std::vector<ops::SimdLevel> levels =
      ops::simd_level() == ops::SimdLevel::kPortable
          ? std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable}
          : std::vector<ops::SimdLevel>{ops::SimdLevel::kPortable, ops::simd_level()};
  util::Rng rng(151);
  int checked = 0;
  for (const Input in : inputs) {
    for (const int kernel : {1, 3, 5}) {
      for (const int stride : {1, 2}) {
        for (const int padding : {0, 1, 2}) {
          if (in.height + 2 * padding < kernel || in.width + 2 * padding < kernel) continue;
          const ops::ConvGeometry g{in.channels, in.height, in.width, kernel, stride, padding};
          nn::Conv2d conv(in.channels, out_channels, kernel, stride, padding, /*bias=*/true, rng);
          for (const int batch : {1, 3, 17}) {
            const Tensor x = Tensor::normal(Shape{batch, in.channels, in.height, in.width}, rng);
            const Tensor gout = Tensor::normal(conv.output_shape(x.shape()), rng);
            for (const bool frozen : {false, true}) {
              conv.set_frozen(frozen);
              for (const ops::SimdLevel level : levels) {
                SimdLevelScope scope(level);
                const std::string where =
                    std::string(ops::simd_level_name(level)) + " cin=" +
                    std::to_string(in.channels) + " " + std::to_string(in.height) + "x" +
                    std::to_string(in.width) + " k=" + std::to_string(kernel) +
                    " s=" + std::to_string(stride) + " p=" + std::to_string(padding) +
                    " batch=" + std::to_string(batch) + (frozen ? " frozen" : "");
                const ConvGrads expected = per_image_backward(
                    x, gout, conv.weight().value.data(), out_channels, g, frozen);
                conv.weight().zero_grad();
                conv.bias().zero_grad();
                (void)conv.forward(x, nn::Mode::kTrain);
                const Tensor grad_input = conv.backward(gout);
                EXPECT_TRUE(same_bits(expected.weight, as_vector(conv.weight().grad)))
                    << "weight grad, " << where;
                EXPECT_TRUE(same_bits(expected.bias, as_vector(conv.bias().grad)))
                    << "bias grad, " << where;
                EXPECT_TRUE(same_bits(expected.input, as_vector(grad_input)))
                    << "input grad, " << where;
                // The parameters-only backward accumulates the same bits.
                conv.weight().zero_grad();
                conv.bias().zero_grad();
                (void)conv.forward(x, nn::Mode::kTrain);
                conv.backward_params(gout);
                EXPECT_TRUE(same_bits(expected.weight, as_vector(conv.weight().grad)))
                    << "backward_params weight grad, " << where;
                EXPECT_TRUE(same_bits(expected.bias, as_vector(conv.bias().grad)))
                    << "backward_params bias grad, " << where;
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ConvBackwardParity, SequentialBackwardParamsMatchesBackward) {
  // A container whose first layer reads the image skips that layer's
  // input gradient and nothing else: every parameter gradient matches
  // a full backward bit for bit.
  util::Rng rng(157);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(3, 8, 3, 1, 1, /*bias=*/false, rng);
  net.emplace<nn::BatchNorm2d>(8, 0.1f, 1e-5f);
  net.emplace<nn::Conv2d>(8, 6, 3, 2, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{5, 3, 10, 10}, rng);
  const Tensor gout = Tensor::normal(net.output_shape(x.shape()), rng);
  const auto grads_after = [&](bool params_only) {
    for (nn::Parameter* p : net.parameters()) p->zero_grad();
    (void)net.forward(x, nn::Mode::kTrain);
    if (params_only) {
      net.backward_params(gout);
    } else {
      (void)net.backward(gout);
    }
    std::vector<float> all;
    for (nn::Parameter* p : net.parameters()) {
      all.insert(all.end(), p->grad.data(), p->grad.data() + p->grad.numel());
    }
    return all;
  };
  EXPECT_TRUE(same_bits(grads_after(false), grads_after(true)));
}

// ----- Whole-batch conv forward ---------------------------------------

/// The reference every batched conv forward must reproduce bit for bit:
/// one batch-1 forward per image, stacked back into [N, ...].
Tensor per_image_forwards(nn::Conv2d& conv, const Tensor& x) {
  const int batch = x.shape().batch();
  Tensor out(conv.output_shape(x.shape()));
  const std::int64_t per_image = out.numel() / batch;
  for (int n = 0; n < batch; ++n) {
    const Tensor one = conv.forward(x.slice_batch(n, 1), nn::Mode::kEval);
    std::copy_n(one.data(), per_image, out.data() + n * per_image);
  }
  return out;
}

class BatchedParity : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
// batch, stride, padding

TEST_P(BatchedParity, WholeBatchFloatIsBitIdenticalToPerImage) {
  const auto [batch, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(batch * 911 + stride * 31 + padding));
  nn::Conv2d conv(3, 8, 3, stride, padding, /*bias=*/true, rng);
  const int size = 9;  // odd, so strides hit ragged edges
  if (conv.output_shape(Shape{1, 3, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{batch, 3, size, size}, rng);
  const Tensor per_image = per_image_forwards(conv, x);
  const Tensor batched = conv.forward(x, nn::Mode::kEval);
  ASSERT_EQ(per_image.shape(), batched.shape());
  // Exactly equal, not merely close: each output element is
  // accumulated in the same fixed k-order whatever its batch column.
  EXPECT_TRUE(allclose(per_image, batched, 0.0f))
      << "b=" << batch << " s=" << stride << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(SeededShapes, BatchedParity,
                         ::testing::Combine(::testing::Values(1, 3, 32),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(0, 1, 2)));

TEST(BatchedParity, WholeBatchFloatIsBitIdenticalAcrossTileLayouts) {
  util::Rng rng(83);
  struct Case {
    int in_channels, size;
  };
  // 16x3x3 patch over 16x16: 256 columns per image, so NC blocks of
  // 1024 hold 4 images. 32x3x3 over 16x16: a 288-row patch, two KC
  // blocks. 3x3x3 over 32x32: 1024 columns, one image per NC block.
  for (const Case c : {Case{16, 16}, Case{32, 16}, Case{3, 32}}) {
    nn::Conv2d conv(c.in_channels, 32, 3, 1, 1, /*bias=*/true, rng);
    const Tensor x = Tensor::normal(Shape{8, c.in_channels, c.size, c.size}, rng);
    const Tensor per_image = per_image_forwards(conv, x);
    const Tensor batched = conv.forward(x, nn::Mode::kEval);
    EXPECT_TRUE(allclose(per_image, batched, 0.0f))
        << "cin=" << c.in_channels << " size=" << c.size;
  }
}

TEST(BatchedParity, Int8IsBitIdenticalToPerImageForwards) {
  util::Rng rng(101);
  nn::Conv2d conv(8, 16, 3, 1, 1, /*bias=*/true, rng);
  Tensor x = Tensor::normal(Shape{5, 8, 12, 12}, rng);
  // Give every image its own range, so a scale shared across the batch
  // would change the quieter images' codes.
  const std::int64_t per_image = x.numel() / 5;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] *= 0.25f * static_cast<float>(1 + i / per_image);
  }
  ops::QuantizedScope quantized(true);
  const Tensor per_image_out = per_image_forwards(conv, x);
  const Tensor batched = conv.forward(x, nn::Mode::kEval);
  EXPECT_TRUE(allclose(per_image_out, batched, 0.0f));
}

TEST(BatchNormFolding, FoldedSequentialMatchesUnfusedPair) {
  util::Rng rng(23);
  nn::Sequential fused("fused");
  fused.emplace<nn::Conv2d>(3, 5, 3, 1, 1, /*bias=*/true, rng, "c");
  fused.emplace<nn::BatchNorm2d>(5);
  // Give the BN non-trivial statistics: a few train-mode batches.
  for (int i = 0; i < 3; ++i) {
    fused.forward(Tensor::normal(Shape{4, 3, 7, 7}, rng), nn::Mode::kTrain);
  }
  auto& conv = dynamic_cast<nn::Conv2d&>(fused.layer(0));
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(fused.layer(1));
  const Tensor x = Tensor::normal(Shape{2, 3, 7, 7}, rng);
  const Tensor folded = fused.forward(x, nn::Mode::kEval);
  // Unfused reference: conv then BN, each standalone in eval mode.
  const Tensor unfused = bn.forward(conv.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  EXPECT_TRUE(allclose(folded, unfused, 1e-5f));
}

TEST(BatchNormFolding, FoldedDepthwiseMatchesUnfusedPair) {
  util::Rng rng(29);
  nn::Sequential fused("fused");
  fused.emplace<nn::DepthwiseConv2d>(4, 3, 2, 1, rng, "dw");
  fused.emplace<nn::BatchNorm2d>(4);
  for (int i = 0; i < 3; ++i) {
    fused.forward(Tensor::normal(Shape{4, 4, 9, 9}, rng), nn::Mode::kTrain);
  }
  auto& dw = dynamic_cast<nn::DepthwiseConv2d&>(fused.layer(0));
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(fused.layer(1));
  const Tensor x = Tensor::normal(Shape{2, 4, 9, 9}, rng);
  const Tensor folded = fused.forward(x, nn::Mode::kEval);
  const Tensor unfused = bn.forward(dw.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  EXPECT_TRUE(allclose(folded, unfused, 1e-5f));
}

// A frozen block's train forward is the unfused chain with every BN
// pinned to its running statistics: exactly what the eval forward folds.
void expect_folded_block_matches_unfused(nn::Layer& block, const Shape& batch,
                                         util::Rng& rng) {
  // Give the BNs non-trivial statistics: a few train-mode batches.
  for (int i = 0; i < 3; ++i) block.forward(Tensor::normal(batch, rng), nn::Mode::kTrain);
  block.set_frozen(true);
  const Tensor x = Tensor::normal(batch, rng);
  const Tensor folded = block.forward(x, nn::Mode::kEval);
  const Tensor unfused = block.forward(x, nn::Mode::kTrain);
  EXPECT_TRUE(allclose(folded, unfused, 1e-5f)) << block.name();
}

TEST(BatchNormFolding, FoldedResidualBlocksMatchUnfused) {
  util::Rng rng(37);
  nn::ResidualBlock identity(4, 4, 1, rng, "identity");
  nn::ResidualBlock projection(4, 8, 2, rng, "projection");
  ASSERT_TRUE(projection.has_projection());
  expect_folded_block_matches_unfused(identity, Shape{4, 4, 8, 8}, rng);
  expect_folded_block_matches_unfused(projection, Shape{4, 4, 8, 8}, rng);
}

TEST(BatchNormFolding, FoldedInvertedResidualsMatchUnfused) {
  util::Rng rng(41);
  nn::InvertedResidual skip(4, 4, 1, 1, rng, "skip");
  nn::InvertedResidual expand(4, 8, 2, 4, rng, "expand");
  ASSERT_TRUE(skip.has_skip());
  expect_folded_block_matches_unfused(skip, Shape{4, 4, 8, 8}, rng);
  expect_folded_block_matches_unfused(expand, Shape{4, 4, 8, 8}, rng);
}

// ----- Fused conv epilogue (ops::ConvEpilogue) ------------------------

/// BN folded into `weight` and the optional conv bias, by hand, with
/// the float operations Sequential::forward's fold uses: {weight,
/// bias}.
std::pair<std::vector<float>, std::vector<float>> fold_by_hand(const nn::BatchNorm2d& bn,
                                                               const Tensor& weight,
                                                               const float* conv_bias) {
  const int channels = bn.channels();
  std::vector<float> scale(static_cast<std::size_t>(channels));
  std::vector<float> shift(static_cast<std::size_t>(channels));
  bn.fold_scale_shift(scale.data(), shift.data());
  if (conv_bias != nullptr) {
    for (int c = 0; c < channels; ++c) shift[c] += scale[c] * conv_bias[c];
  }
  const std::int64_t per_channel = weight.numel() / channels;
  std::vector<float> folded(static_cast<std::size_t>(weight.numel()));
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    folded[static_cast<std::size_t>(i)] = scale[i / per_channel] * weight[i];
  }
  return {folded, shift};
}

/// The eval forward of `seq` as separate passes built from public
/// calls: a Conv2d + BN pair is Conv2d::forward_with on hand-folded
/// weights and no bias, then a per-channel bias loop (with
/// `bias_in_conv`, forward_with takes the folded bias itself, as the
/// int8 conv adds it inside its requantization); a depthwise pair is
/// DepthwiseConv2d::forward_with on hand-folded weights; any other
/// layer (ReLU included) is its own eval forward. Then `residual` by
/// Tensor::add_ and, with `relu`, ReLU::forward.
Tensor unfused_eval(nn::Sequential& seq, const Tensor& x, const Tensor* residual, bool relu,
                    bool bias_in_conv = false) {
  Tensor y = x;
  for (int i = 0; i < seq.size(); ++i) {
    const auto* bn =
        i + 1 < seq.size() ? dynamic_cast<const nn::BatchNorm2d*>(&seq.layer(i + 1)) : nullptr;
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&seq.layer(i)); conv && bn) {
      const auto [weight, bias] = fold_by_hand(
          *bn, conv->weight().value, conv->has_bias() ? conv->bias().value.data() : nullptr);
      if (bias_in_conv) {
        y = conv->forward_with(y, weight.data(), bias.data());
      } else {
        y = conv->forward_with(y, weight.data(), nullptr);
        const std::int64_t plane = y.numel() / (y.shape().batch() * bn->channels());
        for (std::int64_t e = 0; e < y.numel(); ++e) y[e] += bias[(e / plane) % bn->channels()];
      }
      ++i;
    } else if (const auto* dw = dynamic_cast<const nn::DepthwiseConv2d*>(&seq.layer(i));
               dw && bn) {
      const auto [weight, bias] = fold_by_hand(*bn, dw->weight().value, nullptr);
      y = dw->forward_with(y, weight.data(), bias.data());
      ++i;
    } else {
      y = seq.layer(i).forward(y, nn::Mode::kEval);
    }
  }
  if (residual != nullptr) y.add_(*residual);
  return relu ? nn::ReLU().forward(y, nn::Mode::kEval) : y;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(as_vector(a), as_vector(b));
}

/// Every kernel tier the host runs, the portable one first.
std::vector<ops::SimdLevel> host_levels() {
  if (ops::simd_level() == ops::SimdLevel::kPortable) return {ops::SimdLevel::kPortable};
  return {ops::SimdLevel::kPortable, ops::simd_level()};
}

/// The input maps of the fused-epilogue cases: out_hw 36, 9 and 5 are
/// no multiple of 16, so 16-column tiles straddle images and take the
/// bounce path, and batches 1, 3 and 17 put those straddles at many
/// image offsets.
struct EpilogueMap {
  int height, width;
};
constexpr EpilogueMap kEpilogueMaps[] = {{6, 6}, {3, 3}, {5, 1}};
constexpr int kEpilogueBatches[] = {1, 3, 17};

/// Gives every BatchNorm2d in `layer` non-trivial running statistics
/// with a few train-mode batches of [4, channels, 6, 6].
void train_bn_stats(nn::Layer& layer, int channels, util::Rng& rng) {
  for (int i = 0; i < 3; ++i) {
    layer.forward(Tensor::normal(Shape{4, channels, 6, 6}, rng), nn::Mode::kTrain);
  }
}

/// Runs `check(x, what)` on every epilogue map x batch x kernel tier.
template <typename Fn>
void for_each_epilogue_input(int channels, util::Rng& rng, Fn check) {
  for (const EpilogueMap map : kEpilogueMaps) {
    for (const int batch : kEpilogueBatches) {
      const Tensor x = Tensor::normal(Shape{batch, channels, map.height, map.width}, rng);
      for (const ops::SimdLevel level : host_levels()) {
        SimdLevelScope scope(level);
        check(x, std::string(ops::simd_level_name(level)) + " " + x.shape().to_string());
      }
    }
  }
}

TEST(FusedEpilogueParity, StemConvBnReluMatchesSeparatePasses) {
  util::Rng rng(211);
  nn::Sequential stem("stem");
  stem.emplace<nn::Conv2d>(3, 16, 3, 1, 1, /*bias=*/true, rng, "stem.conv");
  stem.emplace<nn::BatchNorm2d>(16);
  stem.emplace<nn::ReLU>();
  train_bn_stats(stem, 3, rng);
  for_each_epilogue_input(3, rng, [&](const Tensor& x, const std::string& what) {
    EXPECT_TRUE(same_bits(unfused_eval(stem, x, nullptr, false), stem.forward(x, nn::Mode::kEval)))
        << what;
  });
}

TEST(FusedEpilogueParity, IdentityResidualBlockMatchesSeparatePasses) {
  // 64 channels: conv2's k = 64 x 3 x 3 = 576 spans three k blocks, so
  // an epilogue applied before the last one shows.
  ASSERT_GT(64 * 9, 2 * ops::detail::kKC);
  util::Rng rng(223);
  nn::ResidualBlock block(64, 64, 1, rng, "identity");
  ASSERT_FALSE(block.has_projection());
  train_bn_stats(block, 64, rng);
  for_each_epilogue_input(64, rng, [&](const Tensor& x, const std::string& what) {
    EXPECT_TRUE(same_bits(unfused_eval(block.main_path(), x, &x, true),
                          block.forward(x, nn::Mode::kEval)))
        << what;
  });
}

TEST(FusedEpilogueParity, ProjectionResidualBlockMatchesSeparatePasses) {
  util::Rng rng(227);
  for (const int stride : {1, 2}) {
    nn::ResidualBlock block(8, 24, stride, rng, "projection");
    ASSERT_TRUE(block.has_projection());
    train_bn_stats(block, 8, rng);
    for_each_epilogue_input(8, rng, [&](const Tensor& x, const std::string& what) {
      const Tensor shortcut = unfused_eval(block.shortcut(), x, nullptr, false);
      EXPECT_TRUE(same_bits(unfused_eval(block.main_path(), x, &shortcut, true),
                            block.forward(x, nn::Mode::kEval)))
          << "stride " << stride << " " << what;
    });
  }
}

TEST(FusedEpilogueParity, InvertedResidualSkipMatchesSeparatePasses) {
  // 72 channels, expansion 4: the project conv's k = 288 spans two k
  // blocks.
  ASSERT_GT(72 * 4, ops::detail::kKC);
  util::Rng rng(229);
  nn::InvertedResidual block(72, 72, 1, 4, rng, "skip");
  ASSERT_TRUE(block.has_skip());
  train_bn_stats(block, 72, rng);
  for_each_epilogue_input(72, rng, [&](const Tensor& x, const std::string& what) {
    EXPECT_TRUE(same_bits(unfused_eval(block.main_path(), x, &x, false),
                          block.forward(x, nn::Mode::kEval)))
        << what;
  });
}

// The int8 conv adds a fused residual and applies a fused ReLU in a
// loop after requantization; that loop must match the separate passes
// bit for bit, for an identity and a projection shortcut.
TEST(QuantizedParity, ResidualBlockEpilogueMatchesSeparateInt8Passes) {
  util::Rng rng(239);
  nn::ResidualBlock identity(16, 16, 1, rng, "identity");
  ASSERT_FALSE(identity.has_projection());
  train_bn_stats(identity, 16, rng);
  nn::ResidualBlock projection(8, 24, 2, rng, "projection");
  ASSERT_TRUE(projection.has_projection());
  train_bn_stats(projection, 8, rng);
  ops::QuantizedScope quantized(true);
  for_each_epilogue_input(16, rng, [&](const Tensor& x, const std::string& what) {
    EXPECT_TRUE(same_bits(unfused_eval(identity.main_path(), x, &x, true, true),
                          identity.forward(x, nn::Mode::kEval)))
        << "identity " << what;
  });
  for_each_epilogue_input(8, rng, [&](const Tensor& x, const std::string& what) {
    const Tensor shortcut = unfused_eval(projection.shortcut(), x, nullptr, false, true);
    EXPECT_TRUE(same_bits(unfused_eval(projection.main_path(), x, &shortcut, true, true),
                          projection.forward(x, nn::Mode::kEval)))
        << "projection " << what;
  });
}

TEST(FusedEpilogueParity, RejectsAResidualItCannotFuse) {
  util::Rng rng(233);
  nn::Conv2d conv(2, 4, 3, 1, 1, /*bias=*/false, rng);
  const Tensor x = Tensor::normal(Shape{2, 2, 5, 5}, rng);
  const Tensor wrong = Tensor::normal(Shape{2, 4, 5, 4}, rng);
  EXPECT_THROW(conv.forward_with(x, conv.weight().value.data(), nullptr, &wrong),
               std::invalid_argument);
  // A container that does not end in a Conv2d + BatchNorm2d pair has no
  // epilogue to take the residual or the ReLU into.
  nn::Sequential ends_in_relu("ends_in_relu");
  ends_in_relu.emplace<nn::Conv2d>(2, 4, 3, 1, 1, /*bias=*/false, rng);
  ends_in_relu.emplace<nn::BatchNorm2d>(4);
  ends_in_relu.emplace<nn::ReLU>();
  const Tensor residual = Tensor::normal(Shape{2, 4, 5, 5}, rng);
  EXPECT_THROW(ends_in_relu.forward_eval(x, &residual, false), std::logic_error);
  EXPECT_THROW(ends_in_relu.forward_eval(x, nullptr, true), std::logic_error);
}

TEST(CacheFreeEval, EvalForwardAllocatesNoActivationCaches) {
  util::Rng rng(31);
  core::MEANet net = tiny_meanet_b(rng, 2);
  ASSERT_EQ(net.activation_cache_elems(), 0);
  const Tensor images = Tensor::normal(Shape{3, 2, 8, 8}, rng);
  const core::MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  (void)net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_EQ(net.activation_cache_elems(), 0);  // the serving invariant
  // Train-mode forwards cache as before.
  (void)net.forward_main(images, nn::Mode::kTrain);
  EXPECT_GT(net.activation_cache_elems(), 0);
}

TEST(SharedNetServing, FourWorkersOnOneNetAreDeterministic) {
  util::Rng rng(37);
  core::MEANet net = tiny_meanet_b(rng, 2);
  constexpr int kBatches = 8;
  constexpr int kWorkers = 4;
  constexpr int kRounds = 6;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  util::Rng data_rng(38);
  for (int i = 0; i < kBatches; ++i) {
    inputs.push_back(Tensor::normal(Shape{2, 2, 8, 8}, data_rng));
    expected.push_back(net.forward_main(inputs.back(), nn::Mode::kEval).logits);
  }
  // Four threads hammer the SAME net concurrently; every result must be
  // bit-identical to the single-threaded reference. Run under TSAN to
  // verify the const-safe eval contract mechanically.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBatches; ++i) {
          const int pick = (i + w + round) % kBatches;
          const Tensor logits = net.forward_main(inputs[static_cast<std::size_t>(pick)],
                                                 nn::Mode::kEval)
                                    .logits;
          if (!allclose(logits, expected[static_cast<std::size_t>(pick)], 0.0f)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(net.activation_cache_elems(), 0);
}

}  // namespace
}  // namespace meanet
