// Google-benchmark microbenchmarks of the numeric substrate: GEMM,
// convolution forward/backward, batch-norm, residual blocks and the
// full edge inference path. These bound the simulated-device throughput
// constants used by the cost models.
#include <benchmark/benchmark.h>

#include "common.h"
#include "core/edge_inference.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/residual_block.h"
#include "tensor/ops.h"

using namespace meanet;

namespace {

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(false, false, n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2d conv(16, 32, 3, 1, 1, false, rng);
  const Tensor x = Tensor::normal(Shape{8, 16, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, nn::Mode::kEval);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(3);
  nn::Conv2d conv(16, 32, 3, 1, 1, false, rng);
  const Tensor x = Tensor::normal(Shape{8, 16, 16, 16}, rng);
  const Tensor y = conv.forward(x, nn::Mode::kTrain);
  const Tensor g = Tensor::normal(y.shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward);

void BM_BatchNormForward(benchmark::State& state) {
  util::Rng rng(4);
  nn::BatchNorm2d bn(32);
  const Tensor x = Tensor::normal(Shape{16, 32, 8, 8}, rng);
  for (auto _ : state) {
    Tensor y = bn.forward(x, nn::Mode::kTrain);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormForward);

void BM_ResidualBlockForward(benchmark::State& state) {
  util::Rng rng(5);
  nn::ResidualBlock block(16, 16, 1, rng);
  const Tensor x = Tensor::normal(Shape{8, 16, 8, 8}, rng);
  for (auto _ : state) {
    Tensor y = block.forward(x, nn::Mode::kEval);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ResidualBlockForward);

void BM_EdgeInference(benchmark::State& state) {
  util::Rng rng(6);
  core::MEANet net = bench::build_edge_model(bench::EdgeModel::kResNetB,
                                             bench::DatasetKind::kCifarLike, 10,
                                             core::FusionMode::kSum, rng);
  const data::ClassDict dict(20, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  core::EdgeInferenceEngine engine(net, dict, core::PolicyConfig{});
  const Tensor images = Tensor::normal(Shape{16, 3, 16, 16}, rng);
  for (auto _ : state) {
    auto decisions = engine.infer(images);
    benchmark::DoNotOptimize(decisions.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EdgeInference);

void BM_SoftmaxEntropy(benchmark::State& state) {
  util::Rng rng(7);
  const Tensor logits = Tensor::normal(Shape{64, 100}, rng);
  for (auto _ : state) {
    const Tensor p = ops::softmax(logits);
    auto h = ops::row_entropy(p);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_SoftmaxEntropy);

}  // namespace

BENCHMARK_MAIN();
