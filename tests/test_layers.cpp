#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/maxpool.h"
#include "nn/pooling.h"
#include "util/rng.h"

namespace meanet::nn {
namespace {

TEST(Conv2d, OutputShape) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1, true, rng);
  EXPECT_EQ(conv.output_shape(Shape{2, 3, 16, 16}), Shape({2, 8, 8, 8}));
}

TEST(Conv2d, RejectsWrongChannelCount) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, true, rng);
  EXPECT_THROW(conv.output_shape(Shape{1, 4, 8, 8}), std::invalid_argument);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  util::Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, false, rng);
  conv.weight().value.fill(1.0f);
  const Tensor x = Tensor::normal(Shape{1, 1, 4, 4}, rng);
  const Tensor y = conv.forward(x, Mode::kEval);
  EXPECT_TRUE(allclose(x, y, 1e-6f));
}

TEST(Conv2d, KnownAveragingKernel) {
  util::Rng rng(1);
  Conv2d conv(1, 1, 2, 1, 0, false, rng);
  conv.weight().value.fill(0.25f);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor y = conv.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Conv2d, BiasIsAdded) {
  util::Rng rng(1);
  Conv2d conv(1, 2, 1, 1, 0, true, rng);
  conv.weight().value.fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  const Tensor y = conv.forward(Tensor::zeros(Shape{1, 1, 2, 2}), Mode::kEval);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), -2.0f);
}

TEST(Conv2d, StatsCountsMacsAndParams) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, false, rng);
  const LayerStats s = conv.stats(Shape{1, 3, 16, 16});
  EXPECT_EQ(s.params, 8 * 3 * 3 * 3);
  EXPECT_EQ(s.macs, static_cast<std::int64_t>(8) * 27 * 16 * 16);
}

TEST(DepthwiseConv2d, ChannelsDoNotMix) {
  util::Rng rng(2);
  DepthwiseConv2d dw(2, 3, 1, 1, rng);
  dw.weight().value.fill(0.0f);
  // Channel 0 filter = identity tap (center); channel 1 filter all zero.
  dw.weight().value[4] = 1.0f;
  Tensor x = Tensor::normal(Shape{1, 2, 4, 4}, rng);
  const Tensor y = dw.forward(x, Mode::kEval);
  for (int h = 0; h < 4; ++h) {
    for (int w = 0; w < 4; ++w) {
      EXPECT_FLOAT_EQ(y.at(0, 0, h, w), x.at(0, 0, h, w));
      EXPECT_FLOAT_EQ(y.at(0, 1, h, w), 0.0f);
    }
  }
}

TEST(DepthwiseConv2d, StrideOutputShape) {
  util::Rng rng(2);
  DepthwiseConv2d dw(4, 3, 2, 1, rng);
  EXPECT_EQ(dw.output_shape(Shape{1, 4, 8, 8}), Shape({1, 4, 4, 4}));
}

TEST(Linear, ComputesAffineMap) {
  util::Rng rng(3);
  Linear fc(2, 2, rng);
  fc.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  fc.bias().value = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  Tensor x(Shape{1, 2}, std::vector<float>{1, 1});
  const Tensor y = fc.forward(x, Mode::kEval);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, RejectsWrongInputWidth) {
  util::Rng rng(3);
  Linear fc(4, 2, rng);
  EXPECT_THROW(fc.forward(Tensor(Shape{1, 3}), Mode::kEval), std::invalid_argument);
}

TEST(BatchNorm2d, TrainModeNormalizesBatch) {
  util::Rng rng(4);
  BatchNorm2d bn(2);
  const Tensor x = Tensor::normal(Shape{8, 2, 4, 4}, rng, 3.0f, 2.0f);
  const Tensor y = bn.forward(x, Mode::kTrain);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (int n = 0; n < 8; ++n) {
      for (int h = 0; h < 4; ++h) {
        for (int w = 0; w < 4; ++w) mean += y.at(n, c, h, w);
      }
    }
    mean /= 8 * 16;
    for (int n = 0; n < 8; ++n) {
      for (int h = 0; h < 4; ++h) {
        for (int w = 0; w < 4; ++w) var += std::pow(y.at(n, c, h, w) - mean, 2);
      }
    }
    var /= 8 * 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConverge) {
  util::Rng rng(4);
  BatchNorm2d bn(1, /*momentum=*/0.5f);
  for (int i = 0; i < 20; ++i) {
    const Tensor x = Tensor::normal(Shape{16, 1, 2, 2}, rng, 5.0f, 1.0f);
    bn.forward(x, Mode::kTrain);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f, 0.3f);
}

TEST(BatchNorm2d, EvalModeUsesRunningStats) {
  BatchNorm2d bn(1);
  // Fresh layer: running mean 0, var 1 -> eval output equals input
  // (up to eps).
  Tensor x(Shape{1, 1, 1, 2}, std::vector<float>{1.0f, -1.0f});
  const Tensor y = bn.forward(x, Mode::kEval);
  EXPECT_NEAR(y[0], 1.0f, 1e-4f);
  EXPECT_NEAR(y[1], -1.0f, 1e-4f);
}

TEST(BatchNorm2d, FrozenIgnoresTrainMode) {
  util::Rng rng(4);
  BatchNorm2d bn(1);
  bn.set_frozen(true);
  const float mean_before = bn.running_mean()[0];
  const Tensor x = Tensor::normal(Shape{8, 1, 2, 2}, rng, 10.0f, 1.0f);
  const Tensor y = bn.forward(x, Mode::kTrain);
  // Running stats untouched and output computed with them (mean 0,var 1).
  EXPECT_EQ(bn.running_mean()[0], mean_before);
  EXPECT_NEAR(y[0], x[0], 1e-3f);
}

TEST(BatchNorm2d, TrainStatsAreOneChannelDoubleSums) {
  // The train forward sums several channels side by side; each
  // channel's mean and variance must still be its own double sum over
  // (n, h, w) in order, bit for bit. 11 channels: one full group of
  // eight and a partial one.
  util::Rng rng(6);
  const int batch = 3, channels = 11, hw = 5 * 7;
  BatchNorm2d bn(channels, /*momentum=*/1.0f);
  const Tensor x = Tensor::normal(Shape{batch, channels, 5, 7}, rng, 0.5f, 3.0f);
  (void)bn.forward(x, Mode::kTrain);
  for (int c = 0; c < channels; ++c) {
    double sum = 0.0;
    for (int n = 0; n < batch; ++n) {
      for (int i = 0; i < hw; ++i) sum += x[(n * channels + c) * hw + i];
    }
    const float mean = static_cast<float>(sum / (batch * hw));
    double squares = 0.0;
    for (int n = 0; n < batch; ++n) {
      for (int i = 0; i < hw; ++i) {
        const double d = x[(n * channels + c) * hw + i] - mean;
        squares += d * d;
      }
    }
    // momentum 1: the running statistics are this batch's.
    EXPECT_EQ(bn.running_mean()[c], mean) << "channel " << c;
    EXPECT_EQ(bn.running_var()[c], static_cast<float>(squares / (batch * hw))) << "channel " << c;
  }
}

TEST(BatchNorm2d, TrainForwardRejectsAnEmptyBatch) {
  // An empty batch has no statistics (0/0); a train forward over it
  // used to write NaN into the running statistics, so every later eval
  // forward returned NaN. It must throw and leave the layer as it was.
  util::Rng rng(5);
  BatchNorm2d bn(4);
  const Tensor x = Tensor::normal(Shape{6, 4, 3, 3}, rng, 1.0f, 2.0f);
  (void)bn.forward(x, Mode::kTrain);
  const Tensor mean = bn.running_mean(), var = bn.running_var();
  const Tensor before = bn.forward(x, Mode::kEval);
  for (const Shape& empty : {Shape{0, 4, 3, 3}, Shape{2, 4, 0, 3}}) {
    EXPECT_THROW(bn.forward(Tensor(empty), Mode::kTrain), std::invalid_argument)
        << empty.to_string();
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(bn.running_mean()[c], mean[c]);
    EXPECT_EQ(bn.running_var()[c], var[c]);
  }
  const Tensor after = bn.forward(x, Mode::kEval);
  for (std::int64_t i = 0; i < before.numel(); ++i) ASSERT_EQ(after[i], before[i]);
  // The cache of the last good train forward still backs a backward.
  EXPECT_EQ(bn.backward(Tensor::ones(x.shape())).shape(), x.shape());
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x(Shape{1, 4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x, Mode::kEval);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  Tensor x(Shape{1, 3}, std::vector<float>{-1.0f, 1.0f, 0.0f});
  relu.forward(x, Mode::kTrain);
  Tensor g(Shape{1, 3}, std::vector<float>{5.0f, 5.0f, 5.0f});
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

TEST(ReLU6, ClipsAtSix) {
  ReLU6 relu6;
  Tensor x(Shape{1, 3}, std::vector<float>{-1.0f, 3.0f, 9.0f});
  // Train mode: the backward below needs the cached input (eval-mode
  // forwards are cache-free and do not support backward).
  const Tensor y = relu6.forward(x, Mode::kTrain);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 6.0f);
  Tensor g(Shape{1, 3}, std::vector<float>{1.0f, 1.0f, 1.0f});
  const Tensor dx = relu6.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);  // saturated region
}

TEST(GlobalAvgPool, AveragesSpatially) {
  GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = pool.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
}

TEST(GlobalAvgPool, BackwardSpreadsUniformly) {
  GlobalAvgPool pool;
  pool.forward(Tensor::zeros(Shape{1, 1, 2, 2}), Mode::kTrain);
  Tensor g(Shape{1, 1}, std::vector<float>{4.0f});
  const Tensor dx = pool.backward(g);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

TEST(AvgPool2d, NonOverlappingWindows) {
  AvgPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 4}, std::vector<float>{1, 3, 5, 7, 1, 3, 5, 7});
  const Tensor y = pool.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);
}

TEST(AvgPool2d, RejectsIndivisibleInput) {
  AvgPool2d pool(2);
  EXPECT_THROW(pool.output_shape(Shape{1, 1, 3, 4}), std::invalid_argument);
}

TEST(Flatten, RoundTrips) {
  Flatten flatten;
  util::Rng rng(6);
  const Tensor x = Tensor::normal(Shape{2, 3, 2, 2}, rng);
  const Tensor y = flatten.forward(x, Mode::kTrain);
  EXPECT_EQ(y.shape(), Shape({2, 12}));
  const Tensor back = flatten.backward(y);
  EXPECT_TRUE(allclose(x, back, 0.0f));
}

TEST(Layer, FreezeMarksParamsNotTrainable) {
  util::Rng rng(7);
  Conv2d conv(1, 2, 3, 1, 1, true, rng);
  conv.set_frozen(true);
  for (const Parameter* p : conv.parameters()) EXPECT_FALSE(p->trainable);
  conv.set_frozen(false);
  for (const Parameter* p : conv.parameters()) EXPECT_TRUE(p->trainable);
}

TEST(Layer, FrozenConvSkipsWeightGrad) {
  util::Rng rng(8);
  Conv2d conv(1, 1, 3, 1, 1, false, rng);
  conv.set_frozen(true);
  const Tensor x = Tensor::normal(Shape{1, 1, 4, 4}, rng);
  const Tensor y = conv.forward(x, Mode::kTrain);
  conv.backward(Tensor::ones(y.shape()));
  for (std::int64_t i = 0; i < conv.weight().grad.numel(); ++i) {
    EXPECT_EQ(conv.weight().grad[i], 0.0f);
  }
}

TEST(Layer, BackwardBeforeForwardThrows) {
  util::Rng rng(9);
  Conv2d conv(1, 1, 3, 1, 1, false, rng);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 1, 4, 4})), std::logic_error);
  Linear fc(2, 2, rng);
  EXPECT_THROW(fc.backward(Tensor(Shape{1, 2})), std::logic_error);
}

/// Train-forwards `x` through `layer`, then checks that backward
/// rejects a gradient with more rows, fewer rows or a wider last axis
/// than the forward's output, and accepts the output's own shape.
void expect_backward_checks_grad_shape(Layer& layer, const Tensor& x) {
  const Tensor y = layer.forward(x, Mode::kTrain);
  std::vector<std::vector<int>> wrong(3, y.shape().dims());
  wrong[0][0] *= 8;
  wrong[1][0] = 1;
  wrong[2].back() += 1;
  for (const std::vector<int>& dims : wrong) {
    EXPECT_THROW(layer.backward(Tensor::ones(Shape(dims))), std::invalid_argument)
        << layer.name() << " " << Shape(dims).to_string();
  }
  EXPECT_NO_THROW(layer.backward(Tensor::ones(y.shape()))) << layer.name();
}

TEST(Layer, BackwardRejectsAGradientOfTheWrongShape) {
  util::Rng rng(10);
  const Tensor images = Tensor::normal(Shape{2, 4, 4, 4}, rng);
  ReLU relu;
  expect_backward_checks_grad_shape(relu, Tensor::normal(Shape{2, 4}, rng));
  ReLU6 relu6;
  expect_backward_checks_grad_shape(relu6, images);
  Linear fc(4, 3, rng);
  expect_backward_checks_grad_shape(fc, Tensor::normal(Shape{8, 4}, rng));
  Conv2d conv(4, 3, 3, 1, 1, true, rng);
  expect_backward_checks_grad_shape(conv, images);
  DepthwiseConv2d depthwise(4, 3, 2, 1, rng);
  expect_backward_checks_grad_shape(depthwise, images);
  BatchNorm2d bn(4);
  expect_backward_checks_grad_shape(bn, images);
  MaxPool2d maxpool(2);
  expect_backward_checks_grad_shape(maxpool, images);
  AvgPool2d avgpool(2);
  expect_backward_checks_grad_shape(avgpool, images);
  GlobalAvgPool gap;
  expect_backward_checks_grad_shape(gap, images);
  Dropout dropout(0.5f, rng);
  expect_backward_checks_grad_shape(dropout, images);
}

TEST(Layer, FirstLayerBackwardRejectsAGradientOfTheWrongShape) {
  util::Rng rng(11);
  Conv2d conv(2, 3, 3, 1, 1, false, rng);
  const Tensor y = conv.forward(Tensor::normal(Shape{2, 2, 4, 4}, rng), Mode::kTrain);
  EXPECT_THROW(conv.backward_params(Tensor::ones(Shape{16, 3, 4, 4})), std::invalid_argument);
  conv.set_frozen(true);  // the frozen early return checks first
  EXPECT_THROW(conv.backward_params(Tensor::ones(Shape{1, 3, 4, 4})), std::invalid_argument);
  EXPECT_NO_THROW(conv.backward_params(Tensor::ones(y.shape())));
}

}  // namespace
}  // namespace meanet::nn
