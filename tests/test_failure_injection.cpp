// Failure-injection tests: every module must reject malformed inputs
// with a typed exception instead of corrupting state or crashing.
#include <gtest/gtest.h>

#include "core/builders.h"
#include "core/meanet.h"
#include "data/synthetic.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "sim/device_model.h"
#include "sim/system.h"
#include "tensor/ops.h"
#include "tiny_models.h"

namespace meanet {
namespace {

TEST(FailureInjection, ConvRejectsInvalidGeometry) {
  util::Rng rng(1);
  EXPECT_THROW(nn::Conv2d(0, 4, 3, 1, 1, false, rng), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(3, 0, 3, 1, 1, false, rng), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(3, 4, 0, 1, 1, false, rng), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(3, 4, 3, 0, 1, false, rng), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(3, 4, 3, 1, -1, false, rng), std::invalid_argument);
}

TEST(FailureInjection, DepthwiseRejectsInvalidGeometry) {
  util::Rng rng(2);
  EXPECT_THROW(nn::DepthwiseConv2d(0, 3, 1, 1, rng), std::invalid_argument);
  EXPECT_THROW(nn::DepthwiseConv2d(3, 3, 0, 1, rng), std::invalid_argument);
}

TEST(FailureInjection, LinearRejectsInvalidDimensions) {
  util::Rng rng(3);
  EXPECT_THROW(nn::Linear(0, 4, rng), std::invalid_argument);
  EXPECT_THROW(nn::Linear(4, -1, rng), std::invalid_argument);
}

TEST(FailureInjection, PoolingRejectsBadKernel) {
  EXPECT_THROW(nn::AvgPool2d(0), std::invalid_argument);
  EXPECT_THROW(nn::AvgPool2d(-2), std::invalid_argument);
}

TEST(FailureInjection, MeanetSumFusionShapeMismatchThrows) {
  // Hand-build an MEANet whose adaptive block produces the wrong shape;
  // sum fusion must reject it at forward time.
  util::Rng rng(4);
  nn::Sequential trunk("trunk");
  trunk.emplace<nn::Conv2d>(2, 4, 3, 1, 1, false, rng, "t");
  nn::Sequential exit1("exit1");
  exit1.emplace<nn::GlobalAvgPool>();
  exit1.emplace<nn::Linear>(4, 3, rng, "fc1");
  nn::Sequential adaptive("adaptive");
  adaptive.emplace<nn::Conv2d>(2, 8, 3, 1, 1, false, rng, "a");  // 8 != 4 channels
  nn::Sequential extension("extension");
  extension.emplace<nn::GlobalAvgPool>();
  extension.emplace<nn::Linear>(4, 2, rng, "fc2");
  core::MEANet net(std::move(trunk), std::move(exit1), std::move(adaptive),
                   std::move(extension), core::FusionMode::kSum);
  const Tensor x = Tensor::normal(Shape{1, 2, 6, 6}, rng);
  const core::MainForward fwd = net.forward_main(x, nn::Mode::kEval);
  EXPECT_THROW(net.forward_extension(x, fwd.features, nn::Mode::kEval), std::invalid_argument);
}

TEST(FailureInjection, ConcatFusionSpatialMismatchThrows) {
  util::Rng rng(5);
  nn::Sequential trunk("trunk");
  trunk.emplace<nn::Conv2d>(2, 4, 3, 1, 1, false, rng, "t");
  nn::Sequential exit1("exit1");
  exit1.emplace<nn::GlobalAvgPool>();
  exit1.emplace<nn::Linear>(4, 3, rng, "fc1");
  nn::Sequential adaptive("adaptive");
  adaptive.emplace<nn::Conv2d>(2, 4, 3, 2, 1, false, rng, "a");  // stride 2: wrong spatial
  nn::Sequential extension("extension");
  extension.emplace<nn::GlobalAvgPool>();
  extension.emplace<nn::Linear>(8, 2, rng, "fc2");
  core::MEANet net(std::move(trunk), std::move(exit1), std::move(adaptive),
                   std::move(extension), core::FusionMode::kConcat);
  const Tensor x = Tensor::normal(Shape{1, 2, 6, 6}, rng);
  const core::MainForward fwd = net.forward_main(x, nn::Mode::kEval);
  EXPECT_THROW(net.forward_extension(x, fwd.features, nn::Mode::kEval), std::invalid_argument);
}

TEST(FailureInjection, GemmRejectsNegativeDimensions) {
  float dummy = 0.0f;
  EXPECT_THROW(ops::gemm(false, false, -1, 1, 1, &dummy, 1, &dummy, 1, &dummy, 1),
               std::invalid_argument);
}

TEST(FailureInjection, GemmHandlesZeroSizedProblem) {
  float dummy = 0.0f;
  // m == 0: valid no-op.
  ops::gemm(false, false, 0, 1, 1, &dummy, 1, &dummy, 1, &dummy, 1);
  // k == 0 adds nothing to C.
  float c = 7.0f;
  ops::gemm(false, false, 1, 1, 0, &dummy, 1, &dummy, 1, &c, 1);
  EXPECT_EQ(c, 7.0f);
}

TEST(FailureInjection, RunSystemRejectsEmptyDataset) {
  util::Rng rng(6);
  core::MEANet net = meanet::testing::tiny_meanet_b(rng, 2);
  const data::ClassDict dict(4, {0, 1});
  runtime::EngineConfig config;
  config.net = &net;
  config.dict = &dict;
  data::Dataset empty;
  empty.num_classes = 4;
  empty.images = Tensor(Shape{0, 2, 8, 8});
  EXPECT_THROW(sim::run_system(config, empty), std::invalid_argument);
}

TEST(FailureInjection, SyntheticSpecValidation) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;  // odd: cannot pair confusers
  EXPECT_THROW(data::make_synthetic(spec, 1), std::invalid_argument);
  spec.num_classes = 4;
  spec.min_difficulty = 0.9f;
  spec.max_difficulty = 0.1f;  // inverted range
  EXPECT_THROW(data::make_synthetic(spec, 1), std::invalid_argument);
  spec.min_difficulty = 0.1f;
  spec.max_difficulty = 1.5f;  // above 1
  EXPECT_THROW(data::make_synthetic(spec, 1), std::invalid_argument);
}

TEST(FailureInjection, DeviceModelRejectsNonPositiveThroughput) {
  sim::DeviceModel device;
  device.macs_per_second = 0.0;
  EXPECT_THROW(device.compute_time_s(100), std::logic_error);
}

TEST(FailureInjection, SequentialBackwardWithoutForwardThrows) {
  util::Rng rng(7);
  nn::Sequential net("n");
  net.emplace<nn::Conv2d>(2, 4, 3, 1, 1, false, rng, "c");
  EXPECT_THROW(net.backward(Tensor(Shape{1, 4, 6, 6})), std::logic_error);
}

TEST(FailureInjection, BuilderRejectsEmptyMobileNet) {
  util::Rng rng(8);
  core::MobileNetConfig config;
  config.blocks.clear();
  EXPECT_THROW(core::build_mobilenet_meanet_b(config, 2, core::FusionMode::kSum, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace meanet
