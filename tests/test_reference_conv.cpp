// Cross-validation of the implicit-GEMM convolution against the
// reference direct convolution (reference_kernels.h), and full-model
// serialization round trips for both MEANet families. These catch
// classes of bugs the finite-difference checks cannot (e.g. a
// transposed-but-consistent weight layout).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/builders.h"
#include "nn/conv2d.h"
#include "nn/serialize.h"
#include "reference_kernels.h"
#include "tiny_models.h"

namespace meanet::nn {
namespace {

class ConvCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, bool>> {};
// in_c, out_c, kernel, stride, padding, bias

TEST_P(ConvCrossCheck, Im2colMatchesNaiveConvolution) {
  const auto [in_c, out_c, kernel, stride, padding, bias] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(in_c * 1000 + out_c * 100 + kernel * 10 + stride));
  Conv2d conv(in_c, out_c, kernel, stride, padding, bias, rng);
  const int size = 9;
  if (conv.output_shape(Shape{1, in_c, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{2, in_c, size, size}, rng);
  const Tensor fast = conv.forward(x, Mode::kEval);
  const Tensor reference =
      meanet::testing::reference_conv(x, conv.weight().value.data(),
                                      bias ? conv.bias().value.data() : nullptr, out_c, kernel,
                                      stride, padding);
  EXPECT_TRUE(allclose(fast, reference, 1e-4f))
      << "in_c=" << in_c << " out_c=" << out_c << " k=" << kernel << " s=" << stride
      << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvCrossCheck,
                         ::testing::Combine(::testing::Values(1, 3), ::testing::Values(2, 5),
                                            ::testing::Values(1, 3, 5), ::testing::Values(1, 2),
                                            ::testing::Values(0, 1, 2), ::testing::Bool()));

TEST(MeanetSerialization, ResNetMeanetFullRoundTrip) {
  util::Rng rng_a(1), rng_b(2);
  core::MEANet a = meanet::testing::tiny_meanet_b(rng_a, 2);
  core::MEANet b = meanet::testing::tiny_meanet_b(rng_b, 2);

  const std::string prefix = ::testing::TempDir() + "/meanet_full";
  save_model(a.main_trunk(), prefix + ".trunk");
  save_model(a.main_exit(), prefix + ".exit");
  save_model(a.adaptive(), prefix + ".adaptive");
  save_model(a.extension(), prefix + ".extension");
  load_model(b.main_trunk(), prefix + ".trunk");
  load_model(b.main_exit(), prefix + ".exit");
  load_model(b.adaptive(), prefix + ".adaptive");
  load_model(b.extension(), prefix + ".extension");

  util::Rng data_rng(3);
  const Tensor x = Tensor::normal(Shape{3, 2, 8, 8}, data_rng);
  const core::MainForward fa = a.forward_main(x, Mode::kEval);
  const core::MainForward fb = b.forward_main(x, Mode::kEval);
  EXPECT_TRUE(allclose(fa.logits, fb.logits, 0.0f));
  const Tensor ya = a.forward_extension(x, fa.features, Mode::kEval);
  const Tensor yb = b.forward_extension(x, fb.features, Mode::kEval);
  EXPECT_TRUE(allclose(ya, yb, 0.0f));
  for (const char* suffix : {".trunk", ".exit", ".adaptive", ".extension"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(MeanetSerialization, MobileNetMeanetFullRoundTrip) {
  core::MobileNetConfig config;
  config.stem_channels = 4;
  config.blocks = {{4, 1, 1}, {6, 2, 2}};
  config.image_channels = 2;
  config.num_classes = 4;
  util::Rng rng_a(4), rng_b(5);
  core::MEANet a = core::build_mobilenet_meanet_b(config, 2, core::FusionMode::kSum, rng_a, 2);
  core::MEANet b = core::build_mobilenet_meanet_b(config, 2, core::FusionMode::kSum, rng_b, 2);

  const std::string prefix = ::testing::TempDir() + "/mnet_full";
  save_model(a.main_trunk(), prefix + ".trunk");
  load_model(b.main_trunk(), prefix + ".trunk");
  util::Rng data_rng(6);
  const Tensor x = Tensor::normal(Shape{2, 2, 8, 8}, data_rng);
  EXPECT_TRUE(allclose(a.main_trunk().forward(x, Mode::kEval),
                       b.main_trunk().forward(x, Mode::kEval), 0.0f));
  std::remove((prefix + ".trunk").c_str());
}

}  // namespace
}  // namespace meanet::nn
