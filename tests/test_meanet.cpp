#include <gtest/gtest.h>

#include "core/builders.h"
#include "core/meanet.h"
#include "nn/parameter.h"
#include "tiny_models.h"
#include "util/rng.h"

namespace meanet::core {
namespace {

using meanet::testing::tiny_meanet_a;
using meanet::testing::tiny_meanet_b;
using meanet::testing::tiny_resnet_config;

TEST(MEANet, ForwardShapesModelB) {
  util::Rng rng(1);
  MEANet net = tiny_meanet_b(rng, 2);
  const Tensor images = Tensor::normal(Shape{3, 2, 8, 8}, rng);
  const MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  EXPECT_EQ(fwd.logits.shape(), Shape({3, 4}));
  EXPECT_EQ(fwd.features.shape(), Shape({3, 8, 2, 2}));
  const Tensor y2 = net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_EQ(y2.shape(), Shape({3, 2}));
}

TEST(MEANet, ForwardShapesModelA) {
  util::Rng rng(2);
  MEANet net = tiny_meanet_a(rng, 2);
  const Tensor images = Tensor::normal(Shape{2, 2, 8, 8}, rng);
  const MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  EXPECT_EQ(fwd.logits.shape(), Shape({2, 4}));
  // Model A features stop after stage 2: channels[1]=6, spatial /2.
  EXPECT_EQ(fwd.features.shape(), Shape({2, 6, 4, 4}));
  const Tensor y2 = net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_EQ(y2.shape(), Shape({2, 2}));
}

TEST(MEANet, AdaptiveOutputMatchesFeatureShape) {
  util::Rng rng(3);
  MEANet net = tiny_meanet_b(rng);
  const Shape image_shape{1, 2, 8, 8};
  EXPECT_EQ(net.adaptive().output_shape(image_shape),
            net.main_trunk().output_shape(image_shape));
}

TEST(MEANet, ConcatFusionDoublesExtensionInput) {
  util::Rng rng(4);
  MEANet net = tiny_meanet_b(rng, 2, FusionMode::kConcat);
  const Tensor images = Tensor::normal(Shape{2, 2, 8, 8}, rng);
  const MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  const Tensor y2 = net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_EQ(y2.shape(), Shape({2, 2}));
}

TEST(MEANet, NumClassesQueries) {
  util::Rng rng(5);
  MEANet net = tiny_meanet_b(rng, 3);
  const Shape image_shape{1, 2, 8, 8};
  EXPECT_EQ(net.num_classes(image_shape), 4);
  EXPECT_EQ(net.num_hard_classes(image_shape), 3);
  MEANet concat_net = tiny_meanet_b(rng, 3, FusionMode::kConcat);
  EXPECT_EQ(concat_net.num_hard_classes(image_shape), 3);
}

TEST(MEANet, FreezeMainMarksOnlyMainParams) {
  util::Rng rng(6);
  MEANet net = tiny_meanet_b(rng);
  net.freeze_main();
  for (const nn::Parameter* p : net.main_parameters()) EXPECT_FALSE(p->trainable);
  for (const nn::Parameter* p : net.edge_parameters()) EXPECT_TRUE(p->trainable);
  net.unfreeze_main();
  for (const nn::Parameter* p : net.main_parameters()) EXPECT_TRUE(p->trainable);
}

TEST(MEANet, ParameterSetsAreDisjointAndComplete) {
  util::Rng rng(7);
  MEANet net = tiny_meanet_b(rng);
  const auto main = net.main_parameters();
  const auto edge = net.edge_parameters();
  const auto all = net.all_parameters();
  EXPECT_EQ(all.size(), main.size() + edge.size());
  for (const nn::Parameter* m : main) {
    for (const nn::Parameter* e : edge) EXPECT_NE(m, e);
  }
}

TEST(MEANet, BlockwiseBackwardLeavesMainGradsZero) {
  util::Rng rng(8);
  MEANet net = tiny_meanet_b(rng);
  net.freeze_main();
  const Tensor images = Tensor::normal(Shape{2, 2, 8, 8}, rng);
  const MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  const Tensor y2 = net.forward_extension(images, fwd.features, nn::Mode::kTrain);
  net.backward_extension(Tensor::ones(y2.shape()), /*into_main=*/false);
  for (const nn::Parameter* p : net.main_parameters()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f) << p->name;
    }
  }
  // Edge parameters must receive gradient.
  float edge_grad_mass = 0.0f;
  for (const nn::Parameter* p : net.edge_parameters()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) edge_grad_mass += std::fabs(p->grad[i]);
  }
  EXPECT_GT(edge_grad_mass, 0.0f);
}

TEST(MEANet, SumFusionIsElementwiseAddition) {
  util::Rng rng(9);
  MEANet net = tiny_meanet_b(rng, 2, FusionMode::kSum);
  const Tensor images = Tensor::normal(Shape{1, 2, 8, 8}, rng);
  const MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  // Reference: run adaptive separately and feed F + f2 into the
  // extension directly.
  const Tensor f2 = net.adaptive().forward(images, nn::Mode::kEval);
  const Tensor fused = fwd.features + f2;
  const Tensor expected = net.extension().forward(fused, nn::Mode::kEval);
  const Tensor got = net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_TRUE(allclose(expected, got, 1e-5f));
}

TEST(MEANet, BackwardExtensionBeforeForwardThrows) {
  util::Rng rng(10);
  MEANet net = tiny_meanet_b(rng);
  EXPECT_THROW(net.backward_extension(Tensor(Shape{1, 2})), std::logic_error);
}

TEST(MEANet, EdgeMacsSumAllFourBlocksUnderEitherFusion) {
  const Shape instance{1, 2, 8, 8};
  for (const FusionMode fusion : {FusionMode::kSum, FusionMode::kConcat}) {
    util::Rng rng(7);
    const MEANet net = tiny_meanet_b(rng, 2, fusion);
    const Shape features = net.main_trunk().output_shape(instance);
    Shape fused = features;
    if (fusion == FusionMode::kConcat) {
      const Shape adaptive = net.adaptive().output_shape(instance);
      fused = Shape{1, features.channels() + adaptive.channels(), features.height(),
                    features.width()};
    }
    const std::int64_t trunk = net.main_trunk().stats(instance).macs;
    const std::int64_t exit1 = net.main_exit().stats(features).macs;
    const std::int64_t adaptive = net.adaptive().stats(instance).macs;
    const std::int64_t extension = net.extension().stats(fused).macs;
    ASSERT_GT(trunk, 0);
    ASSERT_GT(exit1, 0);
    ASSERT_GT(adaptive, 0);
    ASSERT_GT(extension, 0);

    const EdgeMacs macs = net.edge_macs(instance);
    EXPECT_EQ(macs.main, trunk + exit1);
    EXPECT_EQ(macs.extension, adaptive + extension);
  }
}

TEST(Builders, RejectBadHardClassCounts) {
  util::Rng rng(11);
  const ResNetConfig config = tiny_resnet_config();
  EXPECT_THROW(build_resnet_meanet_a(config, 0, FusionMode::kSum, rng), std::invalid_argument);
  EXPECT_THROW(build_resnet_meanet_b(config, 5, FusionMode::kSum, rng), std::invalid_argument);
}

TEST(Builders, MobileNetMeanetShapes) {
  util::Rng rng(12);
  MobileNetConfig config;
  config.stem_channels = 4;
  config.blocks = {{4, 1, 1}, {6, 2, 2}, {6, 1, 2}};
  config.image_channels = 2;
  config.num_classes = 4;
  MEANet net = build_mobilenet_meanet_b(config, 2, FusionMode::kSum, rng, 2);
  const Tensor images = Tensor::normal(Shape{2, 2, 8, 8}, rng);
  const MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  EXPECT_EQ(fwd.logits.shape(), Shape({2, 4}));
  const Tensor y2 = net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_EQ(y2.shape(), Shape({2, 2}));
  // Adaptive block must mirror the trunk's output shape.
  EXPECT_EQ(net.adaptive().output_shape(Shape{1, 2, 8, 8}),
            net.main_trunk().output_shape(Shape{1, 2, 8, 8}));
}

TEST(Builders, CloudClassifierDeeperThanEdge) {
  util::Rng rng(13);
  nn::Sequential cloud = build_cloud_classifier(2, 4, rng);
  nn::Sequential edge = build_resnet_classifier(tiny_resnet_config(), rng);
  std::int64_t cloud_params = 0, edge_params = 0;
  for (nn::Parameter* p : cloud.parameters()) cloud_params += p->numel();
  for (nn::Parameter* p : edge.parameters()) edge_params += p->numel();
  EXPECT_GT(cloud_params, edge_params);
  EXPECT_EQ(cloud.output_shape(Shape{1, 2, 8, 8}), Shape({1, 4}));
}

}  // namespace
}  // namespace meanet::core
