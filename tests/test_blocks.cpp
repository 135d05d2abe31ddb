#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/inverted_residual.h"
#include "nn/residual_block.h"
#include "nn/sequential.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/maxpool.h"
#include "nn/parameter.h"
#include "nn/pooling.h"
#include "nn/activations.h"
#include "util/rng.h"

namespace meanet::nn {
namespace {

TEST(ResidualBlock, IdentityShortcutWhenShapePreserved) {
  util::Rng rng(1);
  ResidualBlock block(4, 4, 1, rng);
  EXPECT_FALSE(block.has_projection());
  EXPECT_EQ(block.output_shape(Shape{1, 4, 8, 8}), Shape({1, 4, 8, 8}));
}

TEST(ResidualBlock, ProjectionOnStride) {
  util::Rng rng(1);
  ResidualBlock block(4, 8, 2, rng);
  EXPECT_TRUE(block.has_projection());
  EXPECT_EQ(block.output_shape(Shape{1, 4, 8, 8}), Shape({1, 8, 4, 4}));
}

TEST(ResidualBlock, ProjectionOnChannelChange) {
  util::Rng rng(1);
  ResidualBlock block(4, 8, 1, rng);
  EXPECT_TRUE(block.has_projection());
}

TEST(ResidualBlock, OutputIsNonNegative) {
  util::Rng rng(2);
  ResidualBlock block(3, 3, 1, rng);
  const Tensor y = block.forward(Tensor::normal(Shape{2, 3, 6, 6}, rng), Mode::kTrain);
  EXPECT_GE(y.min(), 0.0f);  // final ReLU
}

TEST(ResidualBlock, ParameterCount) {
  util::Rng rng(3);
  ResidualBlock block(4, 4, 1, rng);
  // conv1 4*4*9, bn1 8, conv2 4*4*9, bn2 8 = 304.
  std::int64_t total = 0;
  for (Parameter* p : block.parameters()) total += p->numel();
  EXPECT_EQ(total, 4 * 4 * 9 + 8 + 4 * 4 * 9 + 8);
}

TEST(ResidualBlock, FreezePropagatesToAllParams) {
  util::Rng rng(4);
  ResidualBlock block(2, 4, 2, rng);
  block.set_frozen(true);
  for (const Parameter* p : block.parameters()) EXPECT_FALSE(p->trainable);
}

TEST(ResidualBlock, FrozenBackwardStillPropagatesInputGrad) {
  util::Rng rng(5);
  ResidualBlock block(3, 3, 1, rng);
  block.set_frozen(true);
  const Tensor x = Tensor::normal(Shape{1, 3, 4, 4}, rng);
  const Tensor y = block.forward(x, Mode::kTrain);
  const Tensor dx = block.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
  // Some gradient must flow through the identity shortcut.
  float abs_sum = 0.0f;
  for (std::int64_t i = 0; i < dx.numel(); ++i) abs_sum += std::fabs(dx[i]);
  EXPECT_GT(abs_sum, 0.0f);
  for (const Parameter* p : block.parameters()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) EXPECT_EQ(p->grad[i], 0.0f);
  }
}

TEST(InvertedResidual, SkipOnlyWhenShapePreserved) {
  util::Rng rng(6);
  EXPECT_TRUE(InvertedResidual(4, 4, 1, 2, rng).has_skip());
  EXPECT_FALSE(InvertedResidual(4, 8, 1, 2, rng).has_skip());
  EXPECT_FALSE(InvertedResidual(4, 4, 2, 2, rng).has_skip());
}

TEST(InvertedResidual, OutputShapeWithStride) {
  util::Rng rng(6);
  InvertedResidual block(4, 8, 2, 4, rng);
  EXPECT_EQ(block.output_shape(Shape{2, 4, 8, 8}), Shape({2, 8, 4, 4}));
}

TEST(InvertedResidual, ExpansionOneHasNoExpandConv) {
  util::Rng rng(7);
  InvertedResidual with(3, 3, 1, 4, rng);
  InvertedResidual without(3, 3, 1, 1, rng);
  std::int64_t with_params = 0, without_params = 0;
  for (Parameter* p : with.parameters()) with_params += p->numel();
  for (Parameter* p : without.parameters()) without_params += p->numel();
  EXPECT_GT(with_params, without_params);
}

TEST(InvertedResidual, RejectsExpansionBelowOne) {
  util::Rng rng(8);
  EXPECT_THROW(InvertedResidual(3, 3, 1, 0, rng), std::invalid_argument);
}

TEST(Sequential, ChainsShapes) {
  util::Rng rng(9);
  Sequential net("n");
  net.emplace<Conv2d>(3, 8, 3, 2, 1, false, rng, "c");
  net.emplace<ReLU>();
  net.emplace<GlobalAvgPool>();
  net.emplace<Linear>(8, 5, rng, "fc");
  EXPECT_EQ(net.output_shape(Shape{2, 3, 16, 16}), Shape({2, 5}));
  EXPECT_EQ(net.size(), 4);
}

TEST(Sequential, ForwardBackwardRoundTripShapes) {
  util::Rng rng(10);
  Sequential net("n");
  net.emplace<Conv2d>(2, 4, 3, 1, 1, false, rng, "c");
  net.emplace<ReLU>();
  const Tensor x = Tensor::normal(Shape{2, 2, 5, 5}, rng);
  const Tensor y = net.forward(x, Mode::kTrain);
  const Tensor dx = net.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Sequential, StatsAggregate) {
  util::Rng rng(11);
  Sequential net("n");
  net.emplace<Conv2d>(1, 2, 3, 1, 1, false, rng, "c1");
  net.emplace<Conv2d>(2, 2, 3, 1, 1, false, rng, "c2");
  const LayerStats total = net.stats(Shape{1, 1, 4, 4});
  const auto per_layer = net.layer_stats(Shape{1, 1, 4, 4});
  ASSERT_EQ(per_layer.size(), 2u);
  EXPECT_EQ(total.params, per_layer[0].params + per_layer[1].params);
  EXPECT_EQ(total.macs, per_layer[0].macs + per_layer[1].macs);
}

TEST(Sequential, RejectsNullLayer) {
  Sequential net("n");
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Sequential, FreezeRecurses) {
  util::Rng rng(12);
  Sequential net("n");
  net.emplace<Conv2d>(1, 1, 3, 1, 1, false, rng, "c");
  net.emplace<ResidualBlock>(1, 1, 1, rng, "rb");
  net.set_frozen(true);
  for (const Parameter* p : net.parameters()) EXPECT_FALSE(p->trainable);
  EXPECT_TRUE(net.layer(1).frozen());
}

// stats() predicts the activation cache of a train-mode forward; the
// Fig. 6 training-memory model relies on it. After a train forward at
// batch N every layer must hold exactly N times the per-instance figure.
TEST(LayerStats, ActivationElemsMatchTheCacheOfATrainForward) {
  constexpr int kBatch = 3;
  struct Case {
    std::string what;
    std::function<LayerPtr(util::Rng&)> make;
    Shape instance;
  };
  const std::vector<Case> cases = {
      {"conv", [](util::Rng& r) { return std::make_unique<Conv2d>(3, 4, 3, 1, 1, false, r); },
       Shape{1, 3, 8, 8}},
      {"depthwise",
       [](util::Rng& r) { return std::make_unique<DepthwiseConv2d>(3, 3, 2, 1, r); },
       Shape{1, 3, 8, 8}},
      {"batchnorm", [](util::Rng&) { return std::make_unique<BatchNorm2d>(3); },
       Shape{1, 3, 8, 8}},
      {"relu", [](util::Rng&) { return std::make_unique<ReLU>(); }, Shape{1, 3, 8, 8}},
      {"relu6", [](util::Rng&) { return std::make_unique<ReLU6>(); }, Shape{1, 3, 8, 8}},
      {"linear", [](util::Rng& r) { return std::make_unique<Linear>(12, 5, r); }, Shape{1, 12}},
      {"maxpool", [](util::Rng&) { return std::make_unique<MaxPool2d>(2); }, Shape{1, 3, 8, 8}},
      {"dropout", [](util::Rng& r) { return std::make_unique<Dropout>(0.5f, r); },
       Shape{1, 3, 8, 8}},
      {"resblock identity",
       [](util::Rng& r) { return std::make_unique<ResidualBlock>(4, 4, 1, r); },
       Shape{1, 4, 8, 8}},
      {"resblock projection",
       [](util::Rng& r) { return std::make_unique<ResidualBlock>(4, 8, 2, r); },
       Shape{1, 4, 8, 8}},
      {"invres expansion 1",
       [](util::Rng& r) { return std::make_unique<InvertedResidual>(4, 4, 1, 1, r); },
       Shape{1, 4, 8, 8}},
      {"invres expansion 4",
       [](util::Rng& r) { return std::make_unique<InvertedResidual>(4, 8, 2, 4, r); },
       Shape{1, 4, 8, 8}},
      {"sequential",
       [](util::Rng& r) {
         auto net = std::make_unique<Sequential>("n");
         net->emplace<Conv2d>(3, 4, 3, 1, 1, false, r, "c");
         net->emplace<BatchNorm2d>(4);
         net->emplace<ReLU>();
         net->emplace<ResidualBlock>(4, 4, 1, r, "rb1");
         net->emplace<ResidualBlock>(4, 8, 2, r, "rb2");
         net->emplace<InvertedResidual>(8, 8, 1, 2, r, "ir");
         net->emplace<MaxPool2d>(2);
         net->emplace<Dropout>(0.25f, r);
         return net;
       },
       Shape{1, 3, 8, 8}},
  };
  for (const Case& c : cases) {
    util::Rng rng(13);
    LayerPtr layer = c.make(rng);
    std::vector<int> dims = c.instance.dims();
    dims[0] = kBatch;
    layer->forward(Tensor::normal(Shape(dims), rng), Mode::kTrain);
    EXPECT_EQ(layer->stats(c.instance).activation_elems * kBatch, layer->activation_cache_elems())
        << c.what;
  }
}

std::vector<std::string> parameter_names(Layer& layer) {
  std::vector<std::string> out;
  for (const Parameter* p : layer.parameters()) out.push_back(p->name);
  return out;
}

std::vector<std::string> state_names(Layer& layer) {
  std::vector<std::string> out;
  for (const NamedTensor& s : layer.state()) out.push_back(s.name);
  return out;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

// Saved models are name- and order-matched lists of parameters and
// state: the names, their order and the weights a seed draws must not
// depend on how the block is put together inside.
TEST(ResidualBlock, SerializedNamesAndSeededWeightsAreStable) {
  util::Rng rng(21);
  ResidualBlock block(4, 8, 2, rng, "rb");
  EXPECT_EQ(parameter_names(block),
            (std::vector<std::string>{"rb.conv1.weight", "rb.bn1.gamma", "rb.bn1.beta",
                                      "rb.conv2.weight", "rb.bn2.gamma", "rb.bn2.beta",
                                      "rb.conv_sc.weight", "rb.bn_sc.gamma", "rb.bn_sc.beta"}));
  EXPECT_EQ(state_names(block),
            (std::vector<std::string>{"rb.bn1.running_mean", "rb.bn1.running_var",
                                      "rb.bn2.running_mean", "rb.bn2.running_var",
                                      "rb.bn_sc.running_mean", "rb.bn_sc.running_var"}));
  util::Rng identity_rng(22);
  ResidualBlock identity(4, 4, 1, identity_rng, "id");
  EXPECT_EQ(parameter_names(identity),
            (std::vector<std::string>{"id.conv1.weight", "id.bn1.gamma", "id.bn1.beta",
                                      "id.conv2.weight", "id.bn2.gamma", "id.bn2.beta"}));
  EXPECT_EQ(state_names(identity),
            (std::vector<std::string>{"id.bn1.running_mean", "id.bn1.running_var",
                                      "id.bn2.running_mean", "id.bn2.running_var"}));

  // Weights are drawn conv1, conv2, conv_sc from the block's rng.
  util::Rng a(23), b(23);
  ResidualBlock seeded(4, 8, 2, a, "rb");
  Conv2d conv1(4, 8, 3, 2, 1, false, b);
  Conv2d conv2(8, 8, 3, 1, 1, false, b);
  Conv2d conv_sc(4, 8, 1, 2, 0, false, b);
  const std::vector<Parameter*> params = seeded.parameters();
  EXPECT_TRUE(same_bytes(params[0]->value, conv1.weight().value));
  EXPECT_TRUE(same_bytes(params[3]->value, conv2.weight().value));
  EXPECT_TRUE(same_bytes(params[6]->value, conv_sc.weight().value));
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));  // same number of draws
}

TEST(InvertedResidual, SerializedNamesAndSeededWeightsAreStable) {
  util::Rng rng(24);
  InvertedResidual block(4, 8, 2, 4, rng, "ir");
  EXPECT_EQ(parameter_names(block),
            (std::vector<std::string>{"ir.expand.weight", "ir.expandbn.gamma", "ir.expandbn.beta",
                                      "ir.dwconv.weight", "ir.dwbn.gamma", "ir.dwbn.beta",
                                      "ir.project.weight", "ir.projectbn.gamma",
                                      "ir.projectbn.beta"}));
  EXPECT_EQ(state_names(block),
            (std::vector<std::string>{"ir.expandbn.running_mean", "ir.expandbn.running_var",
                                      "ir.dwbn.running_mean", "ir.dwbn.running_var",
                                      "ir.projectbn.running_mean", "ir.projectbn.running_var"}));
  util::Rng flat_rng(25);
  InvertedResidual flat(4, 4, 1, 1, flat_rng, "ir1");
  EXPECT_EQ(parameter_names(flat),
            (std::vector<std::string>{"ir1.dwconv.weight", "ir1.dwbn.gamma", "ir1.dwbn.beta",
                                      "ir1.project.weight", "ir1.projectbn.gamma",
                                      "ir1.projectbn.beta"}));
  EXPECT_EQ(state_names(flat),
            (std::vector<std::string>{"ir1.dwbn.running_mean", "ir1.dwbn.running_var",
                                      "ir1.projectbn.running_mean", "ir1.projectbn.running_var"}));

  // Weights are drawn depthwise, project, expand: not the layer order.
  util::Rng a(26), b(26);
  InvertedResidual seeded(4, 8, 2, 4, a, "ir");
  DepthwiseConv2d dw(16, 3, 2, 1, b);
  Conv2d project(16, 8, 1, 1, 0, false, b);
  Conv2d expand(4, 16, 1, 1, 0, false, b);
  const std::vector<Parameter*> params = seeded.parameters();
  EXPECT_TRUE(same_bytes(params[0]->value, expand.weight().value));
  EXPECT_TRUE(same_bytes(params[3]->value, dw.weight().value));
  EXPECT_TRUE(same_bytes(params[6]->value, project.weight().value));
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));  // same number of draws
}

}  // namespace
}  // namespace meanet::nn
