#include <gtest/gtest.h>

#include "core/inference_policy.h"

namespace meanet::core {
namespace {

data::ClassDict make_dict() { return data::ClassDict(4, {2, 3}); }

TEST(RouteName, AllRoutesNamed) {
  EXPECT_STREQ(route_name(Route::kMainExit), "main");
  EXPECT_STREQ(route_name(Route::kExtensionExit), "extension");
  EXPECT_STREQ(route_name(Route::kCloud), "cloud");
}

RouteSignals signals(float entropy, float margin, int prediction) {
  RouteSignals s;
  s.entropy = entropy;
  s.margin = margin;
  s.main_prediction = prediction;
  return s;
}

TEST(EntropyThresholdPolicy, EasyPredictionExitsAtMain) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{1.0, true});
  EXPECT_EQ(policy.route(signals(0.5f, 0.0f, 0)), Route::kMainExit);
  EXPECT_EQ(policy.route(signals(0.5f, 0.0f, 1)), Route::kMainExit);
}

TEST(EntropyThresholdPolicy, HardPredictionGoesToExtension) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{1.0, true});
  EXPECT_EQ(policy.route(signals(0.5f, 0.0f, 2)), Route::kExtensionExit);
  EXPECT_EQ(policy.route(signals(0.5f, 0.0f, 3)), Route::kExtensionExit);
}

TEST(EntropyThresholdPolicy, HighEntropyGoesToCloudRegardlessOfClass) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{1.0, true});
  EXPECT_EQ(policy.route(signals(1.5f, 0.0f, 0)), Route::kCloud);
  EXPECT_EQ(policy.route(signals(1.5f, 0.0f, 2)), Route::kCloud);
  EXPECT_NE(policy.describe().find("entropy-threshold"), std::string::npos);
}

TEST(EntropyThresholdPolicy, CloudUnavailableFallsBackToEdgeRoutes) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{1.0, false});
  EXPECT_EQ(policy.route(signals(5.0f, 0.0f, 0)), Route::kMainExit);
  EXPECT_EQ(policy.route(signals(5.0f, 0.0f, 3)), Route::kExtensionExit);
}

TEST(EntropyThresholdPolicy, ThresholdIsExclusive) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{1.0, true});
  // Entropy exactly at the threshold stays at the edge ("> threshold").
  EXPECT_EQ(policy.route(signals(1.0f, 0.0f, 0)), Route::kMainExit);
}

TEST(EntropyThresholdPolicy, ZeroThresholdSendsEverythingWithPositiveEntropy) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{0.0, true});
  EXPECT_EQ(policy.route(signals(0.01f, 0.0f, 1)), Route::kCloud);
}

TEST(EntropyThresholdPolicy, InfiniteThresholdDisablesCloud) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{});  // default: +inf, no cloud
  EXPECT_EQ(policy.route(signals(100.0f, 0.0f, 0)), Route::kMainExit);
}

TEST(EntropyThresholdPolicy, IsHardMatchesDict) {
  const data::ClassDict dict = make_dict();
  const EntropyThresholdPolicy policy(dict, PolicyConfig{});
  EXPECT_FALSE(policy.is_hard(0));
  EXPECT_TRUE(policy.is_hard(2));
}

TEST(ConfidenceMarginPolicy, SmallMarginGoesToCloud) {
  const data::ClassDict dict = make_dict();
  const ConfidenceMarginPolicy policy(dict, MarginPolicyConfig{0.3, true});
  EXPECT_EQ(policy.route(signals(0.0f, 0.1f, 0)), Route::kCloud);
  EXPECT_EQ(policy.route(signals(0.0f, 0.1f, 2)), Route::kCloud);
  // Margin exactly at the threshold stays at the edge ("< threshold").
  EXPECT_EQ(policy.route(signals(0.0f, 0.3f, 0)), Route::kMainExit);
  EXPECT_EQ(policy.route(signals(0.0f, 0.8f, 0)), Route::kMainExit);
  EXPECT_EQ(policy.route(signals(0.0f, 0.8f, 3)), Route::kExtensionExit);
}

TEST(ConfidenceMarginPolicy, CloudUnavailableFallsBackToEdgeRoutes) {
  const data::ClassDict dict = make_dict();
  const ConfidenceMarginPolicy policy(dict, MarginPolicyConfig{0.3, false});
  EXPECT_EQ(policy.route(signals(0.0f, 0.01f, 0)), Route::kMainExit);
  EXPECT_EQ(policy.route(signals(0.0f, 0.01f, 3)), Route::kExtensionExit);
}

TEST(AlwaysExtendPolicy, EveryInstanceTakesTheExtension) {
  const AlwaysExtendPolicy policy;
  EXPECT_EQ(policy.route(signals(0.0f, 0.9f, 0)), Route::kExtensionExit);
  EXPECT_EQ(policy.route(signals(5.0f, 0.0f, 3)), Route::kExtensionExit);
}

}  // namespace
}  // namespace meanet::core
