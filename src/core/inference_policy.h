// Routing policies of Alg. 2: where does an instance's inference end?
//
// The paper's rule (entropy-threshold offload) is one member of a family
// of pluggable policies behind the RoutingPolicy interface:
//
//   cloud rule fires and cloud available  -> cloud ("complex")
//   argmax(y1) in hard classes            -> extension block
//   otherwise                             -> main-block early exit
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "data/class_dict.h"

namespace meanet::core {

enum class Route {
  kMainExit,
  kExtensionExit,
  kCloud,
};

/// Number of Route enumerators. The static_assert fires when the enum
/// grows; the switches over Route (route_name, RouteCounts::add, the
/// offload-backend factory) are default-free, so -Wswitch then flags
/// each one that needs a new case.
inline constexpr int kNumRoutes = 3;
static_assert(static_cast<int>(Route::kCloud) + 1 == kNumRoutes,
              "Route enum changed: update kNumRoutes and every switch over Route");

const char* route_name(Route route);

struct PolicyConfig {
  /// Instances with main-exit entropy above this go to the cloud.
  /// +infinity disables offloading even when the cloud is available.
  double entropy_threshold = std::numeric_limits<double>::infinity();
  /// Paper: "if Cloud is available and Entropy > threshold".
  bool cloud_available = false;
};

/// Everything the main-exit pass knows about one instance, handed to a
/// RoutingPolicy to decide where its inference ends. Only the fields the
/// policy declared via needed_signals() are guaranteed to be filled; the
/// rest stay at their defaults.
struct RouteSignals {
  /// Shannon entropy of the exit-1 softmax.
  float entropy = 0.0f;
  /// Max softmax score at exit 1.
  float main_confidence = 0.0f;
  /// Top-1 minus top-2 softmax score at exit 1.
  float margin = 0.0f;
  /// Exit-1 argmax in global label space (always filled).
  int main_prediction = -1;
};

/// Bitmask over the derived RouteSignals fields a policy reads, so the
/// engine can skip reducing softmax rows it will never look at.
/// main_prediction is not maskable — the IsHard detector always needs
/// the argmax — and main_confidence is computed anyway for Alg. 2's
/// exit-1 vs exit-2 comparison, so only entropy and margin actually
/// save work today.
enum RouteSignal : unsigned {
  kSignalEntropy = 1u << 0,
  kSignalConfidence = 1u << 1,
  kSignalMargin = 1u << 2,
};
inline constexpr unsigned kSignalsAll = kSignalEntropy | kSignalConfidence | kSignalMargin;

/// Pluggable routing stage of Alg. 2. Implementations must be
/// deterministic and thread-safe (route() is called concurrently from
/// runtime::InferenceSession workers).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual Route route(const RouteSignals& signals) const = 0;

  /// Which RouteSignals fields route() reads. Defaults to all of them —
  /// safe for custom policies; override to let the engine skip the
  /// per-row reductions you never use.
  virtual unsigned needed_signals() const { return kSignalsAll; }

  /// Human-readable policy description for logs and reports.
  virtual std::string describe() const = 0;
};

/// The paper's rule: cloud when the exit-1 entropy exceeds the
/// threshold and the cloud is available, else the IsHard split.
class EntropyThresholdPolicy : public RoutingPolicy {
 public:
  EntropyThresholdPolicy(const data::ClassDict& dict, PolicyConfig config)
      : dict_(&dict), config_(config) {}

  /// The IsHard detector of §III-B: hard iff the main-block argmax is a
  /// hard class.
  bool is_hard(int main_prediction) const { return dict_->is_hard(main_prediction); }

  Route route(const RouteSignals& signals) const override;
  unsigned needed_signals() const override { return kSignalEntropy; }
  std::string describe() const override;

  const PolicyConfig& config() const { return config_; }
  const data::ClassDict& dict() const { return *dict_; }

 private:
  const data::ClassDict* dict_;
  PolicyConfig config_;
};

/// Confidence-margin variant: an instance is "complex" when the gap
/// between the two best exit-1 scores is small (the classifier cannot
/// separate its top candidates), regardless of overall entropy.
struct MarginPolicyConfig {
  /// Instances with top1-top2 margin *below* this go to the cloud.
  /// 0 disables offloading (margins are non-negative).
  double margin_threshold = 0.0;
  bool cloud_available = false;
};

class ConfidenceMarginPolicy : public RoutingPolicy {
 public:
  ConfidenceMarginPolicy(const data::ClassDict& dict, MarginPolicyConfig config)
      : dict_(&dict), config_(config) {}

  Route route(const RouteSignals& signals) const override;
  unsigned needed_signals() const override { return kSignalMargin; }
  std::string describe() const override;

  const MarginPolicyConfig& config() const { return config_; }

 private:
  const data::ClassDict* dict_;
  MarginPolicyConfig config_;
};

/// Sends every instance through the extension path (never offloads).
/// This is the always-extended evaluation mode of the paper's Tables
/// II/V, and useful as a routing baseline.
class AlwaysExtendPolicy : public RoutingPolicy {
 public:
  Route route(const RouteSignals& signals) const override;
  unsigned needed_signals() const override { return 0; }
  std::string describe() const override { return "always-extend"; }
};

}  // namespace meanet::core
