#include "core/inference_policy.h"

#include <cstdlib>
#include <sstream>

namespace meanet::core {

const char* route_name(Route route) {
  switch (route) {
    case Route::kMainExit:
      return "main";
    case Route::kExtensionExit:
      return "extension";
    case Route::kCloud:
      return "cloud";
  }
  std::abort();  // unreachable: the switch is exhaustive (-Wswitch)
}

Route EntropyThresholdPolicy::route(const RouteSignals& signals) const {
  if (config_.cloud_available &&
      static_cast<double>(signals.entropy) > config_.entropy_threshold) {
    return Route::kCloud;
  }
  return is_hard(signals.main_prediction) ? Route::kExtensionExit : Route::kMainExit;
}

std::string EntropyThresholdPolicy::describe() const {
  std::ostringstream os;
  os << "entropy-threshold(threshold=" << config_.entropy_threshold
     << ", cloud=" << (config_.cloud_available ? "on" : "off") << ")";
  return os.str();
}

Route ConfidenceMarginPolicy::route(const RouteSignals& signals) const {
  // Compare in float (the margin's own precision) so "margin exactly at
  // the threshold stays at the edge" holds for float-representable
  // thresholds instead of depending on their double rounding direction.
  if (config_.cloud_available &&
      signals.margin < static_cast<float>(config_.margin_threshold)) {
    return Route::kCloud;
  }
  return dict_->is_hard(signals.main_prediction) ? Route::kExtensionExit : Route::kMainExit;
}

std::string ConfidenceMarginPolicy::describe() const {
  std::ostringstream os;
  os << "confidence-margin(threshold=" << config_.margin_threshold
     << ", cloud=" << (config_.cloud_available ? "on" : "off") << ")";
  return os.str();
}

Route AlwaysExtendPolicy::route(const RouteSignals& /*signals*/) const {
  return Route::kExtensionExit;
}

}  // namespace meanet::core
