// Edge-side pricing: the device/WiFi cost models that charge each
// served instance by the route it took.
#pragma once

#include <cstdint>

#include "core/inference_policy.h"
#include "sim/device_model.h"
#include "sim/wifi_model.h"

namespace meanet::sim {

/// The edge's pricing model: runtime::InferenceSession charges every
/// instance through this per-route cost math.
struct EdgeNodeCosts {
  DeviceModel device;
  WifiModel wifi;
  /// Bytes uploaded per offloaded instance (raw image size by default).
  std::int64_t upload_bytes_per_instance = 0;
  /// Per-instance multiply-adds of the main path (trunk + exit 1).
  std::int64_t main_macs = 0;
  /// Additional multiply-adds when the extension path runs.
  std::int64_t extension_macs = 0;

  /// MACs an instance pays on the given route: every instance pays the
  /// main path; only extension-exit instances pay the adaptive +
  /// extension path on top (cloud-routed instances stop at the main
  /// block per Alg. 2).
  std::int64_t route_macs(core::Route route) const;

  /// Per-instance compute energy (J) for a route.
  double compute_energy_j(core::Route route) const;
  /// Per-instance compute latency (s) for a route.
  double compute_time_s(core::Route route) const;
  /// Upload energy (J) if the instance goes to the cloud, else 0.
  double comm_energy_j(core::Route route) const;
  double comm_time_s(core::Route route) const;
};

}  // namespace meanet::sim
