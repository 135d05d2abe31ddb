// Process-wide diagnostic registry: every stats producer (sessions,
// cells, the wire server, the GEMM pool) registers a
// DiagnosticProvider, and ONE snapshot() pulls them all into a single
// versioned JSON document — the aggregate view a multi-session run
// never had while each subsystem kept its own ad-hoc stats shape.
//
// Snapshot envelope (schema diag::kSchemaVersion):
//
//   {
//     "schema": "meanet.diag.v2",
//     "providers": {
//       "session/0":  { ...provider tree... },
//       "cell/0":     { ... },
//       "gemm_pool":  { ... }
//     }
//   }
//
// Keys follow registration order; two live providers that report the
// same name are disambiguated with a "#2", "#3"... suffix at snapshot
// time, so a snapshot never silently drops one.
//
// Thread safety: the registry mutex is held for the WHOLE of
// snapshot(), including every provider's diag_snapshot() call. That is
// the teeth of the RAII contract — a ScopedRegistration destructor
// blocks until an in-flight snapshot finishes, so a provider can never
// be mid-snapshot while its owner is being destroyed. The flip side is
// the rule in provider.h: providers must not call back into the
// registry from diag_snapshot().
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "diag/provider.h"
#include "diag/value.h"

namespace meanet::diag {

class DiagnosticRegistry {
 public:
  /// The process-wide registry. Intentionally leaked (never destroyed):
  /// providers with static storage duration — the GemmPool singleton —
  /// unregister during static destruction, which must find the registry
  /// alive regardless of TU destruction order.
  static DiagnosticRegistry& global();

  DiagnosticRegistry() = default;
  DiagnosticRegistry(const DiagnosticRegistry&) = delete;
  DiagnosticRegistry& operator=(const DiagnosticRegistry&) = delete;

  /// Registers / removes a provider. Prefer ScopedRegistration; these
  /// are exposed for it and for tests. add() of an already-registered
  /// pointer and remove() of an unknown pointer are both no-ops.
  void add(const DiagnosticProvider* provider);
  void remove(const DiagnosticProvider* provider);

  /// Names of the registered providers, in registration order (without
  /// the duplicate-disambiguation suffix).
  std::vector<std::string> names() const;
  std::size_t size() const;

  /// One consistent snapshot of every registered provider, wrapped in
  /// the versioned envelope documented above.
  Value snapshot() const;

  /// Snapshot of the single provider registered under `name` (first
  /// match in registration order); a null Value when absent.
  Value snapshot_of(const std::string& name) const;

  /// to_json(snapshot(), indent) — the one exporter consumers call.
  std::string to_json(int indent = 2) const;

 private:
  mutable std::mutex mutex_;
  std::vector<const DiagnosticProvider*> providers_;  // guarded by mutex_
};

/// Move-only RAII registration with DiagnosticRegistry. The default
/// constructor holds nothing (so it can be a member that is only armed
/// when diagnostics apply); destruction unregisters, blocking until any
/// in-flight snapshot has finished with the provider.
class ScopedRegistration {
 public:
  ScopedRegistration() = default;
  ScopedRegistration(DiagnosticRegistry& registry, const DiagnosticProvider* provider)
      : registry_(&registry), provider_(provider) {
    registry_->add(provider_);
  }
  ~ScopedRegistration() { reset(); }

  ScopedRegistration(ScopedRegistration&& other) noexcept
      : registry_(other.registry_), provider_(other.provider_) {
    other.registry_ = nullptr;
    other.provider_ = nullptr;
  }
  ScopedRegistration& operator=(ScopedRegistration&& other) noexcept {
    if (this != &other) {
      reset();
      registry_ = other.registry_;
      provider_ = other.provider_;
      other.registry_ = nullptr;
      other.provider_ = nullptr;
    }
    return *this;
  }
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

  /// Unregisters now (idempotent).
  void reset() {
    if (registry_ != nullptr) registry_->remove(provider_);
    registry_ = nullptr;
    provider_ = nullptr;
  }

  bool armed() const { return registry_ != nullptr; }

 private:
  DiagnosticRegistry* registry_ = nullptr;
  const DiagnosticProvider* provider_ = nullptr;
};

}  // namespace meanet::diag
