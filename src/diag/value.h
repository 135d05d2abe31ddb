// The diagnostics value tree: a tiny ordered JSON-shaped document that
// every stats producer snapshots into (ROADMAP "unified diagnostics
// surface"; the provider/registry split mirrors fujinet-nio's
// diag/diagnostic_provider.h + diagnostic_registry.h).
//
// diag::Value is deliberately small — null / bool / int64 / uint64 /
// double / string / array / object — and OBJECT FIELDS PRESERVE
// INSERTION ORDER, so a provider's snapshot serializes in the order it
// was built and golden-JSON tests can pin exact bytes. There is no
// parser here; to_json() is the single exporter every consumer (the
// registry dump, the benches' BENCH_*.json, the wire kStatsRequest
// snapshot, meanet_cli's console) renders through, which is what makes
// "live diagnostics" and "tracked baselines" one schema.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace meanet::diag {

/// Version tag stamped into every registry snapshot envelope (the
/// "schema" key). Bump on any incompatible change to the envelope or to
/// a documented provider tree; consumers check it before reading keys.
inline constexpr const char* kSchemaVersion = "meanet.diag.v2";

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  /// Default-constructed Value is JSON null.
  Value() = default;
  Value(bool v) : kind_(Kind::kBool), bool_(v) {}
  Value(int v) : kind_(Kind::kInt), int_(v) {}
  Value(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Value(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  Value(double v) : kind_(Kind::kDouble), double_(v) {}
  Value(const char* v) : kind_(Kind::kString), string_(v) {}
  Value(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}

  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Object field write: overwrites an existing key in place (keeping
  /// its position) or appends a new one at the end. Calling set() on a
  /// null Value promotes it to an empty object first, so building
  /// nested trees needs no up-front object() calls.
  Value& set(std::string key, Value value);

  /// Array append; a null Value is promoted to an empty array first.
  Value& push(Value value);

  /// Ordered object fields / array items. Empty for other kinds.
  const std::vector<std::pair<std::string, Value>>& fields() const { return fields_; }
  const std::vector<Value>& items() const { return items_; }

  /// Object lookup by key; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  // Scalar reads; each returns the natural zero when the kind differs
  // (diagnostics consumers prefer a zero to an exception).
  bool as_bool() const { return kind_ == Kind::kBool ? bool_ : false; }
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const { return string_; }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// Renders `value` as JSON text. `indent` > 0 pretty-prints with that
/// many spaces per level; 0 emits one compact line. Object keys keep
/// insertion order; non-finite doubles render as null (JSON has no
/// inf/nan); strings are escaped per RFC 8259. The output ends without
/// a trailing newline.
std::string to_json(const Value& value, int indent = 2);

/// Strict syntax check of one JSON document (used by the schema tests
/// and the CI snapshot validation): true iff `text` is a single
/// well-formed JSON value with nothing but whitespace after it.
bool json_well_formed(const std::string& text);

}  // namespace meanet::diag
