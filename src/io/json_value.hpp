#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace qulrb::io {

/// Parsed JSON document node — the read-side complement of JsonWriter, small
/// enough to stay dependency-free. Numbers are held as double (the service
/// protocol carries counts small enough for exact representation); objects
/// keep their keys in sorted order (std::map) for deterministic iteration.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;  // null

  /// Parse a complete document; throws util::InvalidArgument on malformed
  /// input, trailing garbage, or nesting deeper than 256 containers.
  static JsonValue parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Typed accessors; throw util::InvalidArgument on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  ///< number that must be integral and fit int64
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; null when `this` is not an object or the key is
  /// absent — lets callers chain optional lookups without try/catch.
  const JsonValue* find(const std::string& key) const noexcept;

  /// Convenience typed lookups with defaults (absent key or null -> default).
  double number_or(const std::string& key, double fallback) const;
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(Array v);
  static JsonValue make_object(Object v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirect so JsonValue stays movable despite the recursive type.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

}  // namespace qulrb::io
