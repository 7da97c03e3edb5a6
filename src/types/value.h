// The scalar type system: Type tags and the Value runtime box.
//
// htapdb supports three storage types — INT64, DOUBLE, STRING — plus SQL
// NULL. This is enough to express the TPC-C/CH-benCHmark schemas while
// keeping the columnar encodings and expression evaluator focused.

#ifndef HTAP_TYPES_VALUE_H_
#define HTAP_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace htap {

/// Storage type of a column.
enum class Type : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Name of a Type for error messages and EXPLAIN output.
const char* TypeName(Type t);

/// A single scalar value, possibly NULL. Small enough to pass by value in
/// row-at-a-time paths; the columnar engine avoids Value entirely.
class Value {
 public:
  /// NULL value.
  Value() : v_(std::monostate{}) {}
  Value(int64_t v) : v_(v) {}             // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}              // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const {
    if (is_int64()) return static_cast<double>(std::get<int64_t>(v_));
    return std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Type tag; NULL values have no type — callers must check is_null() first.
  Type type() const {
    if (is_int64()) return Type::kInt64;
    if (is_double()) return Type::kDouble;
    return Type::kString;
  }

  /// Three-way compare. NULL sorts before everything; numeric types compare
  /// numerically across int64/double.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable 64-bit hash (for hash join / aggregate keys).
  uint64_t Hash() const;

  std::string ToString() const;

  /// Binary (de)serialization used by the WAL and log-delta files.
  void EncodeTo(std::string* out) const;
  /// Decodes one value starting at *pos; advances *pos. Returns false on
  /// malformed input.
  static bool DecodeFrom(const std::string& in, size_t* pos, Value* out);

  /// Sets this value to the string `s`, reusing the buffer when it already
  /// holds a string.
  void AssignString(std::string_view s) {
    if (auto* str = std::get_if<std::string>(&v_))
      str->assign(s);
    else
      v_.emplace<std::string>(s);
  }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

namespace detail {

constexpr uint64_t kFnvSeed = 14695981039346656037ULL;

/// FNV-1a over the canonical bytes.
inline uint64_t FnvBytes(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace detail

/// Typed hash primitives. Each returns exactly what Value::Hash() returns
/// for the same scalar, so vectorized key extraction and batch aggregation
/// can hash without boxing a Value. A double equal to an integer hashes as
/// that integer (join keys stay consistent across numeric types). Inline so
/// the per-row loops of those operators unroll them.
inline uint64_t HashInt64(int64_t v) {
  return detail::FnvBytes(&v, 8, detail::kFnvSeed ^ 0x11);
}

inline uint64_t HashDouble(double v) {
  // The range guard keeps the int64 cast defined; out-of-range doubles
  // cannot equal any int64.
  if (v >= -9223372036854775808.0 && v < 9223372036854775808.0) {
    const auto as_int = static_cast<int64_t>(v);
    if (static_cast<double>(as_int) == v) return HashInt64(as_int);
  }
  return detail::FnvBytes(&v, 8, detail::kFnvSeed ^ 0x22);
}

inline uint64_t HashString(const std::string& s) {
  return detail::FnvBytes(s.data(), s.size(), detail::kFnvSeed ^ 0x33);
}

inline uint64_t HashNullValue() { return detail::kFnvSeed; }

}  // namespace htap

#endif  // HTAP_TYPES_VALUE_H_
