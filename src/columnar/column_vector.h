// ColumnVector: the decoded, typed, contiguous column representation used
// by the columnar engine between encode/decode boundaries and as operator
// scratch space. The AP scan paths iterate these with tight loops the
// compiler can vectorize (the survey's "SIMD-style" columnar execution).

#ifndef HTAP_COLUMNAR_COLUMN_VECTOR_H_
#define HTAP_COLUMNAR_COLUMN_VECTOR_H_

#include <cassert>
#include <string>
#include <variant>
#include <vector>

#include "common/bitmap.h"
#include "types/value.h"

namespace htap {

/// A typed column of values with a null bitmap.
class ColumnVector {
 public:
  explicit ColumnVector(Type type = Type::kInt64) : type_(type) {
    switch (type) {
      case Type::kInt64: data_ = std::vector<int64_t>{}; break;
      case Type::kDouble: data_ = std::vector<double>{}; break;
      case Type::kString: data_ = std::vector<std::string>{}; break;
    }
  }

  Type type() const { return type_; }
  size_t size() const { return size_; }

  void Reserve(size_t n) {
    std::visit([n](auto& v) { v.reserve(n); }, data_);
  }

  void AppendInt64(int64_t v) { ints().push_back(v); ++size_; }
  void AppendDouble(double v) { doubles().push_back(v); ++size_; }
  void AppendString(std::string v) {
    strings().push_back(std::move(v));
    ++size_;
  }

  void AppendNull() {
    nulls_.Set(size_);
    switch (type_) {
      case Type::kInt64: ints().push_back(0); break;
      case Type::kDouble: doubles().push_back(0); break;
      case Type::kString: strings().push_back({}); break;
    }
    ++size_;
  }

  /// Appends a Value; NULL values go through the null bitmap.
  void AppendValue(const Value& v) {
    if (v.is_null()) {
      AppendNull();
      return;
    }
    switch (type_) {
      case Type::kInt64: AppendInt64(v.AsInt64()); break;
      case Type::kDouble: AppendDouble(v.AsDouble()); break;
      case Type::kString: AppendString(v.AsString()); break;
    }
  }

  /// Appends cell `i` of `src`: a typed copy when the types match, a
  /// Value conversion (INT64 into DOUBLE) otherwise.
  void AppendFrom(const ColumnVector& src, size_t i) {
    if (src.IsNull(i)) {
      AppendNull();
    } else if (src.type_ != type_) {
      AppendValue(src.GetValue(i));
    } else {
      switch (type_) {
        case Type::kInt64: AppendInt64(src.ints()[i]); break;
        case Type::kDouble: AppendDouble(src.doubles()[i]); break;
        case Type::kString: AppendString(src.strings()[i]); break;
      }
    }
  }

  /// Keeps the first `n` cells.
  void Truncate(size_t n) {
    if (n >= size_) return;
    std::visit([n](auto& v) { v.resize(n); }, data_);
    if (nulls_.size() > n) nulls_.Resize(n);
    size_ = n;
  }

  bool IsNull(size_t i) const { return nulls_.Test(i); }

  int64_t GetInt64(size_t i) const { return ints()[i]; }
  double GetDouble(size_t i) const { return doubles()[i]; }
  const std::string& GetString(size_t i) const { return strings()[i]; }

  Value GetValue(size_t i) const {
    if (IsNull(i)) return Value::Null();
    switch (type_) {
      case Type::kInt64: return Value(GetInt64(i));
      case Type::kDouble: return Value(GetDouble(i));
      case Type::kString: return Value(GetString(i));
    }
    return Value::Null();
  }

  const std::vector<int64_t>& ints() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  const std::vector<double>& doubles() const {
    return std::get<std::vector<double>>(data_);
  }
  const std::vector<std::string>& strings() const {
    return std::get<std::vector<std::string>>(data_);
  }
  std::vector<int64_t>& ints() { return std::get<std::vector<int64_t>>(data_); }
  std::vector<double>& doubles() {
    return std::get<std::vector<double>>(data_);
  }
  std::vector<std::string>& strings() {
    return std::get<std::vector<std::string>>(data_);
  }

  const Bitmap& nulls() const { return nulls_; }

  size_t MemoryBytes() const {
    size_t b = sizeof(*this) + nulls_.MemoryBytes();
    switch (type_) {
      case Type::kInt64: b += ints().capacity() * 8; break;
      case Type::kDouble: b += doubles().capacity() * 8; break;
      case Type::kString:
        // Whole vector allocation (slack slots included) + heap payloads.
        b += strings().capacity() * sizeof(std::string);
        for (const auto& s : strings()) b += s.capacity();
        break;
    }
    return b;
  }

 private:
  Type type_;
  std::variant<std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
  Bitmap nulls_;
  size_t size_ = 0;
};

}  // namespace htap

#endif  // HTAP_COLUMNAR_COLUMN_VECTOR_H_
