#include "columnar/segment.h"

namespace htap {

Segment Segment::Build(const ColumnVector& values) {
  return BuildWithEncoding(values, ChooseEncoding(values));
}

namespace {

/// Zone map over the non-null cells, in one typed pass: the first of equal
/// extremes is kept, as Value ordering would.
template <typename T>
void TypedZoneMap(const ColumnVector& values, const std::vector<T>& vals,
                  Value* min, Value* max, bool* has_nulls) {
  const T* mn = nullptr;
  const T* mx = nullptr;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (values.IsNull(i)) {
      *has_nulls = true;
      continue;
    }
    const T& v = vals[i];
    if (mn == nullptr) {
      mn = mx = &v;
    } else {
      if (v < *mn) mn = &v;
      if (*mx < v) mx = &v;
    }
  }
  if (mn != nullptr) {
    *min = Value(*mn);
    *max = Value(*mx);
  }
}

}  // namespace

Segment Segment::BuildWithEncoding(const ColumnVector& values,
                                   EncodingType enc) {
  Segment s;
  s.data_ = Encode(values, enc);
  switch (values.type()) {
    case Type::kInt64:
      TypedZoneMap(values, values.ints(), &s.min_, &s.max_, &s.has_nulls_);
      break;
    case Type::kDouble:
      TypedZoneMap(values, values.doubles(), &s.min_, &s.max_,
                   &s.has_nulls_);
      break;
    case Type::kString:
      TypedZoneMap(values, values.strings(), &s.min_, &s.max_,
                   &s.has_nulls_);
      break;
  }
  return s;
}

bool Segment::CanSkip(const std::string& op, const Value& v) const {
  if (min_.is_null()) return true;  // empty or all-NULL segment
  if (op == "=") return v < min_ || max_ < v;
  if (op == "<") return !(min_ < v);   // need min < v
  if (op == "<=") return v < min_;
  if (op == ">") return !(v < max_);   // need max > v
  if (op == ">=") return max_ < v;
  return false;  // "!=" and unknown ops: cannot skip
}

}  // namespace htap
