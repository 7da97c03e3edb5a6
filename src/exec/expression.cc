#include "exec/expression.h"

#include "types/schema.h"

namespace htap {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

Predicate Predicate::Compare(int column, CmpOp op, Value literal) {
  Predicate p;
  p.kind_ = Kind::kCompare;
  p.column_ = column;
  p.op_ = op;
  p.literal_ = std::move(literal);
  return p;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  if (children.size() == 1) return std::move(children[0]);
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.children_ = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  if (children.size() == 1) return std::move(children[0]);
  Predicate p;
  p.kind_ = Kind::kOr;
  p.children_ = std::move(children);
  return p;
}

Predicate Predicate::Not(Predicate child) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.children_.push_back(std::move(child));
  return p;
}

Predicate Predicate::Between(int col, Value lo, Value hi) {
  std::vector<Predicate> cs;
  cs.push_back(Ge(col, std::move(lo)));
  cs.push_back(Le(col, std::move(hi)));
  return And(std::move(cs));
}

namespace {

bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

bool CompareValues(const Value& lhs, CmpOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;  // SQL NULL semantics
  return ApplyCmp(op, lhs.Compare(rhs));
}

template <typename T>
int Cmp3(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

/// CompareValues(col[i], op, lit) without boxing col[i]: the same NULL,
/// numeric-promotion and numbers-before-strings rules as Value::Compare.
bool CompareCell(const ColumnVector& col, size_t i, CmpOp op,
                 const Value& lit) {
  if (col.IsNull(i) || lit.is_null()) return false;
  switch (col.type()) {
    case Type::kInt64: {
      const int64_t v = col.ints()[i];
      if (lit.is_int64()) return ApplyCmp(op, Cmp3(v, lit.AsInt64()));
      if (lit.is_double())
        return ApplyCmp(op, Cmp3(static_cast<double>(v), lit.AsDouble()));
      return ApplyCmp(op, -1);
    }
    case Type::kDouble:
      if (lit.is_string()) return ApplyCmp(op, -1);
      return ApplyCmp(op, Cmp3(col.doubles()[i], lit.AsDouble()));
    case Type::kString: {
      if (!lit.is_string()) return ApplyCmp(op, 1);
      const int c = col.strings()[i].compare(lit.AsString());
      return ApplyCmp(op, c < 0 ? -1 : (c > 0 ? 1 : 0));
    }
  }
  return false;
}

}  // namespace

template <typename CompareFn>
bool Predicate::EvalTree(const CompareFn& compare) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare:
      return compare(static_cast<size_t>(column_), op_, literal_);
    case Kind::kAnd:
      for (const auto& c : children_)
        if (!c.EvalTree(compare)) return false;
      return true;
    case Kind::kOr:
      for (const auto& c : children_)
        if (c.EvalTree(compare)) return true;
      return false;
    case Kind::kNot:
      return !children_[0].EvalTree(compare);
  }
  return false;
}

bool Predicate::Eval(const Row& row) const {
  return EvalTree([&](size_t col, CmpOp op, const Value& lit) {
    return CompareValues(row.Get(col), op, lit);
  });
}

bool Predicate::EvalColumns(const std::vector<Segment>& segments,
                            size_t i) const {
  return EvalTree([&](size_t col, CmpOp op, const Value& lit) {
    return CompareValues(segments[col].Get(i), op, lit);
  });
}

bool Predicate::EvalVectors(const std::vector<const ColumnVector*>& columns,
                            size_t i) const {
  return EvalTree([&](size_t col, CmpOp op, const Value& lit) {
    return CompareCell(*columns[col], i, op, lit);
  });
}

bool Predicate::CanSkipGroup(const std::vector<Segment>& segments) const {
  switch (kind_) {
    case Kind::kCompare: {
      const Segment& seg = segments[static_cast<size_t>(column_)];
      return seg.CanSkip(CmpOpName(op_), literal_);
    }
    case Kind::kAnd:
      for (const auto& c : children_)
        if (c.CanSkipGroup(segments)) return true;  // one impossible conjunct
      return false;
    default:
      return false;  // kTrue / kOr / kNot: never prove emptiness
  }
}

std::vector<const Predicate*> Predicate::Conjuncts() const {
  std::vector<const Predicate*> out;
  if (kind_ == Kind::kAnd) {
    for (const auto& c : children_) {
      auto sub = c.Conjuncts();
      out.insert(out.end(), sub.begin(), sub.end());
    }
  } else if (kind_ != Kind::kTrue) {
    out.push_back(this);
  }
  return out;
}

double Predicate::DefaultSelectivity() const {
  switch (kind_) {
    case Kind::kTrue:
      return 1.0;
    case Kind::kCompare:
      switch (op_) {
        case CmpOp::kEq: return 0.05;
        case CmpOp::kNe: return 0.95;
        default: return 0.3;
      }
    case Kind::kAnd: {
      double s = 1.0;
      for (const auto& c : children_) s *= c.DefaultSelectivity();
      return s;
    }
    case Kind::kOr: {
      double not_s = 1.0;
      for (const auto& c : children_) not_s *= 1.0 - c.DefaultSelectivity();
      return 1.0 - not_s;
    }
    case Kind::kNot:
      return 1.0 - children_[0].DefaultSelectivity();
  }
  return 1.0;
}

std::vector<int> Predicate::ReferencedColumns() const {
  std::vector<int> out;
  if (kind_ == Kind::kCompare) {
    out.push_back(column_);
    return out;
  }
  for (const auto& c : children_) {
    for (int col : c.ReferencedColumns()) {
      bool present = false;
      for (int existing : out) present |= existing == col;
      if (!present) out.push_back(col);
    }
  }
  return out;
}

std::string Predicate::ToString(const Schema* schema) const {
  auto col_name = [&](int c) {
    if (schema != nullptr) return schema->column(static_cast<size_t>(c)).name;
    return "$" + std::to_string(c);
  };
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCompare:
      return col_name(column_) + " " + CmpOpName(op_) + " " +
             literal_.ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " AND " : " OR ";
      std::string s = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) s += sep;
        s += children_[i].ToString(schema);
      }
      return s + ")";
    }
    case Kind::kNot:
      return "NOT " + children_[0].ToString(schema);
  }
  return "?";
}

}  // namespace htap
