// Predicates and aggregate specifications for the execution layer.
//
// Predicates are trees of comparisons against literals combined with
// AND/OR. Columns are referenced positionally (the planner resolves names).
// Conjunctive predicates drive zone-map skipping in the columnar scan.

#ifndef HTAP_EXEC_EXPRESSION_H_
#define HTAP_EXEC_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/segment.h"
#include "types/row.h"

namespace htap {

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// A boolean expression tree over a row.
class Predicate {
 public:
  enum class Kind : uint8_t { kTrue, kCompare, kAnd, kOr, kNot };

  /// Always-true predicate (scan everything).
  Predicate() : kind_(Kind::kTrue) {}

  static Predicate True() { return Predicate(); }
  static Predicate Compare(int column, CmpOp op, Value literal);
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);
  static Predicate Not(Predicate child);

  // Convenience builders.
  static Predicate Eq(int col, Value v) { return Compare(col, CmpOp::kEq, std::move(v)); }
  static Predicate Ne(int col, Value v) { return Compare(col, CmpOp::kNe, std::move(v)); }
  static Predicate Lt(int col, Value v) { return Compare(col, CmpOp::kLt, std::move(v)); }
  static Predicate Le(int col, Value v) { return Compare(col, CmpOp::kLe, std::move(v)); }
  static Predicate Gt(int col, Value v) { return Compare(col, CmpOp::kGt, std::move(v)); }
  static Predicate Ge(int col, Value v) { return Compare(col, CmpOp::kGe, std::move(v)); }
  /// lo <= col <= hi.
  static Predicate Between(int col, Value lo, Value hi);

  Kind kind() const { return kind_; }
  int column() const { return column_; }
  CmpOp op() const { return op_; }
  const Value& literal() const { return literal_; }
  const std::vector<Predicate>& children() const { return children_; }

  bool is_true() const { return kind_ == Kind::kTrue; }

  /// Evaluates against a full row. SQL three-valued logic collapsed to
  /// binary: comparisons against NULL are false.
  bool Eval(const Row& row) const;

  /// Evaluates against one position of a row group's segments.
  bool EvalColumns(const std::vector<Segment>& segments, size_t i) const;

  /// Evaluates against cell i of typed column vectors (the delta chunks),
  /// with the same semantics as Eval and no Value boxing per cell.
  bool EvalVectors(const std::vector<const ColumnVector*>& columns,
                   size_t i) const;

  /// True if zone maps prove no row in these segments can match. Only
  /// conjunctive structure is exploited (OR nodes are never skipped on).
  bool CanSkipGroup(const std::vector<Segment>& segments) const;

  /// Flattens an AND tree into conjuncts (self if not an AND).
  std::vector<const Predicate*> Conjuncts() const;

  /// Estimated selectivity given no statistics (textbook constants); the
  /// optimizer refines this with real stats when available.
  double DefaultSelectivity() const;

  /// Set of columns referenced.
  std::vector<int> ReferencedColumns() const;

  std::string ToString(const Schema* schema = nullptr) const;

 private:
  /// Walks the tree; `compare(column, op, literal)` decides each leaf.
  template <typename CompareFn>
  bool EvalTree(const CompareFn& compare) const;

  Kind kind_;
  int column_ = -1;
  CmpOp op_ = CmpOp::kEq;
  Value literal_;
  std::vector<Predicate> children_;
};

/// One aggregate in a GROUP BY / scalar aggregate query.
struct AggSpec {
  enum class Fn : uint8_t { kCount, kSum, kMin, kMax, kAvg };
  Fn fn = Fn::kCount;
  int column = -1;  // -1 for COUNT(*)
  std::string name;

  static AggSpec Count(std::string name = "count") {
    return AggSpec{Fn::kCount, -1, std::move(name)};
  }
  static AggSpec Sum(int col, std::string name = "sum") {
    return AggSpec{Fn::kSum, col, std::move(name)};
  }
  static AggSpec Min(int col, std::string name = "min") {
    return AggSpec{Fn::kMin, col, std::move(name)};
  }
  static AggSpec Max(int col, std::string name = "max") {
    return AggSpec{Fn::kMax, col, std::move(name)};
  }
  static AggSpec Avg(int col, std::string name = "avg") {
    return AggSpec{Fn::kAvg, col, std::move(name)};
  }
};

}  // namespace htap

#endif  // HTAP_EXEC_EXPRESSION_H_
