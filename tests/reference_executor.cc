#include "reference_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

namespace htap {

namespace {

int CompareKeys(const Row& a, const Row& b, const std::vector<int>& cols) {
  for (int c : cols) {
    const int r = a.Get(static_cast<size_t>(c))
                      .Compare(b.Get(static_cast<size_t>(c)));
    if (r != 0) return r;
  }
  return 0;
}

Row Concat(const Row& l, const Row& r) {
  Row out = l;
  for (const Value& v : r.values()) out.Append(v);
  return out;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
    const int r = a.Get(c).Compare(b.Get(c));
    if (r != 0) return r < 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::vector<Row> ReferenceJoin(const std::vector<Row>& left,
                               const std::vector<Row>& right, int left_col,
                               int right_col) {
  std::vector<Row> out;
  for (const Row& l : left) {
    const Value& k = l.Get(static_cast<size_t>(left_col));
    if (k.is_null()) continue;
    for (const Row& r : right) {
      const Value& rk = r.Get(static_cast<size_t>(right_col));
      if (!rk.is_null() && rk == k) out.push_back(Concat(l, r));
    }
  }
  return out;
}

std::vector<Row> ReferenceAggregate(const std::vector<Row>& rows,
                                    const std::vector<int>& group_cols,
                                    const std::vector<AggSpec>& aggs) {
  std::vector<size_t> idx(rows.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return CompareKeys(rows[a], rows[b], group_cols) < 0;
  });
  std::vector<std::pair<size_t, Row>> groups;  // (first row, output)
  for (size_t lo = 0; lo < idx.size();) {
    size_t hi = lo + 1;
    while (hi < idx.size() &&
           CompareKeys(rows[idx[lo]], rows[idx[hi]], group_cols) == 0)
      ++hi;
    // Members in input order (the stable sort kept it within the run).
    Row out;
    for (int c : group_cols)
      out.Append(rows[idx[lo]].Get(static_cast<size_t>(c)));
    for (const AggSpec& a : aggs) {
      int64_t count = 0;
      double sum = 0;
      Value best;
      for (size_t k = lo; k < hi; ++k) {
        if (a.column < 0) {
          ++count;
          continue;
        }
        const Value& v = rows[idx[k]].Get(static_cast<size_t>(a.column));
        if (v.is_null()) continue;
        if (count == 0 ||
            (a.fn == AggSpec::Fn::kMin ? v < best : best < v))
          best = v;
        ++count;
        if (!v.is_string()) sum += v.AsDouble();
      }
      switch (a.fn) {
        case AggSpec::Fn::kCount: out.Append(Value(count)); break;
        case AggSpec::Fn::kSum:
          out.Append(count > 0 ? Value(sum) : Value::Null());
          break;
        case AggSpec::Fn::kAvg:
          out.Append(count > 0 ? Value(sum / static_cast<double>(count))
                               : Value::Null());
          break;
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax:
          out.Append(best);
          break;
      }
    }
    groups.emplace_back(idx[lo], std::move(out));
    lo = hi;
  }
  if (groups.empty() && group_cols.empty()) {
    Row out;
    for (const AggSpec& a : aggs)
      out.Append(a.fn == AggSpec::Fn::kCount ? Value(int64_t{0})
                                             : Value::Null());
    return {out};
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Row> result;
  for (auto& g : groups) result.push_back(std::move(g.second));
  return result;
}

Result<std::vector<Row>> ReferenceTable(Database* db,
                                        const std::string& table) {
  QueryPlan scan;
  scan.table = table;
  scan.path = PathHint::kForceRow;
  HTAP_ASSIGN_OR_RETURN(QueryResult r, db->Query(scan));
  return std::move(r.rows);
}

Result<std::vector<Row>> ReferenceQuery(Database* db, const QueryPlan& plan) {
  const auto filtered =
      [db](const std::string& table,
           const Predicate& pred) -> Result<std::vector<Row>> {
    HTAP_ASSIGN_OR_RETURN(std::vector<Row> all, ReferenceTable(db, table));
    std::vector<Row> out;
    for (Row& r : all)
      if (pred.Eval(r)) out.push_back(std::move(r));
    return out;
  };
  HTAP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        filtered(plan.table, plan.where));
  std::vector<JoinClause> joins;
  if (plan.has_join)
    joins.push_back(JoinClause{plan.join_table, plan.join_where,
                               plan.left_col, plan.right_col});
  joins.insert(joins.end(), plan.joins.begin(), plan.joins.end());
  for (const JoinClause& j : joins) {
    HTAP_ASSIGN_OR_RETURN(const std::vector<Row> right,
                          filtered(j.table, j.where));
    rows = ReferenceJoin(rows, right, j.left_col, j.right_col);
  }
  if (!plan.aggs.empty()) {
    rows = ReferenceAggregate(rows, plan.group_by, plan.aggs);
  } else if (!plan.projection.empty()) {
    for (Row& r : rows) {
      Row p;
      for (int c : plan.projection) p.Append(r.Get(static_cast<size_t>(c)));
      r = std::move(p);
    }
  }
  if (plan.order_by >= 0) {
    const auto col = static_cast<size_t>(plan.order_by);
    std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      const int c = a.Get(col).Compare(b.Get(col));
      return plan.order_desc ? c > 0 : c < 0;
    });
  }
  if (plan.limit != 0 && rows.size() > plan.limit) rows.resize(plan.limit);
  return rows;
}

bool Identical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Type::kInt64: return a.AsInt64() == b.AsInt64();
    case Type::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case Type::kString: return a.AsString() == b.AsString();
  }
  return false;
}

bool Close(const Value& a, const Value& b) {
  if (!a.is_double() || !b.is_double()) return Identical(a, b);
  const double x = a.AsDouble(), y = b.AsDouble();
  return std::fabs(x - y) <=
         1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

void ExpectRowsMatch(const std::vector<Row>& got,
                     const std::vector<Row>& want, bool exact,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what << " row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& g = got[r].Get(c);
      const Value& w = want[r].Get(c);
      ASSERT_TRUE(exact ? Identical(g, w) : Close(g, w))
          << what << " row " << r << " col " << c << ": got "
          << got[r].ToString() << " want " << want[r].ToString();
    }
  }
}

void ExpectMatchesReference(Database* db, const QueryPlan& plan, bool ordered,
                            const std::string& what, std::vector<Row>* got) {
  auto want = ReferenceQuery(db, plan);
  ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
  auto res = db->Query(plan);
  ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
  if (got != nullptr) *got = res->rows;
  std::vector<Row> g = std::move(res->rows);
  std::vector<Row> w = std::move(*want);
  if (!ordered) {
    std::sort(g.begin(), g.end(), RowLess);
    std::sort(w.begin(), w.end(), RowLess);
  }
  ExpectRowsMatch(g, w, /*exact=*/false, what);
}

std::vector<Row> ScanHtapRows(const ColumnTable& table,
                              const DeltaReader* delta, CSN snapshot,
                              const Predicate& pred,
                              const std::vector<int>& projection,
                              const ExecContext& exec, ScanStats* stats) {
  return BatchesToRows(
      ScanHtapBatches(table, delta, snapshot, pred, projection, exec, stats));
}

std::vector<Row> HashJoinRows(const std::vector<Row>& left,
                              const Schema& left_schema,
                              const std::vector<Row>& right,
                              const Schema& right_schema, int left_col,
                              int right_col, const ExecContext& exec,
                              JoinStats* stats) {
  const auto lb = RowsToBatches(left, left_schema, {}, 0);
  const auto rb = RowsToBatches(right, right_schema, {}, 0);
  const std::vector<size_t> weights = EstimateBatchRowBytes(rb);
  const JoinPairs pairs = HashJoinPairsKeys(
      ExtractJoinKeys(lb, left_col), ExtractJoinKeys(rb, right_col), exec,
      stats, exec.join_spill_budget_bytes > 0 ? &weights : nullptr);
  const std::vector<Row> l = BatchesToRows(lb);
  const std::vector<Row> r = BatchesToRows(rb);
  std::vector<Row> out;
  out.reserve(pairs.size());
  for (const auto& [p, b] : pairs) out.push_back(Concat(l[p], r[b]));
  return out;
}

size_t RowsBytes(const std::vector<Row>& rows, const Schema& schema) {
  const std::vector<size_t> w =
      EstimateBatchRowBytes(RowsToBatches(rows, schema, {}, 0));
  return std::accumulate(w.begin(), w.end(), size_t{0});
}

std::vector<Row> AggregateRows(const std::vector<Row>& rows,
                               const Schema& schema,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec, AggStats* stats) {
  return HashAggregate(RowsToBatches(rows, schema, {}, 4096), group_cols,
                       aggs, exec, stats);
}

}  // namespace htap
