// HashAggregate property test (DESIGN.md §§7, 12): the typed group table,
// fed batches serially or with partial tables on a pool, against the
// deliberately naive sort-based reference aggregate of the tests' reference
// executor (tests/reference_executor.h).
//
// Inputs are seeded and randomized: 0-3 group columns of int64, double and
// string (NULL keys included, and ±0.0 in double keys), NULL inputs, all
// five functions, 1 to 100 000 groups (the large counts force table growth),
// batches of 7 rows, 4096 rows or one batch for all, and selection vectors.
// Serial output must equal the reference value for value, in first-seen
// group order; parallel output must match that order with sums within 1e-9
// relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "reference_executor.h"

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

// ---- Inputs ----------------------------------------------------------------

struct Shape {
  std::vector<Type> keys;  // group column types, in layout order
};

Value RandomCell(Random* rng, Type t, uint64_t range) {
  switch (t) {
    case Type::kInt64:
      return Value(static_cast<int64_t>(rng->Uniform(range)) -
                   static_cast<int64_t>(range / 2));
    case Type::kDouble:
      return Value(static_cast<double>(rng->Uniform(range)) * 0.5 -
                   static_cast<double>(range / 4));
    case Type::kString:
      return Value(rng->NextString(1 + rng->Uniform(3)) +
                   std::to_string(rng->Uniform(range)));
  }
  return Value::Null();
}

/// Rows of [group keys..., int64 v, double v, string v]. Exactly `groups`
/// distinct key tuples each appear at least once, in random order, among
/// `n` rows. Key and input cells are NULL with some probability, and a
/// double key of zero is written as 0.0 or -0.0 at random.
std::vector<Row> MakeRows(uint64_t seed, const Shape& shape, size_t groups,
                          size_t n) {
  Random rng(seed);
  const size_t nk = shape.keys.size();
  std::vector<Row> pool;
  if (nk == 0) {
    pool.emplace_back();
  } else {
    auto less = [nk](const Row& a, const Row& b) {
      std::vector<int> cols(nk);
      std::iota(cols.begin(), cols.end(), 0);
      return CompareKeys(a, b, cols) < 0;
    };
    std::set<Row, decltype(less)> seen(less);
    const uint64_t range = 4 * groups + 8;
    while (pool.size() < groups) {
      Row key;
      for (Type t : shape.keys)
        key.Append(rng.Bernoulli(0.03) ? Value::Null()
                                       : RandomCell(&rng, t, range));
      if (seen.insert(key).second) pool.push_back(std::move(key));
    }
  }
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row r = pool[i < pool.size() ? i : rng.Uniform(pool.size())];
    for (size_t k = 0; k < nk; ++k)
      if (r.Get(k).is_double() && r.Get(k).AsDouble() == 0.0)
        r.Set(k, Value(rng.Bernoulli(0.5) ? -0.0 : 0.0));
    r.Append(rng.Bernoulli(0.1) ? Value::Null()
                                : RandomCell(&rng, Type::kInt64, 2'000'000));
    r.Append(rng.Bernoulli(0.1) ? Value::Null()
                                : Value(rng.NextDouble() * 2000.0 - 1000.0));
    r.Append(rng.Bernoulli(0.1) ? Value::Null()
                                : RandomCell(&rng, Type::kString, 1000));
    rows.push_back(std::move(r));
  }
  // Shuffle so first-seen order is not pool order.
  for (size_t i = rows.size(); i > 1; --i)
    std::swap(rows[i - 1], rows[rng.Uniform(i)]);
  return rows;
}

Schema LayoutSchema(const Shape& shape) {
  std::vector<ColumnDef> cols;
  for (size_t k = 0; k < shape.keys.size(); ++k)
    cols.emplace_back("k" + std::to_string(k), shape.keys[k]);
  cols.emplace_back("vi", Type::kInt64);
  cols.emplace_back("vd", Type::kDouble);
  cols.emplace_back("vs", Type::kString);
  return Schema(cols);
}

/// COUNT(*) plus every function on the input columns (SUM and AVG on the
/// numeric ones only).
std::vector<AggSpec> AllAggs(int nk) {
  const int vi = nk, vd = nk + 1, vs = nk + 2;
  return {AggSpec::Count("n"),     AggSpec{AggSpec::Fn::kCount, vi, "ci"},
          AggSpec::Sum(vi, "si"),  AggSpec::Avg(vi, "ai"),
          AggSpec::Min(vi, "mni"), AggSpec::Max(vi, "mxi"),
          AggSpec::Sum(vd, "sd"),  AggSpec::Avg(vd, "ad"),
          AggSpec::Min(vd, "mnd"), AggSpec::Max(vd, "mxd"),
          AggSpec{AggSpec::Fn::kCount, vs, "cs"},
          AggSpec::Min(vs, "mns"), AggSpec::Max(vs, "mxs")};
}

std::string ShapeName(const Shape& s) {
  std::string out = "[";
  for (Type t : s.keys) out += std::string(TypeName(t)) + " ";
  return out + "]";
}

// ---- The property ----------------------------------------------------------

class AggregatePropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t threads : {size_t{2}, size_t{4}}) {
      pools_.push_back(std::make_unique<ThreadPool>(threads, "agg-test"));
      ExecContext exec;
      exec.pool = pools_.back().get();
      exec.max_parallelism = threads;
      execs_.push_back(exec);
    }
  }

  /// Checks every batch size and execution mode against the reference.
  void Check(const std::vector<Row>& rows, const Shape& shape,
             const std::string& what,
             const std::vector<size_t>& batch_sizes = {0, 7, 4096}) {
    const int nk = static_cast<int>(shape.keys.size());
    std::vector<int> groups(static_cast<size_t>(nk));
    std::iota(groups.begin(), groups.end(), 0);
    const std::vector<AggSpec> aggs = AllAggs(nk);
    const std::vector<Row> want = ReferenceAggregate(rows, groups, aggs);
    const Schema schema = LayoutSchema(shape);
    for (size_t batch_rows : batch_sizes) {
      const std::vector<ColumnBatch> batches =
          RowsToBatches(rows, schema, {}, batch_rows);
      const std::string b = what + " batch_rows=" + std::to_string(batch_rows);
      AggStats stats;
      ExpectRowsMatch(
          HashAggregate(batches, groups, aggs, ExecContext{}, &stats), want,
          true, b);
      EXPECT_EQ(stats.rows_in, rows.size());
      EXPECT_EQ(stats.workers, 1u);
      for (const ExecContext& exec : execs_) {
        AggStats pstats;
        ExpectRowsMatch(HashAggregate(batches, groups, aggs, exec, &pstats),
                        want, false, b + " parallel");
        EXPECT_EQ(pstats.rows_in, rows.size());
      }
    }
  }

  std::vector<std::unique_ptr<ThreadPool>> pools_;
  std::vector<ExecContext> execs_;
};

TEST_F(AggregatePropertyTest, MatchesReferenceAcrossShapesAndGroupCounts) {
  const std::vector<Shape> shapes = {
      {{}},
      {{Type::kInt64}},
      {{Type::kDouble}},
      {{Type::kString}},
      {{Type::kInt64, Type::kString}},
      {{Type::kDouble, Type::kInt64, Type::kString}},
  };
  uint64_t seed = 1;
  for (size_t groups : {size_t{1}, size_t{17}, size_t{5000}}) {
    for (const Shape& shape : shapes) {
      const size_t g = shape.keys.empty() ? 1 : groups;
      const auto rows = MakeRows(seed, shape, g, g + 20000);
      Check(rows, shape,
            "seed=" + std::to_string(seed) + " groups=" + std::to_string(g) +
                " keys=" + ShapeName(shape));
      ++seed;
    }
  }
}

TEST_F(AggregatePropertyTest, ManyGroupsForceTableGrowth) {
  for (const Shape& shape :
       {Shape{{Type::kInt64}}, Shape{{Type::kString, Type::kDouble}}}) {
    const uint64_t seed = 100 + shape.keys.size();
    const auto rows = MakeRows(seed, shape, 100000, 130000);
    Check(rows, shape,
          "seed=" + std::to_string(seed) + " groups=100000 keys=" +
              ShapeName(shape),
          {4096});
  }
}

TEST_F(AggregatePropertyTest, SelectionVectorsAggregateOnlyActiveRows) {
  const Shape shape{{Type::kInt64, Type::kString}};
  const auto rows = MakeRows(7, shape, 300, 20000);
  const std::vector<int> groups = {0, 1};
  const std::vector<AggSpec> aggs = AllAggs(2);
  const Predicate keep = Predicate::Ge(2, Value(int64_t{0}));
  std::vector<Row> kept;
  for (const Row& r : rows)
    if (keep.Eval(r)) kept.push_back(r);
  const std::vector<Row> want = ReferenceAggregate(kept, groups, aggs);
  for (size_t batch_rows : {size_t{0}, size_t{7}, size_t{4096}}) {
    auto batches = RowsToBatches(rows, LayoutSchema(shape), {}, batch_rows);
    for (ColumnBatch& b : batches)
      FilterBatch(&b, 2, CmpOp::kGe, Value(int64_t{0}));
    const std::string what = "batch_rows=" + std::to_string(batch_rows);
    ExpectRowsMatch(HashAggregate(batches, groups, aggs, ExecContext{}),
                    want, true, what);
    for (const ExecContext& exec : execs_)
      ExpectRowsMatch(HashAggregate(batches, groups, aggs, exec), want, false,
                      what + " parallel");
  }
}

TEST(AggregateTest, NullInputsAreSkippedButCountStarCountsRows) {
  const std::vector<Row> rows = {Row{Value("a"), Value(int64_t{4})},
                                 Row{Value("a"), Value::Null()},
                                 Row{Value("b"), Value::Null()}};
  const Schema schema({{"g", Type::kString}, {"x", Type::kInt64}});
  const auto out = AggregateRows(
      rows, schema, {0},
      {AggSpec::Count("n"), AggSpec{AggSpec::Fn::kCount, 1, "c"},
       AggSpec::Avg(1, "avg"), AggSpec::Max(1, "mx")});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].Get(1).AsInt64(), 2);       // COUNT(*)
  EXPECT_EQ(out[0].Get(2).AsInt64(), 1);       // COUNT(col)
  EXPECT_DOUBLE_EQ(out[0].Get(3).AsDouble(), 4.0);  // AVG over non-NULL
  EXPECT_EQ(out[1].Get(2).AsInt64(), 0);
  EXPECT_TRUE(out[1].Get(3).is_null());
  EXPECT_TRUE(out[1].Get(4).is_null());
  // COUNT(*) alone reads no column at all.
  const auto n = AggregateRows(rows, schema, {}, {AggSpec::Count("n")});
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0].Get(0).AsInt64(), 3);
}

}  // namespace
}  // namespace htap
