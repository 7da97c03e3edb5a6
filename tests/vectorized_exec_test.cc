// Vectorized execution tests (DESIGN.md §12): compressed-domain predicate
// evaluation must make exactly the scalar Value::Compare decisions on every
// encoding, gather must materialize selections losslessly, and the batch
// pipeline (ScanHtapBatches -> FilterBatch / batch HashAggregate / extracted
// join keys) must match the references in tests/reference_executor.h —
// serial and parallel, end to end on every architecture — plus the
// compression advisor's size-based encoding picks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "columnar/compression_advisor.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/segment_filter.h"
#include "reference_executor.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64},
                 {"v", Type::kInt64},
                 {"cat", Type::kString},
                 {"price", Type::kDouble}});
}

Row TRow(Key id, int64_t v, const std::string& cat, double price) {
  return Row{Value(id), Value(v), Value(cat), Value(price)};
}

std::vector<uint32_t> AllSel(size_t n) {
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

// The scalar reference the compressed-domain paths must reproduce exactly.
std::vector<uint32_t> RefFilter(const ColumnVector& v,
                                const std::vector<uint32_t>& sel, CmpOp op,
                                const Value& lit) {
  std::vector<uint32_t> out;
  for (uint32_t i : sel) {
    if (v.IsNull(i) || lit.is_null()) continue;
    if (CmpKeep(v.GetValue(i).Compare(lit), op)) out.push_back(i);
  }
  return out;
}

const CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
const EncodingType kAllEncodings[] = {EncodingType::kPlain,
                                      EncodingType::kDictionary,
                                      EncodingType::kRle,
                                      EncodingType::kForBitPack};

ColumnVector IntShape() {
  ColumnVector v(Type::kInt64);
  for (int i = 0; i < 600; ++i) {
    if (i % 13 == 5)
      v.AppendNull();
    else
      v.AppendInt64((i / 25) % 12);  // runs + narrow range + repeats
  }
  return v;
}

ColumnVector StringShape() {
  ColumnVector v(Type::kString);
  const char* tags[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 400; ++i) {
    if (i % 17 == 2)
      v.AppendNull();
    else
      v.AppendString(tags[(i / 20) % 3]);
  }
  return v;
}

ColumnVector DoubleShape() {
  ColumnVector v(Type::kDouble);
  for (int i = 0; i < 300; ++i) {
    if (i % 11 == 7)
      v.AppendNull();
    else
      v.AppendDouble((i % 40) * 0.25);
  }
  return v;
}

TEST(SegmentFilterTest, MatchesScalarReferenceOnEveryEncoding) {
  struct Case {
    ColumnVector values;
    std::vector<Value> literals;
  };
  std::vector<Case> cases;
  cases.push_back({IntShape(),
                   {Value(int64_t{0}), Value(int64_t{7}), Value(int64_t{99}),
                    Value(4.5), Value(5.0), Value::Null()}});
  cases.push_back({StringShape(),
                   {Value("beta"), Value("aaaa"), Value("zzz"),
                    Value::Null()}});
  cases.push_back({DoubleShape(),
                   {Value(0.25), Value(5.0), Value(-1.0), Value(int64_t{3}),
                    Value::Null()}});
  for (const Case& c : cases) {
    // A partial input selection exercises the refinement contract.
    std::vector<uint32_t> sparse;
    for (size_t i = 0; i < c.values.size(); i += 3)
      sparse.push_back(static_cast<uint32_t>(i));
    for (EncodingType e : kAllEncodings) {
      const Segment seg = Segment::BuildWithEncoding(c.values, e);
      for (CmpOp op : kAllOps) {
        for (const Value& lit : c.literals) {
          SCOPED_TRACE(std::string(EncodingName(e)) + " " + CmpOpName(op) +
                       " " + lit.ToString());
          for (const std::vector<uint32_t>* base :
               {static_cast<const std::vector<uint32_t>*>(&sparse),
                static_cast<const std::vector<uint32_t>*>(nullptr)}) {
            std::vector<uint32_t> sel =
                base != nullptr ? *base : AllSel(c.values.size());
            const std::vector<uint32_t> expect =
                RefFilter(c.values, sel, op, lit);
            FilterSegmentSelection(seg, op, lit, &sel);
            ASSERT_EQ(sel, expect);
            // The zone-map skip test may only claim "skip" when the
            // exhaustive result is empty.
            if (SegmentCanSkip(seg, op, lit)) EXPECT_TRUE(expect.empty());
          }
        }
      }
    }
  }
}

TEST(SegmentFilterTest, GatherMaterializesSelectionLosslessly) {
  const ColumnVector shapes[] = {IntShape(), StringShape(), DoubleShape()};
  for (const ColumnVector& v : shapes) {
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < v.size(); ++i)
      if (i % 3 == 0 || i % 13 == 5) sel.push_back(static_cast<uint32_t>(i));
    for (EncodingType e : kAllEncodings) {
      const Segment seg = Segment::BuildWithEncoding(v, e);
      ColumnVector out(v.type());
      GatherSegment(seg, sel, &out);
      ASSERT_EQ(out.size(), sel.size()) << EncodingName(e);
      for (size_t k = 0; k < sel.size(); ++k)
        ASSERT_EQ(out.GetValue(k), v.GetValue(sel[k]))
            << EncodingName(e) << " pos " << sel[k];
    }
  }
}

TEST(BatchTest, FilterBatchMatchesPredicateEval) {
  ColumnBatch batch;
  batch.columns.emplace_back(IntShape());
  ColumnVector s(Type::kString);
  ColumnVector d(Type::kDouble);
  const char* tags[] = {"x", "y", "z"};
  for (size_t i = 0; i < batch.columns[0].size(); ++i) {
    if (i % 19 == 4)
      s.AppendNull();
    else
      s.AppendString(tags[i % 3]);
    d.AppendDouble(static_cast<double>(i % 50) * 0.5);
  }
  batch.columns.push_back(std::move(s));
  batch.columns.push_back(std::move(d));

  struct F {
    int col;
    CmpOp op;
    Value lit;
  };
  const std::vector<F> filters = {{0, CmpOp::kGe, Value(int64_t{4})},
                                  {1, CmpOp::kEq, Value("y")},
                                  {2, CmpOp::kLt, Value(12.0)},
                                  {1, CmpOp::kNe, Value::Null()}};
  for (const F& f : filters) {
    ColumnBatch b = batch;  // fresh all-active selection each time
    std::vector<uint32_t> expect =
        RefFilter(b.columns[f.col], AllSel(b.rows()), f.op, f.lit);
    FilterBatch(&b, f.col, f.op, f.lit);
    EXPECT_EQ(b.sel, expect);
    EXPECT_EQ(b.active(), expect.size());
  }
  // Chained filters refine the same selection.
  ColumnBatch b = batch;
  FilterBatch(&b, 0, CmpOp::kGe, Value(int64_t{4}));
  FilterBatch(&b, 1, CmpOp::kEq, Value("y"));
  std::vector<uint32_t> expect =
      RefFilter(batch.columns[0], AllSel(batch.rows()), CmpOp::kGe,
                Value(int64_t{4}));
  expect = RefFilter(batch.columns[1], expect, CmpOp::kEq, Value("y"));
  EXPECT_EQ(b.sel, expect);
}

// Shared fixture: a multi-group table with positional deletes and a delta
// carrying updates, a delete, and inserts — the full HTAP union shape.
class VectorizedScanTest : public ::testing::Test {
 protected:
  VectorizedScanTest()
      : table_(TestSchema()), delta_(TestSchema()), pool_(4, "vec-ap") {
    std::vector<Row> batch;
    for (Key id = 0; id < 512; ++id) {
      batch.push_back(TRow(id, id % 13, id % 2 ? "odd" : "even", id * 0.25));
      if (batch.size() == 64) {
        table_.AppendBatch(batch, 1);
        batch.clear();
      }
    }
    for (Key id = 7; id < 512; id += 31) table_.DeleteKey(id, 2);
    for (Key id = 3; id < 512; id += 97) {
      DeltaEntry e;
      e.op = ChangeOp::kUpdate;
      e.key = id;
      e.row = TRow(id, 7777, "patched", 1.5);
      e.csn = 10;
      delta_.Append(e);
    }
    DeltaEntry del;
    del.op = ChangeOp::kDelete;
    del.key = 20;
    del.csn = 11;
    delta_.Append(del);
    for (Key id = 9000; id < 9008; ++id) {
      DeltaEntry ins;
      ins.op = ChangeOp::kInsert;
      ins.key = id;
      ins.row = TRow(id, 1, "new", 2.0);
      ins.csn = 12;
      delta_.Append(ins);
    }
  }

  ExecContext Serial(size_t batch_rows = 4096) {
    ExecContext e;
    e.batch_rows = batch_rows;
    return e;
  }
  ExecContext Par(size_t batch_rows = 4096) {
    ExecContext e{&pool_, 4};
    e.batch_rows = batch_rows;
    return e;
  }

  ColumnTable table_;
  InMemoryDeltaStore delta_;
  ThreadPool pool_;
};

/// The fixture's table state at snapshot kMaxCSN - 1, computed from what
/// the constructor wrote: keys 0..511 minus the main deletes, with the
/// delta's updates, delete and inserts applied — ordered by key.
std::vector<Row> ExpectedState() {
  std::map<Key, Row> state;
  for (Key id = 0; id < 512; ++id)
    if (id < 7 || (id - 7) % 31 != 0)
      state[id] = TRow(id, id % 13, id % 2 ? "odd" : "even", id * 0.25);
  for (Key id = 3; id < 512; id += 97)
    state[id] = TRow(id, 7777, "patched", 1.5);
  state.erase(20);
  for (Key id = 9000; id < 9008; ++id) state[id] = TRow(id, 1, "new", 2.0);
  std::vector<Row> out;
  for (auto& [k, r] : state) out.push_back(r);
  return out;
}

std::vector<Row> SortedByKey(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.Get(0).AsInt64() < b.Get(0).AsInt64();
  });
  return rows;
}

TEST_F(VectorizedScanTest, BatchesMatchExpectedStateAtEveryBatchSize) {
  const std::vector<Predicate> preds = {
      Predicate::True(),
      Predicate::Ge(0, Value(int64_t{100})),
      Predicate::And({Predicate::Ge(1, Value(int64_t{3})),
                      Predicate::Eq(2, Value("odd"))}),
      Predicate::Eq(2, Value("patched")),
      Predicate::Gt(3, Value(100.0)),
      Predicate::Between(0, Value(int64_t{60}), Value(int64_t{70})),
  };
  const std::vector<Row> state = ExpectedState();
  for (const Predicate& pred : preds) {
    std::vector<Row> expect;
    for (const Row& r : state)
      if (pred.Eval(r)) expect.push_back(r);
    // The serial scan at one batch per group is the order every other
    // batch size and thread count must reproduce.
    ScanStats row_st;
    const auto rows = ScanHtapRows(table_, &delta_, kMaxCSN - 1, pred, {},
                                   Serial(0), &row_st);
    EXPECT_EQ(SortedByKey(rows), expect) << pred.ToString(nullptr);
    for (const std::vector<int>& proj :
         {std::vector<int>{}, std::vector<int>{0, 3}, std::vector<int>{2}}) {
      std::vector<Row> projected;
      for (const Row& r : rows) {
        if (proj.empty()) {
          projected.push_back(r);
          continue;
        }
        Row p;
        for (int c : proj) p.Append(r.Get(static_cast<size_t>(c)));
        projected.push_back(std::move(p));
      }
      for (size_t batch_rows : {size_t{4096}, size_t{7}, size_t{0}}) {
        for (bool parallel : {false, true}) {
          SCOPED_TRACE(pred.ToString(nullptr) + " batch_rows=" +
                       std::to_string(batch_rows) +
                       (parallel ? " par" : " ser"));
          ScanStats st;
          const auto batches = ScanHtapBatches(
              table_, &delta_, kMaxCSN - 1, pred, proj,
              parallel ? Par(batch_rows) : Serial(batch_rows), &st);
          EXPECT_EQ(BatchesToRows(batches), projected);
          EXPECT_EQ(TotalActiveRows(batches), rows.size());
          EXPECT_EQ(st.groups_total, row_st.groups_total);
          EXPECT_EQ(st.groups_skipped, row_st.groups_skipped);
          EXPECT_EQ(st.main_rows_emitted, row_st.main_rows_emitted);
          EXPECT_EQ(st.delta_rows_emitted, row_st.delta_rows_emitted);
          if (batch_rows != 0) {
            for (const ColumnBatch& b : batches)
              EXPECT_LE(b.rows(), batch_rows);
          }
        }
      }
    }
  }
}

// Satellite of the typed-filter work: int64 and string columns must take
// the same decisions as generic row-at-a-time Predicate::Eval (the double
// fast path has this coverage in parallel_scan_test).
TEST_F(VectorizedScanTest, Int64AndStringFastPathsMatchGenericEval) {
  const std::vector<Predicate> preds = {
      Predicate::Lt(1, Value(int64_t{4})), Predicate::Ge(0, Value(int64_t{400})),
      Predicate::Eq(1, Value(int64_t{0})), Predicate::Ne(1, Value(int64_t{7})),
      Predicate::Gt(1, Value(2.5)),  // double literal vs int column
      Predicate::Eq(2, Value("odd")), Predicate::Ne(2, Value("even")),
      Predicate::Lt(2, Value("f")),  Predicate::Ge(2, Value("odd")),
  };
  const auto all =
      ScanHtapRows(table_, &delta_, kMaxCSN - 1, Predicate::True(), {});
  for (const Predicate& pred : preds) {
    std::vector<Row> expect;
    for (const Row& r : all)
      if (pred.Eval(r)) expect.push_back(r);
    EXPECT_EQ(ScanHtapRows(table_, &delta_, kMaxCSN - 1, pred, {}), expect)
        << pred.ToString(nullptr);
    EXPECT_EQ(ScanHtapRows(table_, &delta_, kMaxCSN - 1, pred, {}, Par(7)),
              expect)
        << pred.ToString(nullptr);
  }
}

TEST_F(VectorizedScanTest, BatchAggregateMatchesReferenceAggregate) {
  const auto batches = ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                       Predicate::True(), {}, Serial(100));
  const auto rows = BatchesToRows(batches);
  const std::vector<AggSpec> aggs = {
      AggSpec::Count("n"), AggSpec::Sum(1, "s"), AggSpec::Min(3, "mn"),
      AggSpec::Max(3, "mx"), AggSpec::Avg(1, "avg")};
  // Same groups in the same (first-seen) order; the sums are of integers,
  // so the parallel merge matches exactly too.
  for (const std::vector<int>& groups :
       {std::vector<int>{}, std::vector<int>{2}, std::vector<int>{1, 2}}) {
    const auto expect = ReferenceAggregate(rows, groups, aggs);
    for (bool parallel : {false, true})
      EXPECT_EQ(
          HashAggregate(batches, groups, aggs, parallel ? Par() : Serial()),
          expect)
          << (parallel ? "parallel" : "serial");
  }
  // Batches with refined selections aggregate only active positions.
  auto filtered = batches;
  for (ColumnBatch& b : filtered)
    FilterBatch(&b, 1, CmpOp::kGe, Value(int64_t{5}));
  std::vector<Row> kept;
  for (const Row& r : rows)
    if (Predicate::Ge(1, Value(int64_t{5})).Eval(r)) kept.push_back(r);
  EXPECT_EQ(HashAggregate(filtered, {2}, aggs, Serial()),
            ReferenceAggregate(kept, {2}, aggs));
  // Empty input still yields the one global-aggregate row.
  const auto empty = HashAggregate(std::vector<ColumnBatch>{}, {},
                                   {AggSpec::Count("n")}, Serial());
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].Get(0).AsInt64(), 0);
}

/// Nested-loop (probe, build) index pairs: NULL keys never match, others
/// by Value::operator==.
JoinPairs ReferencePairs(const std::vector<Row>& probe,
                         const std::vector<Row>& build, int col) {
  JoinPairs out;
  const auto c = static_cast<size_t>(col);
  for (size_t i = 0; i < probe.size(); ++i)
    for (size_t j = 0; j < build.size(); ++j)
      if (!probe[i].Get(c).is_null() && !build[j].Get(c).is_null() &&
          probe[i].Get(c) == build[j].Get(c))
        out.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
  return out;
}

TEST_F(VectorizedScanTest, ExtractedJoinKeysMatchReferencePairs) {
  std::vector<Row> probe, build;
  for (Key id = 0; id < 700; ++id) {
    Row r = TRow(id, id % 43, id % 2 ? "odd" : "even", id * 0.5);
    if (id % 19 == 6) r.Set(1, Value::Null());
    probe.push_back(std::move(r));
  }
  for (Key id = 0; id < 300; ++id) {
    Row r = TRow(id, id % 43, "b" + std::to_string(id % 5), 1.0);
    if (id % 23 == 3) r.Set(1, Value::Null());
    build.push_back(std::move(r));
  }
  const auto pbatches = RowsToBatches(probe, TestSchema(), {}, 64);
  const auto bbatches = RowsToBatches(build, TestSchema(), {}, 64);
  for (int key_col : {1, 2}) {  // int keys and string keys
    const auto expect = ReferencePairs(probe, build, key_col);
    const JoinKeyColumn pk = ExtractJoinKeys(pbatches, key_col);
    const JoinKeyColumn bk = ExtractJoinKeys(bbatches, key_col);
    for (bool parallel : {false, true}) {
      ExecContext exec = parallel ? Par() : Serial();
      exec.min_parallel_join_build = 1;
      JoinStats js;
      EXPECT_EQ(HashJoinPairsKeys(pk, bk, exec, &js), expect)
          << "col " << key_col << (parallel ? " par" : " ser");
      EXPECT_EQ(js.build_rows, build.size());
      EXPECT_EQ(js.probe_rows, probe.size());
    }
    // Narrow hash mask: collisions force the key-confirm path.
    ExecContext masked;
    masked.join_hash_mask = 0x7;
    EXPECT_EQ(HashJoinPairsKeys(pk, bk, masked, nullptr), expect);
  }
  // Keys extracted from scan batches (delta rows under a selection vector
  // included) join like the scan's rows.
  const auto batches = ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                       Predicate::True(), {}, Serial(64));
  EXPECT_EQ(HashJoinPairsKeys(ExtractJoinKeys(batches, 2),
                              ExtractJoinKeys(bbatches, 2), Serial()),
            ReferencePairs(BatchesToRows(batches), build, 2));
}

TEST(CompressionAdvisorTest, CollectSegmentStatsCounts) {
  ColumnVector v(Type::kString);
  v.AppendString("a");
  v.AppendString("a");
  v.AppendNull();
  v.AppendString("b");
  v.AppendString("b");
  v.AppendString("a");
  const SegmentValueStats st = CollectSegmentStats(v);
  EXPECT_EQ(st.rows, 6u);
  EXPECT_EQ(st.nulls, 1u);
  // Raw slot values: "a","a","","b","b","a" -> distinct {a, "", b}.
  EXPECT_EQ(st.distinct, 3u);
  EXPECT_EQ(st.runs, 4u);
  EXPECT_EQ(st.string_bytes, 5u);

  ColumnVector ints(Type::kInt64);
  for (int64_t x : {40, 40, 40, 55, 55, 70}) ints.AppendInt64(x);
  const SegmentValueStats si = CollectSegmentStats(ints);
  EXPECT_EQ(si.distinct, 3u);
  EXPECT_EQ(si.runs, 3u);
  EXPECT_EQ(si.int_min, 40);
  EXPECT_EQ(si.int_max, 70);
}

TEST(CompressionAdvisorTest, PicksEncodingBySmallestEstimatedFootprint) {
  // Cycling low-cardinality strings: no runs to exploit, tiny dictionary.
  ColumnVector cyc(Type::kString);
  const char* tags[] = {"red", "green", "blue"};
  for (int i = 0; i < 512; ++i) cyc.AppendString(tags[i % 3]);
  EXPECT_EQ(AdviseEncoding(cyc).chosen, EncodingType::kDictionary);

  // Long runs: RLE beats everything.
  ColumnVector runs(Type::kInt64);
  for (int i = 0; i < 1000; ++i) runs.AppendInt64(i / 100);
  EXPECT_EQ(AdviseEncoding(runs).chosen, EncodingType::kRle);

  // Wide-but-framable random ints: FOR bit-packing.
  ColumnVector narrow(Type::kInt64);
  for (int i = 0; i < 512; ++i)
    narrow.AppendInt64(1000000 + (i * 2654435761u) % 1024);
  EXPECT_EQ(AdviseEncoding(narrow).chosen, EncodingType::kForBitPack);

  // High-entropy doubles: nothing is applicable or wins -> PLAIN.
  ColumnVector dbl(Type::kDouble);
  for (int i = 0; i < 512; ++i) dbl.AppendDouble(i * 1.618033988749);
  const CompressionAdvice a = AdviseEncoding(dbl);
  EXPECT_EQ(a.chosen, EncodingType::kPlain);
  EXPECT_FALSE(
      a.candidates[static_cast<size_t>(EncodingType::kDictionary)].applicable);
  EXPECT_FALSE(
      a.candidates[static_cast<size_t>(EncodingType::kForBitPack)].applicable);

  // Every applicable estimate is filled in and the chosen one is minimal
  // among winners of the PLAIN bias.
  const CompressionAdvice r = AdviseEncoding(runs);
  const size_t plain =
      r.candidates[static_cast<size_t>(EncodingType::kPlain)].bytes;
  const size_t rle =
      r.candidates[static_cast<size_t>(EncodingType::kRle)].bytes;
  EXPECT_LT(rle, plain - plain / 8);
}

TEST(CompressionAdvisorTest, ColumnTableReencodesSegmentsWhenEnabled) {
  // Ints in [0, 2^33): ChooseEncoding's fixed range<2^32 gate rejects FOR,
  // but the advisor's size estimate (33 bits/value vs 64) picks it.
  const Schema schema({{"id", Type::kInt64}, {"w", Type::kInt64}});
  std::vector<Row> rows;
  for (Key id = 0; id < 1000; ++id)
    rows.push_back(
        Row{Value(id), Value(static_cast<int64_t>(
                           static_cast<int64_t>(id) * 4294967311LL %
                           (int64_t{1} << 33)))});
  ColumnTable plain_t(schema), advised_t(schema);
  advised_t.EnableCompressionAdvisor(true);
  plain_t.AppendBatch(rows, 1);
  advised_t.AppendBatch(rows, 1);
  EXPECT_EQ(plain_t.group(0)->columns[1].encoding(), EncodingType::kPlain);
  EXPECT_EQ(advised_t.group(0)->columns[1].encoding(),
            EncodingType::kForBitPack);
  EXPECT_LT(advised_t.group(0)->columns[1].MemoryBytes(),
            plain_t.group(0)->columns[1].MemoryBytes());
  // Scans read the re-encoded segments identically.
  EXPECT_EQ(
      ScanHtapRows(advised_t, nullptr, kMaxCSN - 1, Predicate::True(), {}),
      ScanHtapRows(plain_t, nullptr, kMaxCSN - 1, Predicate::True(), {}));

  // The per-encoding breakdown reflects what was built.
  const EncodingBreakdown bd = advised_t.EncodingStats();
  size_t total_segments = 0, total_bytes = 0;
  for (size_t e = 0; e < kNumEncodings; ++e) {
    total_segments += bd.segments[e];
    total_bytes += bd.bytes[e];
  }
  EXPECT_EQ(total_segments, 2u);  // one group x two columns
  EXPECT_GT(bd.segments[static_cast<size_t>(EncodingType::kForBitPack)], 0u);
  EXPECT_GT(total_bytes, 0u);
}

// End-to-end: on every architecture, batch size and thread count, the
// single-table plans must return the reference executor's rows, and the
// SQL spelling of each must return the plan's.
TEST(VectorizedDatabaseTest, QueriesMatchReferenceOnEveryArchitecture) {
  struct Case {
    std::string sql;
    QueryPlan plan;
  };
  std::vector<Case> cases(4);
  cases[0].sql = "SELECT id, price FROM t WHERE v >= 5 ORDER BY id";
  cases[0].plan.where = Predicate::Ge(1, Value(int64_t{5}));
  cases[0].plan.projection = {0, 3};
  cases[0].plan.order_by = 0;
  cases[1].sql = "SELECT * FROM t WHERE cat = 'odd' AND v < 3 ORDER BY id";
  cases[1].plan.where = Predicate::And(
      {Predicate::Eq(2, Value("odd")), Predicate::Lt(1, Value(int64_t{3}))});
  cases[1].plan.order_by = 0;
  cases[2].sql =
      "SELECT cat, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY cat "
      "ORDER BY cat";
  cases[2].plan.group_by = {2};
  cases[2].plan.aggs = {AggSpec::Count("n"), AggSpec::Sum(1, "s")};
  cases[2].plan.order_by = 0;
  cases[3].sql =
      "SELECT COUNT(*) AS n, MIN(price) AS mn, MAX(price) AS mx FROM t";
  cases[3].plan.aggs = {AggSpec::Count("n"), AggSpec::Min(3, "mn"),
                        AggSpec::Max(3, "mx")};
  for (Case& c : cases) c.plan.table = "t";

  for (ArchitectureKind arch :
       {ArchitectureKind::kRowPlusInMemoryColumn,
        ArchitectureKind::kDistributedRowPlusColumnReplica,
        ArchitectureKind::kDiskRowPlusDistributedColumn,
        ArchitectureKind::kColumnPlusDeltaRow}) {
    for (size_t batch_rows : {size_t{0}, size_t{7}, size_t{4096}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        const std::string label =
            "arch=" + std::to_string(static_cast<int>(arch)) +
            " batch_rows=" + std::to_string(batch_rows) +
            " threads=" + std::to_string(threads);
        // A fresh directory per database: architecture (c) keeps its heap
        // files there.
        const std::string dir = ::testing::TempDir() + "vectorized_db_" +
                                std::to_string(::getpid());
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        DatabaseOptions opts;
        opts.architecture = arch;
        opts.data_dir = dir;
        opts.background_sync = false;
        opts.vectorized_batch_rows = batch_rows;
        opts.parallel_scan_threads = threads;
        auto res = Database::Open(opts);
        ASSERT_TRUE(res.ok());
        std::unique_ptr<Database> db = std::move(*res);
        ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
        for (Key id = 0; id < 240; ++id)
          ASSERT_TRUE(db->InsertRow("t", TRow(id, id % 9,
                                              id % 2 ? "odd" : "even",
                                              id * 0.5))
                          .ok());
        ASSERT_TRUE(db->ForceSyncAll().ok());
        for (const Case& c : cases) {
          ExpectMatchesReference(db.get(), c.plan, /*ordered=*/true,
                                 label + " " + c.sql);
          auto sql = db->ExecuteSql(c.sql);
          auto plan = db->Query(c.plan);
          ASSERT_TRUE(sql.ok() && plan.ok()) << label << " " << c.sql;
          EXPECT_EQ(sql->rows, plan->rows) << label << " " << c.sql;
        }
        QueryExecInfo info;
        ASSERT_TRUE(db->ExecuteSql("SELECT id FROM t WHERE v >= 5", &info)
                        .ok());
        EXPECT_TRUE(info.vectorized) << label;
        if (arch == ArchitectureKind::kDistributedRowPlusColumnReplica) {
          db.reset();
          std::filesystem::remove_all(dir);
          continue;  // the learners report no per-encoding breakdown
        }
        // The advisor (on by default) surfaces per-encoding footprints.
        const EngineStats st = db->Stats();
        size_t segs = 0, bytes = 0;
        for (size_t e = 0; e < kNumEncodings; ++e) {
          segs += st.column_encodings.segments[e];
          bytes += st.column_encodings.bytes[e];
        }
        EXPECT_GT(segs, 0u) << label;
        EXPECT_GT(bytes, 0u) << label;
        EXPECT_LE(bytes, st.column_store_bytes) << label;
        db.reset();
        std::filesystem::remove_all(dir);
      }
    }
  }
}

}  // namespace
}  // namespace htap
