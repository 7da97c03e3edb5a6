// Columnar store tests: encodings round-trip (property, all encodings x
// value shapes), zone maps and skipping, row groups, delete bitmaps,
// key index, compaction.

#include <gtest/gtest.h>

#include "columnar/column_table.h"
#include "common/random.h"

namespace htap {
namespace {

ColumnVector MakeInts(std::initializer_list<int64_t> vals) {
  ColumnVector v(Type::kInt64);
  for (int64_t x : vals) v.AppendInt64(x);
  return v;
}

TEST(EncodingTest, PlainRoundTripAllTypes) {
  ColumnVector ints(Type::kInt64);
  ints.AppendInt64(1);
  ints.AppendNull();
  ints.AppendInt64(-5);
  ColumnVector strs(Type::kString);
  strs.AppendString("a");
  strs.AppendString("bb");
  strs.AppendNull();
  ColumnVector dbls(Type::kDouble);
  dbls.AppendDouble(1.5);
  dbls.AppendDouble(-2.25);

  for (const ColumnVector* v : {&ints, &strs, &dbls}) {
    const ColumnVector out = Decode(Encode(*v, EncodingType::kPlain));
    ASSERT_EQ(out.size(), v->size());
    for (size_t i = 0; i < v->size(); ++i)
      EXPECT_EQ(out.GetValue(i), v->GetValue(i));
  }
}

TEST(EncodingTest, DictionaryCompressesLowCardinality) {
  ColumnVector v(Type::kString);
  for (int i = 0; i < 1000; ++i) v.AppendString(i % 4 == 0 ? "red" : "blue");
  const EncodedColumn enc = Encode(v, EncodingType::kDictionary);
  EXPECT_EQ(enc.strings.size(), 2u);  // the dictionary
  EXPECT_LT(enc.MemoryBytes(), v.MemoryBytes());
  const ColumnVector out = Decode(enc);
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out.GetString(i), v.GetString(i));
}

TEST(EncodingTest, RleCompressesRuns) {
  ColumnVector v(Type::kInt64);
  for (int run = 0; run < 10; ++run)
    for (int i = 0; i < 100; ++i) v.AppendInt64(run);
  const EncodedColumn enc = Encode(v, EncodingType::kRle);
  EXPECT_EQ(enc.ints.size(), 10u);
  EXPECT_EQ(enc.run_ends.back(), 1000u);
  // Random access through the run index.
  EXPECT_EQ(EncodedGet(enc, 0).AsInt64(), 0);
  EXPECT_EQ(EncodedGet(enc, 99).AsInt64(), 0);
  EXPECT_EQ(EncodedGet(enc, 100).AsInt64(), 1);
  EXPECT_EQ(EncodedGet(enc, 999).AsInt64(), 9);
}

TEST(EncodingTest, ForBitPackNarrowRange) {
  ColumnVector v(Type::kInt64);
  Random rng(5);
  for (int i = 0; i < 500; ++i)
    v.AppendInt64(1000000 + static_cast<int64_t>(rng.Uniform(100)));
  const EncodedColumn enc = Encode(v, EncodingType::kForBitPack);
  ASSERT_EQ(enc.encoding, EncodingType::kForBitPack);
  EXPECT_LE(enc.bit_width, 7);
  EXPECT_LT(enc.packed.size() * 8, 500u * 8);  // packed smaller than plain
  const ColumnVector out = Decode(enc);
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out.GetInt64(i), v.GetInt64(i));
}

TEST(EncodingTest, ForBitPackFallsBackOnWideRange) {
  ColumnVector v(Type::kInt64);
  v.AppendInt64(std::numeric_limits<int64_t>::min());
  v.AppendInt64(std::numeric_limits<int64_t>::max());
  const EncodedColumn enc = Encode(v, EncodingType::kForBitPack);
  EXPECT_EQ(enc.encoding, EncodingType::kPlain);
  EXPECT_EQ(EncodedGet(enc, 0).AsInt64(), std::numeric_limits<int64_t>::min());
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  // Long runs -> RLE.
  ColumnVector runs(Type::kInt64);
  for (int i = 0; i < 256; ++i) runs.AppendInt64(i / 64);
  EXPECT_EQ(ChooseEncoding(runs), EncodingType::kRle);
  // Low-cardinality strings -> dictionary.
  ColumnVector lowcard(Type::kString);
  Random rng(3);
  for (int i = 0; i < 256; ++i)
    lowcard.AppendString("v" + std::to_string(rng.Uniform(5)));
  EXPECT_EQ(ChooseEncoding(lowcard), EncodingType::kDictionary);
  // Narrow-range ints -> FOR bit-pack.
  ColumnVector narrow(Type::kInt64);
  for (int i = 0; i < 256; ++i)
    narrow.AppendInt64(static_cast<int64_t>(rng.Uniform(1000)));
  EXPECT_EQ(ChooseEncoding(narrow), EncodingType::kForBitPack);
}

// Property: encode∘decode == identity for every encoding on randomized data
// (with nulls), parameterized over encoding type.
class EncodingRoundTripTest
    : public ::testing::TestWithParam<EncodingType> {};

TEST_P(EncodingRoundTripTest, RandomIntsWithNulls) {
  Random rng(static_cast<uint64_t>(GetParam()) + 100);
  ColumnVector v(Type::kInt64);
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.05))
      v.AppendNull();
    else
      v.AppendInt64(static_cast<int64_t>(rng.Uniform(500)));
  }
  const EncodedColumn enc = Encode(v, GetParam());
  const ColumnVector out = Decode(enc);
  ASSERT_EQ(out.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(out.IsNull(i), v.IsNull(i)) << i;
    EXPECT_EQ(out.GetValue(i), v.GetValue(i)) << i;
    EXPECT_EQ(EncodedGet(enc, i), v.GetValue(i)) << i;
  }
}

TEST_P(EncodingRoundTripTest, RandomStrings) {
  if (GetParam() == EncodingType::kForBitPack) GTEST_SKIP();
  Random rng(static_cast<uint64_t>(GetParam()) + 200);
  ColumnVector v(Type::kString);
  for (int i = 0; i < 1000; ++i)
    v.AppendString("s" + std::to_string(rng.Uniform(30)));
  const ColumnVector out = Decode(Encode(v, GetParam()));
  ASSERT_EQ(out.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out.GetString(i), v.GetString(i));
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodingRoundTripTest,
                         ::testing::Values(EncodingType::kPlain,
                                           EncodingType::kDictionary,
                                           EncodingType::kRle,
                                           EncodingType::kForBitPack));

TEST(SegmentTest, ZoneMapMinMax) {
  const Segment s = Segment::Build(MakeInts({5, 2, 9, 7}));
  EXPECT_EQ(s.min().AsInt64(), 2);
  EXPECT_EQ(s.max().AsInt64(), 9);
  EXPECT_FALSE(s.has_nulls());
}

TEST(SegmentTest, CanSkipSemantics) {
  const Segment s = Segment::Build(MakeInts({10, 20, 30}));
  EXPECT_TRUE(s.CanSkip("=", Value(int64_t{5})));
  EXPECT_FALSE(s.CanSkip("=", Value(int64_t{20})));
  EXPECT_TRUE(s.CanSkip("<", Value(int64_t{10})));   // nothing below min
  EXPECT_FALSE(s.CanSkip("<", Value(int64_t{11})));
  EXPECT_TRUE(s.CanSkip(">", Value(int64_t{30})));   // nothing above max
  EXPECT_FALSE(s.CanSkip(">", Value(int64_t{29})));
  EXPECT_TRUE(s.CanSkip(">=", Value(int64_t{31})));
  EXPECT_TRUE(s.CanSkip("<=", Value(int64_t{9})));
  EXPECT_FALSE(s.CanSkip("!=", Value(int64_t{20})));  // never skippable
}

TEST(SegmentTest, AllNullSegmentSkipsEverything) {
  ColumnVector v(Type::kInt64);
  v.AppendNull();
  v.AppendNull();
  const Segment s = Segment::Build(v);
  EXPECT_TRUE(s.CanSkip("=", Value(int64_t{0})));
  EXPECT_TRUE(s.has_nulls());
}

Schema TableSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"s", Type::kString}});
}

Row TRow(Key id, int64_t v, const std::string& s = "x") {
  return Row{Value(id), Value(v), Value(s)};
}

TEST(ColumnTableTest, AppendAndMaterialize) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20)}, 5);
  EXPECT_EQ(t.num_groups(), 1u);
  EXPECT_EQ(t.live_rows(), 2u);
  EXPECT_EQ(t.merged_csn(), 5u);
  const RowGroup* g = t.group(0);
  EXPECT_EQ(t.MaterializeRow(*g, 1), TRow(2, 20));
}

TEST(ColumnTableTest, UpsertDeleteMarksOldPosition) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20)}, 1);
  t.AppendBatch({TRow(1, 11)}, 2);  // update of key 1
  EXPECT_EQ(t.live_rows(), 2u);
  size_t gi, off;
  ASSERT_TRUE(t.FindKey(1, &gi, &off));
  EXPECT_EQ(gi, 1u);  // newest position wins
  EXPECT_EQ(t.MaterializeRow(*t.group(gi), off).Get(1).AsInt64(), 11);
}

TEST(ColumnTableTest, KeyRepeatedInOneBatchKeepsOneLivePosition) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20), TRow(1, 11)}, 1);
  EXPECT_EQ(t.live_rows(), 2u);
  size_t gi, off;
  ASSERT_TRUE(t.FindKey(1, &gi, &off));
  EXPECT_EQ(off, 2u);
  EXPECT_EQ(t.MaterializeRow(*t.group(gi), off).Get(1).AsInt64(), 11);
}

TEST(ColumnTableTest, DeleteKey) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 10), TRow(2, 20)}, 1);
  EXPECT_TRUE(t.DeleteKey(1, 2));
  EXPECT_FALSE(t.DeleteKey(99, 3));
  EXPECT_EQ(t.live_rows(), 1u);
  size_t gi, off;
  EXPECT_FALSE(t.FindKey(1, &gi, &off));
}

TEST(ColumnTableTest, CompactDropsDeletedRows) {
  ColumnTable t(TableSchema());
  for (int b = 0; b < 5; ++b) {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(TRow(b * 100 + i, i));
    t.AppendBatch(rows, static_cast<CSN>(b + 1));
  }
  for (Key k = 0; k < 500; k += 2) t.DeleteKey(k, 10);
  EXPECT_EQ(t.live_rows(), 250u);
  t.Compact();
  EXPECT_EQ(t.num_groups(), 1u);
  EXPECT_EQ(t.live_rows(), 250u);
  size_t gi, off;
  EXPECT_TRUE(t.FindKey(1, &gi, &off));
  EXPECT_FALSE(t.FindKey(2, &gi, &off));
}

TEST(ColumnTableTest, CompactSmallTailKeepsEarlierGroupsAndTheKeyIndex) {
  ColumnTable t(TableSchema());
  auto batch = [](Key first, int n, int64_t v) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) rows.push_back(TRow(first + i, v));
    return rows;
  };
  t.AppendBatch(batch(0, 100, 0), 1);    // group 0: large
  t.AppendBatch(batch(100, 3, 1), 2);    // group 1: small, before a large
  t.AppendBatch(batch(200, 100, 2), 3);  // group 2: large
  t.AppendBatch(batch(300, 3, 3), 4);    // groups 3-5: the small tail
  t.AppendBatch(batch(303, 3, 3), 5);
  t.AppendBatch({TRow(5, 7), TRow(250, 8)}, 6);  // updates keys 5 and 250
  t.DeleteKey(301, 7);
  const RowGroup* const kept[] = {t.group(0), t.group(1), t.group(2)};

  EXPECT_FALSE(t.CompactSmallTail(50, 3));  // a run of 3: not longer
  EXPECT_TRUE(t.CompactSmallTail(50, 2));
  ASSERT_EQ(t.num_groups(), 4u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(t.group(i), kept[i]);
  EXPECT_EQ(t.group(3)->num_rows, 7u);  // 300, 302..305, 5 and 250
  EXPECT_EQ(t.live_rows(), 208u);
  EXPECT_EQ(t.dead_rows(), 2u);  // the old versions of keys 5 and 250

  size_t gi, off;
  ASSERT_TRUE(t.FindKey(250, &gi, &off));
  EXPECT_EQ(gi, 3u);
  EXPECT_EQ(t.MaterializeRow(*t.group(gi), off), TRow(250, 8));
  ASSERT_TRUE(t.FindKey(102, &gi, &off));
  EXPECT_EQ(gi, 1u);
  EXPECT_FALSE(t.FindKey(301, &gi, &off));
  // Later upserts and deletes find the rewritten positions.
  t.AppendBatch({TRow(5, 9), TRow(304, 9)}, 8);
  EXPECT_TRUE(t.DeleteKey(250, 9));
  EXPECT_EQ(t.live_rows(), 207u);
  EXPECT_EQ(t.dead_rows(), 5u);
}

TEST(ColumnTableTest, ClearResetsEverything) {
  ColumnTable t(TableSchema());
  t.AppendBatch({TRow(1, 1)}, 9);
  t.Clear();
  EXPECT_EQ(t.num_groups(), 0u);
  EXPECT_EQ(t.live_rows(), 0u);
  EXPECT_EQ(t.merged_csn(), 0u);
}

TEST(ColumnTableTest, SegmentsGetCompressedEncodings) {
  ColumnTable t(TableSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i)
    rows.push_back(TRow(i, i / 100, "tag" + std::to_string(i % 3)));
  t.AppendBatch(rows, 1);
  const RowGroup* g = t.group(0);
  // v has long runs -> RLE; s has 3 distinct values -> dictionary.
  EXPECT_EQ(g->columns[1].encoding(), EncodingType::kRle);
  EXPECT_EQ(g->columns[2].encoding(), EncodingType::kDictionary);
}

}  // namespace
}  // namespace htap
