// Tests for types/: Value semantics, comparison, hashing, codec; Schema
// validation; Row codec; the packed row-image codec (seeded property test).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "types/row.h"
#include "types/row_image.h"
#include "types/schema.h"
#include "types/value.h"

namespace htap {
namespace {

TEST(ValueTest, NullSemantics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(Value::Null(), Value());
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_EQ(Value(int64_t{7}).type(), Type::kInt64);
  EXPECT_EQ(Value(1.0).type(), Type::kDouble);
  EXPECT_EQ(Value("x").type(), Type::kString);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_LT(Value::Null().Compare(Value("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
  // Numbers sort before strings (total order for mixed columns).
  EXPECT_LT(Value(int64_t{999}).Compare(Value("0")), 0);
}

TEST(ValueTest, HashConsistentForEqualValues) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("key").Hash(), Value("key").Hash());
  // Integral doubles hash like their integers (join-key compatibility).
  EXPECT_EQ(Value(5.0).Hash(), Value(int64_t{5}).Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
}

TEST(ValueTest, CodecRoundTrip) {
  const Value cases[] = {Value::Null(), Value(int64_t{-17}),
                         Value(int64_t{1} << 62), Value(2.75), Value(""),
                         Value("hello world"), Value(std::string(1000, 'x'))};
  std::string buf;
  for (const Value& v : cases) v.EncodeTo(&buf);
  size_t pos = 0;
  for (const Value& expected : cases) {
    Value got;
    ASSERT_TRUE(Value::DecodeFrom(buf, &pos, &got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(ValueTest, DecodeRejectsTruncation) {
  std::string buf;
  Value("hello").EncodeTo(&buf);
  buf.resize(buf.size() - 2);
  size_t pos = 0;
  Value out;
  EXPECT_FALSE(Value::DecodeFrom(buf, &pos, &out));
}

TEST(SchemaTest, ValidateRequirements) {
  EXPECT_TRUE(Schema({{"id", Type::kInt64}}).Validate().ok());
  EXPECT_FALSE(Schema(std::vector<ColumnDef>{}).Validate().ok());
  // PK must be INT64.
  EXPECT_FALSE(Schema({{"name", Type::kString}}).Validate().ok());
  // Duplicate names rejected.
  EXPECT_FALSE(Schema({{"a", Type::kInt64}, {"a", Type::kInt64}})
                   .Validate()
                   .ok());
  // PK index out of range rejected.
  EXPECT_FALSE(Schema({{"id", Type::kInt64}}, 3).Validate().ok());
}

TEST(SchemaTest, FindColumnAndProject) {
  Schema s({{"id", Type::kInt64}, {"name", Type::kString},
            {"price", Type::kDouble}});
  EXPECT_EQ(s.FindColumn("price"), 2);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  Schema p = s.Project({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "price");
  EXPECT_EQ(p.column(1).name, "id");
}

TEST(RowTest, KeyExtraction) {
  Schema s({{"a", Type::kString}, {"id", Type::kInt64}}, /*pk_index=*/1);
  ASSERT_TRUE(s.Validate().ok());
  Row r{Value("x"), Value(int64_t{99})};
  EXPECT_EQ(r.GetKey(s), 99);
}

TEST(RowTest, CodecRoundTrip) {
  Row r{Value(int64_t{1}), Value::Null(), Value(2.5), Value("abc")};
  std::string buf;
  r.EncodeTo(&buf);
  size_t pos = 0;
  Row got;
  ASSERT_TRUE(Row::DecodeFrom(buf, &pos, &got));
  EXPECT_EQ(got, r);
}

TEST(RowTest, EmptyRowRoundTrip) {
  Row r;
  std::string buf;
  r.EncodeTo(&buf);
  size_t pos = 0;
  Row got{Value(int64_t{1})};
  ASSERT_TRUE(Row::DecodeFrom(buf, &pos, &got));
  EXPECT_TRUE(got.empty());
}

// ---- Packed row images ----------------------------------------------------

Schema RandomSchema(Random* rng) {
  const size_t n = 1 + rng->Uniform(20);
  const auto pk = static_cast<int>(rng->Uniform(n));
  std::vector<ColumnDef> cols;
  for (size_t c = 0; c < n; ++c) {
    const Type t = static_cast<int>(c) == pk
                       ? Type::kInt64
                       : static_cast<Type>(rng->Uniform(3));
    cols.emplace_back(std::to_string(c), t);
  }
  return Schema(std::move(cols), pk);
}

Value RandomCell(Random* rng, Type t) {
  switch (t) {
    case Type::kInt64: {
      static const int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max(), 0,
                                       -1};
      if (rng->Bernoulli(0.4)) return Value(kEdges[rng->Uniform(4)]);
      return Value(static_cast<int64_t>(rng->Next64()));
    }
    case Type::kDouble: {
      static const double kEdges[] = {
          -0.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min()};
      if (rng->Bernoulli(0.4)) return Value(kEdges[rng->Uniform(5)]);
      // An INT64 cell fits a DOUBLE column; the image stores it widened.
      if (rng->Bernoulli(0.2))
        return Value(static_cast<int64_t>(rng->UniformRange(-1000, 1000)));
      double d;
      const uint64_t bits = rng->Next64();
      std::memcpy(&d, &bits, 8);
      return Value(d);
    }
    case Type::kString: {
      static const size_t kLens[] = {0, 1, 7, 15, 16, 64, 65, 300};
      return Value(rng->NextString(kLens[rng->Uniform(8)]));
    }
  }
  return Value();
}

Row RandomRow(Random* rng, const Schema& schema, double null_p) {
  std::vector<Value> cells;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const bool key = static_cast<int>(c) == schema.pk_index();
    cells.push_back(!key && rng->Bernoulli(null_p)
                        ? Value()
                        : RandomCell(rng, schema.column(c).type));
  }
  return Row(std::move(cells));
}

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

// Cell-exact equality: the decoded cell has the column's type, and doubles
// match bit for bit (Value's == equates NaN with anything and -0.0 with 0).
void ExpectCellsEqual(const Schema& schema, const Row& want, const Row& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const Value& w = want.Get(c);
    const Value& g = got.Get(c);
    ASSERT_EQ(g.is_null(), w.is_null());
    if (w.is_null()) continue;
    switch (schema.column(c).type) {
      case Type::kInt64:
        ASSERT_TRUE(g.is_int64());
        EXPECT_EQ(g.AsInt64(), w.AsInt64());
        break;
      case Type::kDouble:
        ASSERT_TRUE(g.is_double());
        EXPECT_EQ(DoubleBits(g.AsDouble()), DoubleBits(w.AsDouble()));
        break;
      case Type::kString:
        ASSERT_TRUE(g.is_string());
        EXPECT_EQ(g.AsString(), w.AsString());
        break;
    }
  }
}

// Encodes into buffers pre-filled with two different bytes: the images must
// agree on all EncodedSize bytes (every one was written) and the guard bytes
// past them must be untouched (none beyond was).
void CheckRoundTrip(const Schema& schema, const RowImageLayout& layout,
                    const Row& row, Row* scratch) {
  ASSERT_TRUE(CheckRow(schema, row).ok()) << row.ToString();
  const size_t size = layout.EncodedSize(row);
  constexpr size_t kGuard = 16;
  std::vector<uint8_t> zeros(size + kGuard, 0x00);
  std::vector<uint8_t> ones(size + kGuard, 0xFF);
  layout.Encode(row, zeros.data());
  layout.Encode(row, ones.data());
  ASSERT_EQ(0, std::memcmp(zeros.data(), ones.data(), size));
  for (size_t i = size; i < size + kGuard; ++i) {
    ASSERT_EQ(zeros[i], 0x00);
    ASSERT_EQ(ones[i], 0xFF);
  }
  EXPECT_EQ(layout.ImageSize(zeros.data()), size);
  layout.Decode(zeros.data(), scratch);
  ExpectCellsEqual(schema, row, *scratch);
}

TEST(RowImageTest, PropertyRoundTripOverRandomSchemas) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const Schema schema = RandomSchema(&rng);
    ASSERT_TRUE(schema.Validate().ok());
    const RowImageLayout layout(schema);
    // One scratch Row across every decode of the seed, as a scan reuses it:
    // each decode overwrites cells of another type, nullness or length.
    Row scratch;
    // Every non-key column NULL, then none NULL, then mixed.
    CheckRoundTrip(schema, layout, RandomRow(&rng, schema, 1.0), &scratch);
    CheckRoundTrip(schema, layout, RandomRow(&rng, schema, 0.0), &scratch);
    for (int i = 0; i < 20; ++i)
      CheckRoundTrip(schema, layout, RandomRow(&rng, schema, 0.3), &scratch);
    if (HasFatalFailure()) return;
  }
}

TEST(RowImageTest, LayoutSizesMatchTheDocumentedFormat) {
  const Schema ints({{"a", Type::kInt64}, {"b", Type::kInt64},
                     {"c", Type::kInt64}, {"d", Type::kInt64},
                     {"e", Type::kInt64}, {"f", Type::kInt64},
                     {"g", Type::kInt64}, {"h", Type::kInt64},
                     {"i", Type::kInt64}, {"j", Type::kInt64}});
  std::vector<Value> cells;
  for (int64_t i = 0; i < 10; ++i) cells.emplace_back(i);
  // Ten 8-byte slots and a two-byte null bitmap.
  EXPECT_EQ(RowImageLayout(ints).EncodedSize(Row(cells)), 82u);

  const Schema mixed({{"id", Type::kInt64}, {"s", Type::kString},
                      {"t", Type::kString}});
  const RowImageLayout layout(mixed);
  // Three slots, one bitmap byte, then the string bytes; NULL adds none.
  EXPECT_EQ(layout.EncodedSize(Row{Value(int64_t{1}), Value(""), Value()}),
            25u);
  EXPECT_EQ(layout.EncodedSize(Row{Value(int64_t{1}),
                                   Value(std::string(100, 'x')), Value("ab")}),
            127u);
}

}  // namespace
}  // namespace htap
