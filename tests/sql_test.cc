// SQL front-end tests: lexing/parsing of every statement kind, error
// handling, and binder behaviors not covered by the cross-architecture
// end-to-end test.

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/database.h"
#include "reference_executor.h"
#include "sql/sql.h"

namespace htap {
namespace {

using sql::Parse;
using sql::Statement;

TEST(SqlParserTest, SelectStarWithWhere) {
  auto res = Parse("SELECT * FROM t WHERE a > 5 AND b = 'x'");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& s = res->select;
  EXPECT_EQ(s.table, "t");
  ASSERT_EQ(s.items.size(), 1u);
  EXPECT_EQ(s.items[0].kind, sql::SelectItem::Kind::kStar);
  ASSERT_TRUE(s.where.has_value());
  EXPECT_EQ(s.where->kind, sql::Expr::Kind::kAnd);
}

TEST(SqlParserTest, AggregatesWithAliasesAndGroupBy) {
  auto res = Parse(
      "SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(qty), "
      "MIN(qty), MAX(qty) FROM orders GROUP BY region ORDER BY total DESC "
      "LIMIT 5;");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& s = res->select;
  EXPECT_EQ(s.items.size(), 6u);
  EXPECT_EQ(s.items[1].func, "COUNT");
  EXPECT_EQ(s.items[1].alias, "n");
  EXPECT_EQ(s.items[2].column, "amount");
  EXPECT_EQ(s.group_by, (std::vector<std::string>{"region"}));
  EXPECT_EQ(s.order_by, "total");
  EXPECT_TRUE(s.order_desc);
  EXPECT_EQ(s.limit, 5u);
}

TEST(SqlParserTest, JoinClause) {
  auto res = Parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z < 3");
  ASSERT_TRUE(res.ok());
  const auto& s = res->select;
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].table, "b");
  EXPECT_EQ(s.joins[0].left_col, "a.x");
  EXPECT_EQ(s.joins[0].right_col, "b.y");
}

TEST(SqlParserTest, ChainedJoinClauses) {
  auto res = Parse(
      "SELECT * FROM a JOIN b ON a.x = b.y INNER JOIN c ON b.z = c.w "
      "JOIN d ON c.u = d.v WHERE a.z < 3");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& s = res->select;
  ASSERT_EQ(s.joins.size(), 3u);
  EXPECT_EQ(s.joins[0].table, "b");
  EXPECT_EQ(s.joins[1].table, "c");
  EXPECT_EQ(s.joins[1].left_col, "b.z");
  EXPECT_EQ(s.joins[1].right_col, "c.w");
  EXPECT_EQ(s.joins[2].table, "d");
  EXPECT_EQ(s.joins[2].right_col, "d.v");
}

TEST(SqlParserTest, JoinParseErrors) {
  // Dangling or incomplete join clauses fail with a pointed message.
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b ON").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b ON x").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b ON x =").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a INNER b ON x = y").ok());

  auto st = Parse("SELECT * FROM a JOIN b WHERE x = 1").status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find("expected ON"), std::string::npos)
      << st.ToString();

  auto st2 = Parse("SELECT * FROM a JOIN b ON x < y").status();
  EXPECT_TRUE(st2.IsInvalidArgument());
  EXPECT_NE(st2.ToString().find("expected '='"), std::string::npos)
      << st2.ToString();
}

TEST(SqlParserTest, BetweenNotParensPrecedence) {
  auto res = Parse(
      "SELECT * FROM t WHERE (a BETWEEN 1 AND 10 OR NOT b = 2) AND c != 3");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& w = *res->select.where;
  EXPECT_EQ(w.kind, sql::Expr::Kind::kAnd);
  EXPECT_EQ(w.children[0].kind, sql::Expr::Kind::kOr);
  EXPECT_EQ(w.children[0].children[0].kind, sql::Expr::Kind::kBetween);
  EXPECT_EQ(w.children[0].children[1].kind, sql::Expr::Kind::kNot);
}

TEST(SqlParserTest, CreateTableTypesAndPrimaryKey) {
  auto res = Parse(
      "CREATE TABLE t (a INT64, b BIGINT PRIMARY KEY, c DOUBLE, d VARCHAR)");
  ASSERT_TRUE(res.ok());
  const auto& c = res->create;
  EXPECT_EQ(c.table, "t");
  ASSERT_EQ(c.columns.size(), 4u);
  EXPECT_EQ(c.columns[0].type, Type::kInt64);
  EXPECT_EQ(c.columns[2].type, Type::kDouble);
  EXPECT_EQ(c.columns[3].type, Type::kString);
  EXPECT_EQ(c.pk_index, 1);
}

TEST(SqlParserTest, InsertMultipleRowsAndLiterals) {
  auto res = Parse("INSERT INTO t VALUES (1, -2.5, 'str', NULL), (2, 0.0, "
                   "'', 7)");
  ASSERT_TRUE(res.ok());
  const auto& i = res->insert;
  ASSERT_EQ(i.rows.size(), 2u);
  EXPECT_EQ(i.rows[0][0].AsInt64(), 1);
  EXPECT_DOUBLE_EQ(i.rows[0][1].AsDouble(), -2.5);
  EXPECT_EQ(i.rows[0][2].AsString(), "str");
  EXPECT_TRUE(i.rows[0][3].is_null());
}

TEST(SqlParserTest, UpdateAndDelete) {
  auto res = Parse("UPDATE t SET a = 5, b = 'x' WHERE id >= 10");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->update.assignments.size(), 2u);
  ASSERT_TRUE(res->update.where.has_value());

  auto res2 = Parse("DELETE FROM t");
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->del.table, "t");
  EXPECT_FALSE(res2->del.where.has_value());
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(Parse("select * from t where a = 1 order by a limit 1").ok());
  EXPECT_TRUE(Parse("Select A From T Group By A").status().IsNotSupported() ||
              true);  // parse-level OK; binder may reject later
}

TEST(SqlParserTest, ParseErrors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FORM t").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(Parse("UPDATE t SET").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE a ~ 1").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t; SELECT * FROM u").ok());
  EXPECT_FALSE(Parse("DROP TABLE t").ok());
}

class SqlBinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.background_sync = false;
    db_ = std::move(*Database::Open(opts));
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE item (i_id INT64 PRIMARY KEY, "
                                "name STRING, price DOUBLE)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE sale (s_id INT64 PRIMARY KEY, "
                                "item_id INT64, qty INT64)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("INSERT INTO item VALUES (1, 'apple', 2.0), "
                                "(2, 'pear', 3.0)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("INSERT INTO sale VALUES (10, 1, 4), "
                                "(11, 1, 1), (12, 2, 2)")
                    .ok());
    // `qty` deliberately collides with sale.qty to exercise ambiguity
    // detection in chained joins.
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE promo (p_id INT64 PRIMARY KEY, "
                                "p_item INT64, qty INT64)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("INSERT INTO promo VALUES (100, 1, 9), "
                                "(101, 2, 0)")
                    .ok());
    ASSERT_TRUE(db_->ForceSyncAll().ok());
  }
  std::unique_ptr<Database> db_;
};

TEST_F(SqlBinderTest, QualifiedColumnsResolveThroughJoin) {
  auto res = db_->ExecuteSql(
      "SELECT item.name, SUM(sale.qty) AS sold FROM sale JOIN item ON "
      "sale.item_id = item.i_id GROUP BY item.name ORDER BY sold DESC");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0].Get(0).AsString(), "apple");
  EXPECT_DOUBLE_EQ(res->rows[0].Get(1).AsDouble(), 5.0);
}

TEST_F(SqlBinderTest, WhereSplitsAcrossJoinSides) {
  auto res = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM sale JOIN item ON sale.item_id = item.i_id "
      "WHERE sale.qty > 1 AND item.price < 2.5");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 1);  // only sale 10
}

TEST_F(SqlBinderTest, UnknownColumnAndTableErrors) {
  EXPECT_TRUE(db_->ExecuteSql("SELECT nope FROM item").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->ExecuteSql("SELECT * FROM missing").status().IsNotFound());
  EXPECT_TRUE(db_->ExecuteSql("INSERT INTO item VALUES (9)").status()
                  .IsInvalidArgument());
}

TEST_F(SqlBinderTest, SelectListReorderedAroundGroupBy) {
  // Aggregates may precede group columns: output follows the select list.
  auto res = db_->ExecuteSql(
      "SELECT COUNT(*) AS n, name FROM item GROUP BY name ORDER BY name");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->schema.column(0).name, "n");
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 1);
  EXPECT_EQ(res->rows[0].Get(1).AsString(), "apple");
  // Select items not in GROUP BY are still rejected.
  EXPECT_TRUE(db_->ExecuteSql("SELECT price, COUNT(*) FROM item GROUP BY name")
                  .status()
                  .IsNotSupported());
}

TEST_F(SqlBinderTest, OrderByUnknownOutputColumnFails) {
  EXPECT_FALSE(db_->ExecuteSql(
                      "SELECT name FROM item ORDER BY price")  // not projected
                   .ok());
}

TEST_F(SqlBinderTest, ProjectionOrderPreserved) {
  auto res = db_->ExecuteSql(
      "SELECT price, i_id FROM item WHERE i_id = 2");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(res->rows[0].Get(0).AsDouble(), 3.0);
  EXPECT_EQ(res->rows[0].Get(1).AsInt64(), 2);
  EXPECT_EQ(res->schema.column(0).name, "price");
}

TEST_F(SqlBinderTest, ThreeTableChainBindsAndExecutes) {
  // Each sale matches exactly one item and each item one promo, so the
  // chain preserves per-sale rows; the second ON reuses item.i_id from the
  // combined layout.
  auto res = db_->ExecuteSql(
      "SELECT item.name, SUM(sale.qty) AS sold FROM sale "
      "JOIN item ON sale.item_id = item.i_id "
      "JOIN promo ON item.i_id = promo.p_item "
      "GROUP BY item.name ORDER BY sold DESC");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0].Get(0).AsString(), "apple");
  EXPECT_DOUBLE_EQ(res->rows[0].Get(1).AsDouble(), 5.0);
  EXPECT_EQ(res->rows[1].Get(0).AsString(), "pear");
  EXPECT_DOUBLE_EQ(res->rows[1].Get(1).AsDouble(), 2.0);
}

TEST_F(SqlBinderTest, ChainReportsExecInfo) {
  QueryExecInfo info;
  auto res = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM sale "
      "INNER JOIN item ON sale.item_id = item.i_id "
      "INNER JOIN promo ON item.i_id = promo.p_item "
      "WHERE promo.qty > 0",
      &info);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 2);  // apple sales only
  ASSERT_EQ(info.join_steps.size(), 2u);
  ASSERT_EQ(info.join_order.size(), 2u);
  EXPECT_EQ(info.join_actual_rows.size(), 2u);
}

TEST_F(SqlBinderTest, AmbiguousColumnErrors) {
  // `qty` exists in both sale and promo once the chain includes promo.
  auto st = db_->ExecuteSql(
                   "SELECT COUNT(*) AS n FROM sale "
                   "JOIN item ON item_id = i_id "
                   "JOIN promo ON i_id = p_item WHERE qty > 1")
                .status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("ambiguous column"), std::string::npos)
      << st.ToString();

  // Ambiguity inside an ON condition is also rejected: after joining
  // promo, `qty` matches both sale and promo in the combined layout.
  auto st2 = db_->ExecuteSql(
                    "SELECT COUNT(*) AS n FROM sale "
                    "JOIN promo ON item_id = p_item "
                    "JOIN item ON qty = i_id")
                 .status();
  EXPECT_TRUE(st2.IsInvalidArgument()) << st2.ToString();
  EXPECT_NE(st2.ToString().find("ambiguous"), std::string::npos)
      << st2.ToString();

  // Qualification resolves the ambiguity.
  auto ok = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM sale "
      "JOIN item ON item_id = i_id "
      "JOIN promo ON i_id = p_item WHERE sale.qty > 1");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows[0].Get(0).AsInt64(), 2);  // sales 10 and 12
}

TEST_F(SqlBinderTest, ChainedJoinToUnknownTableIsNotFound) {
  EXPECT_TRUE(db_->ExecuteSql(
                     "SELECT COUNT(*) AS n FROM sale "
                     "JOIN item ON item_id = i_id "
                     "JOIN missing ON i_id = x")
                  .status()
                  .IsNotFound());
}

TEST_F(SqlBinderTest, DeleteAllThenCountIsZero) {
  ASSERT_TRUE(db_->ExecuteSql("DELETE FROM sale").ok());
  auto res = db_->ExecuteSql("SELECT COUNT(*) AS n FROM sale");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].Get(0).AsInt64(), 0);
}

// COUNT(col) and AVG(col) skip NULL inputs while COUNT(*) counts rows — on
// every access path, before and after the delta merges into the column
// store.
class SqlNullAggregateTest
    : public ::testing::TestWithParam<ArchitectureKind> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/htap_sqlnull_XXXXXX";
    dir_ = mkdtemp(tmpl);
    DatabaseOptions opts;
    opts.architecture = GetParam();
    opts.data_dir = dir_;
    opts.background_sync = false;
    db_ = std::move(*Database::Open(opts));
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE t (id INT64 PRIMARY KEY, "
                                "g STRING, x INT64)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("INSERT INTO t VALUES (1, 'a', 10), "
                                "(2, 'a', NULL), (3, 'a', 20), "
                                "(4, 'b', NULL), (5, 'b', NULL), (6, 'c', 7)")
                    .ok());
  }

  void TearDown() override {
    db_.reset();
    std::system(("rm -rf " + dir_).c_str());
  }

  static void ExpectAnswer(const std::vector<Row>& rows) {
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], (Row{Value("a"), Value(int64_t{2}), Value(int64_t{3}),
                            Value(15.0)}));
    EXPECT_EQ(rows[1].Get(1).AsInt64(), 0);
    EXPECT_EQ(rows[1].Get(2).AsInt64(), 2);
    EXPECT_TRUE(rows[1].Get(3).is_null());
    EXPECT_EQ(rows[2], (Row{Value("c"), Value(int64_t{1}), Value(int64_t{1}),
                            Value(7.0)}));
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_P(SqlNullAggregateTest, CountAndAvgSkipNullsOnEveryPath) {
  QueryPlan plan;
  plan.table = "t";
  plan.group_by = {1};
  plan.aggs = {AggSpec{AggSpec::Fn::kCount, 2, "cx"}, AggSpec::Count("n"),
               AggSpec::Avg(2, "ax")};
  plan.order_by = 0;
  for (bool merged : {false, true}) {
    if (merged) {
      ASSERT_TRUE(db_->ForceSyncAll().ok());
    }
    QueryExecInfo info;
    auto sql = db_->ExecuteSql(
        "SELECT g, COUNT(x) AS cx, COUNT(*) AS n, AVG(x) AS ax FROM t "
        "GROUP BY g ORDER BY g",
        &info);
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    ExpectAnswer(sql->rows);
    EXPECT_EQ(info.agg.rows_in, 6u);
    EXPECT_EQ(info.agg.groups_out, 3u);
    for (PathHint path : {PathHint::kForceRow, PathHint::kForceColumn}) {
      plan.path = path;
      auto res = db_->Query(plan);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ExpectAnswer(res->rows);
      ExpectMatchesReference(db_.get(), plan, /*ordered=*/true,
                             path == PathHint::kForceRow ? "row path"
                                                         : "column path");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, SqlNullAggregateTest,
    ::testing::Values(ArchitectureKind::kRowPlusInMemoryColumn,
                      ArchitectureKind::kDiskRowPlusDistributedColumn,
                      ArchitectureKind::kColumnPlusDeltaRow),
    [](const ::testing::TestParamInfo<ArchitectureKind>& info) {
      switch (info.param) {
        case ArchitectureKind::kRowPlusInMemoryColumn: return "a";
        case ArchitectureKind::kDiskRowPlusDistributedColumn: return "c";
        default: return "d";
      }
    });

}  // namespace
}  // namespace htap
