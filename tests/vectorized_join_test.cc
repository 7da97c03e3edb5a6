// Batch-native join tests (DESIGN.md §13): the join pipeline — keys
// extracted from column batches, lineage-only intermediates, columnar spill
// pages, late payload gather — must match the nested-loop reference
// executor (tests/reference_executor.h) across architectures, thread
// counts, forced-spill budgets, batch sizes, hash-collision masks, NULL
// keys, and multi-join SQL chains. Runs under ASan and TSan via ./ci.sh.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "reference_executor.h"
#include "storage/spill_file.h"

namespace htap {
namespace {

Schema FactSchema() {
  return Schema({{"id", Type::kInt64},
                 {"fk", Type::kInt64},
                 {"tag", Type::kString},
                 {"amount", Type::kDouble}});
}

Schema DimSchema() {
  return Schema({{"id", Type::kInt64},
                 {"name", Type::kString},
                 {"weight", Type::kDouble}});
}

/// Duplicate keys, NULL keys on both sides, and string payloads (so the
/// spill pages and late gather both carry heap data).
std::vector<Row> FactRows(int64_t n) {
  std::vector<Row> out;
  for (int64_t i = 0; i < n; ++i) {
    Row r{Value(i), Value(i % 97), Value("tag_" + std::to_string(i % 7)),
          Value(i * 0.25)};
    if (i % 31 == 0) r.Set(1, Value::Null());
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Row> DimRows(int64_t n) {
  std::vector<Row> out;
  for (int64_t i = 0; i < n; ++i) {
    Row r{Value(i % 97), Value("dim_" + std::to_string(i)), Value(i * 1.5)};
    if (i % 41 == 0) r.Set(0, Value::Null());
    out.push_back(std::move(r));
  }
  return out;
}

TEST(RowsToBatchesTest, RoundTripsAtEveryBatchSize) {
  const std::vector<Row> rows = FactRows(257);
  for (size_t batch_rows : {size_t{0}, size_t{1}, size_t{64}, size_t{1000}}) {
    const auto batches = RowsToBatches(rows, FactSchema(), {}, batch_rows);
    EXPECT_EQ(rows, BatchesToRows(batches)) << "batch_rows=" << batch_rows;
    if (batch_rows == 0) EXPECT_EQ(batches.size(), 1u);
  }
  EXPECT_TRUE(RowsToBatches({}, FactSchema(), {}, 64).empty());
}

TEST(SpillPageTest, EncodeDecodeRoundTripsEveryKind) {
  const auto round_trip = [](const SpillPage& page) {
    std::string buf;
    EncodeSpillPage(page, &buf);
    SpillPage got;
    size_t pos = 0;
    ASSERT_TRUE(DecodeSpillPage(buf, &pos, &got));
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(page.idx, got.idx);
    EXPECT_EQ(page.type, got.type);
    EXPECT_EQ(page.ints, got.ints);
    EXPECT_EQ(page.doubles, got.doubles);
    EXPECT_EQ(page.strs, got.strs);
  };
  SpillPage ints;
  ints.idx = {5, 0, 7};
  ints.type = Type::kInt64;
  ints.ints = {-1, 42, 1 << 20};
  round_trip(ints);

  SpillPage doubles;
  doubles.idx = {1, 2};
  doubles.type = Type::kDouble;
  doubles.doubles = {-0.5, 1e18};
  round_trip(doubles);

  SpillPage strs;
  strs.idx = {9, 3, 3};
  strs.type = Type::kString;
  strs.strs = {"", "a", std::string(5000, 'x')};
  round_trip(strs);

  // Truncated input and an unknown type byte are rejected, not mis-decoded.
  std::string buf;
  EncodeSpillPage(strs, &buf);
  for (size_t cut : {size_t{0}, size_t{3}, buf.size() - 1}) {
    SpillPage got;
    size_t pos = 0;
    EXPECT_FALSE(DecodeSpillPage(buf.substr(0, cut), &pos, &got)) << cut;
  }
  std::string bad = buf;
  bad[sizeof(uint32_t)] = 3;  // the type byte follows the row count
  SpillPage got;
  size_t pos = 0;
  EXPECT_FALSE(DecodeSpillPage(bad, &pos, &got));
}

class VectorizedJoinKernelTest : public ::testing::Test {
 protected:
  VectorizedJoinKernelTest() : pool_(8, "test-vjoin-ap") {}

  ExecContext Ctx(size_t threads, size_t spill_budget, uint64_t mask) {
    ExecContext exec;
    if (threads > 1) {
      exec.pool = &pool_;
      exec.max_parallelism = threads;
      exec.min_parallel_join_build = 1;
    }
    exec.join_spill_budget_bytes = spill_budget;
    exec.join_hash_mask = mask;
    return exec;
  }

  ThreadPool pool_;
};

TEST_F(VectorizedJoinKernelTest, BatchKeysMatchNestedLoopEveryRegime) {
  // Keys extracted from column batches of every size must join to the
  // nested-loop reference's pairs — order included — in the serial,
  // parallel, and grace regimes, with and without forced hash collisions.
  const std::vector<Row> probe = FactRows(3000);
  const std::vector<Row> build = DimRows(2000);
  JoinPairs expect;
  for (size_t i = 0; i < probe.size(); ++i)
    for (size_t j = 0; j < build.size(); ++j)
      if (!probe[i].Get(1).is_null() && !build[j].Get(0).is_null() &&
          probe[i].Get(1) == build[j].Get(0))
        expect.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
  ASSERT_FALSE(expect.empty());
  for (size_t batch_rows : {size_t{0}, size_t{113}, size_t{4096}}) {
    const auto pbatches = RowsToBatches(probe, FactSchema(), {}, batch_rows);
    const auto bbatches = RowsToBatches(build, DimSchema(), {}, batch_rows);
    const std::vector<size_t> weights = EstimateBatchRowBytes(bbatches);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t budget : {size_t{0}, size_t{1}, size_t{64 << 10}}) {
        for (uint64_t mask : {~uint64_t{0}, uint64_t{0xF}}) {
          const ExecContext exec = Ctx(threads, budget, mask);
          JoinStats js;
          const JoinPairs got = HashJoinPairsKeys(
              ExtractJoinKeys(pbatches, 1), ExtractJoinKeys(bbatches, 0),
              exec, &js, budget > 0 ? &weights : nullptr);
          ASSERT_EQ(expect, got)
              << "batch_rows=" << batch_rows << " threads=" << threads
              << " budget=" << budget << " mask=" << mask;
          if (budget == 1) {
            // Everything spills: pages flowed both directions and carried
            // every spilled key exactly once.
            EXPECT_GT(js.partitions_spilled, 0u);
            EXPECT_GT(js.spill_pages_written, 0u);
            EXPECT_EQ(js.spill_pages_read, js.spill_pages_written);
            EXPECT_GT(js.spill_rows_written, 0u);
          }
        }
      }
    }
  }
}

/// End-to-end: join plans — and their SQL spellings — must return the
/// reference executor's rows across architectures, batch sizes, thread
/// counts, and forced-spill budgets.
class VectorizedJoinPlanTest : public ::testing::Test {
 protected:
  struct Query {
    std::string sql;
    QueryPlan plan;
  };

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::unique_ptr<Database> Open(ArchitectureKind arch, size_t batch_rows,
                                 size_t threads, size_t spill_budget) {
    // A fresh directory per database: architecture (c) keeps its heap
    // files there.
    const std::string dir = ::testing::TempDir() + "vjoin_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(dirs_.size());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    DatabaseOptions opts;
    opts.architecture = arch;
    opts.data_dir = dir;
    opts.background_sync = false;
    opts.vectorized_batch_rows = batch_rows;
    opts.parallel_scan_threads = threads;
    opts.parallel_join_min_build_rows = 1;
    opts.join_spill_budget_bytes = spill_budget;
    opts.join_spill_dir = dir;
    auto db = std::move(*Database::Open(opts));
    Seed(db.get());
    return db;
  }

  static void Seed(Database* db) {
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE item (i_id INT64 PRIMARY KEY, "
                               "name STRING, price DOUBLE)")
                    .ok());
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE sale (s_id INT64 PRIMARY KEY, "
                               "item_id INT64, qty INT64)")
                    .ok());
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE promo (p_id INT64 PRIMARY KEY, "
                               "p_item INT64, bonus INT64)")
                    .ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db->ExecuteSql("INSERT INTO item VALUES (" +
                                 std::to_string(i) + ", 'item_" +
                                 std::to_string(i % 5) + "', " +
                                 std::to_string(i) + ".5)")
                      .ok());
      ASSERT_TRUE(db->ExecuteSql("INSERT INTO promo VALUES (" +
                                 std::to_string(1000 + i) + ", " +
                                 std::to_string(i % 13) + ", " +
                                 std::to_string(i % 3) + ")")
                      .ok());
    }
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->ExecuteSql("INSERT INTO sale VALUES (" +
                                 std::to_string(10000 + i) + ", " +
                                 std::to_string(i % 40) + ", " +
                                 std::to_string(i % 7) + ")")
                      .ok());
    }
    ASSERT_TRUE(db->ForceSyncAll().ok());
  }

  /// Combined layouts: sale(s_id 0, item_id 1, qty 2) ++ item(i_id 3,
  /// name 4, price 5) ++ promo(p_id 6, p_item 7, bonus 8).
  static std::vector<Query> Queries() {
    std::vector<Query> q(4);
    // Two-table join, full output (late gather of every column).
    q[0].sql = "SELECT * FROM sale JOIN item ON sale.item_id = item.i_id";
    q[0].plan.joins = {JoinClause{"item", Predicate::True(), 1, 0}};
    // Projection-only output: late materialization gathers 2 columns.
    q[1].sql =
        "SELECT item.name, sale.qty FROM sale "
        "JOIN item ON sale.item_id = item.i_id WHERE sale.qty > 2";
    q[1].plan.where = Predicate::Gt(2, Value(int64_t{2}));
    q[1].plan.joins = {JoinClause{"item", Predicate::True(), 1, 0}};
    q[1].plan.projection = {4, 2};
    // Three-table chain into an aggregate (scan -> join -> aggregate
    // without intermediate row materialization).
    q[2].sql =
        "SELECT item.name, SUM(sale.qty) AS sold, COUNT(*) AS n FROM sale "
        "JOIN item ON sale.item_id = item.i_id "
        "JOIN promo ON item.i_id = promo.p_item "
        "GROUP BY item.name ORDER BY sold DESC";
    q[2].plan.joins = {JoinClause{"item", Predicate::True(), 1, 0},
                       JoinClause{"promo", Predicate::True(), 3, 1}};
    q[2].plan.group_by = {4};
    q[2].plan.aggs = {AggSpec::Sum(2, "sold"), AggSpec::Count("n")};
    q[2].plan.order_by = 1;
    q[2].plan.order_desc = true;
    // Chain with predicates on every input and a global aggregate.
    q[3].sql =
        "SELECT COUNT(*) AS n, AVG(item.price) AS p FROM sale "
        "JOIN item ON sale.item_id = item.i_id "
        "JOIN promo ON item.i_id = promo.p_item "
        "WHERE sale.qty > 1 AND promo.bonus > 0 AND item.price < 30.0";
    q[3].plan.where = Predicate::Gt(2, Value(int64_t{1}));
    q[3].plan.joins = {
        JoinClause{"item", Predicate::Lt(2, Value(30.0)), 1, 0},
        JoinClause{"promo", Predicate::Gt(2, Value(int64_t{0})), 3, 1}};
    q[3].plan.aggs = {AggSpec::Count("n"), AggSpec::Avg(5, "p")};
    for (Query& x : q) x.plan.table = "sale";
    return q;
  }

  /// Each plan against the reference — row for row, except that the disk
  /// heap of (c) scans in page order, not insertion order, so unsorted
  /// plans there compare as multisets — and its SQL spelling against the
  /// plan.
  static void ExpectMatchesReferenceAndSql(Database* db,
                                           ArchitectureKind arch,
                                           const std::string& label) {
    for (const Query& q : Queries()) {
      const bool ordered =
          q.plan.order_by >= 0 ||
          arch != ArchitectureKind::kDiskRowPlusDistributedColumn;
      std::vector<Row> plan_rows;
      ExpectMatchesReference(db, q.plan, ordered, label + " query: " + q.sql,
                             &plan_rows);
      auto sql = db->ExecuteSql(q.sql);
      ASSERT_TRUE(sql.ok()) << sql.status().ToString() << " " << q.sql;
      EXPECT_EQ(sql->rows, plan_rows) << label << " query: " << q.sql;
    }
  }

  std::vector<std::string> dirs_;
};

TEST_F(VectorizedJoinPlanTest, JoinPlansMatchReferenceAcrossKnobs) {
  for (ArchitectureKind arch :
       {ArchitectureKind::kRowPlusInMemoryColumn,
        ArchitectureKind::kDistributedRowPlusColumnReplica,
        ArchitectureKind::kDiskRowPlusDistributedColumn,
        ArchitectureKind::kColumnPlusDeltaRow}) {
    const std::string a = "arch=" + std::to_string(static_cast<int>(arch));
    for (size_t batch_rows : {size_t{0}, size_t{7}, size_t{4096}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        auto db = Open(arch, batch_rows, threads, 0);
        ExpectMatchesReferenceAndSql(
            db.get(), arch, a + " batch_rows=" + std::to_string(batch_rows) +
                                " threads=" + std::to_string(threads));
      }
    }
    // A 1-byte budget sends every join step through the grace path's
    // recursive spill, the costliest setting: one database per arch.
    auto spill_db = Open(arch, 7, 2, 1);
    ExpectMatchesReferenceAndSql(spill_db.get(), arch, a + " forced spill");
  }
}

TEST_F(VectorizedJoinPlanTest, DistributedLearnerServesBatchJoins) {
  // Architecture (b) scans its learners as batches: its join plans run the
  // batch pipeline and match the reference.
  auto db = Open(ArchitectureKind::kDistributedRowPlusColumnReplica, 4096, 1,
                 0);
  ExpectMatchesReferenceAndSql(
      db.get(), ArchitectureKind::kDistributedRowPlusColumnReplica, "arch=b");
  QueryExecInfo info;
  ASSERT_TRUE(db->Query(Queries()[2].plan, &info).ok());
  EXPECT_TRUE(info.vectorized);
  EXPECT_GT(info.join.join_batches, 0u);
}

TEST_F(VectorizedJoinPlanTest, BatchPipelineReportsJoinCounters) {
  auto db = Open(ArchitectureKind::kRowPlusInMemoryColumn, 4096, 1, 0);
  QueryExecInfo info;
  auto res = db->ExecuteSql(
      "SELECT item.name, SUM(sale.qty) AS sold FROM sale "
      "JOIN item ON sale.item_id = item.i_id "
      "JOIN promo ON item.i_id = promo.p_item GROUP BY item.name",
      &info);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(info.vectorized);
  EXPECT_GT(info.join.join_batches, 0u);
  EXPECT_GT(info.join.rows_late_materialized, 0u);
  EXPECT_EQ(info.join_steps.size(), 2u);
}

TEST_F(VectorizedJoinPlanTest, ForcedSpillMatchesReferenceEndToEnd) {
  // A 1-byte budget forces every join step through the grace path's
  // columnar spill pages; results must match the reference, and the spill
  // activity must be reported.
  auto db = Open(ArchitectureKind::kRowPlusInMemoryColumn, 64, 1, 1);
  for (const Query& q : Queries()) {
    ExpectMatchesReference(db.get(), q.plan, /*ordered=*/true, q.sql);
    QueryExecInfo info;
    auto got = db->ExecuteSql(q.sql, &info);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(info.join.spill_pages_written, 0u) << q.sql;
    EXPECT_GT(info.join.spill_pages_read, 0u) << q.sql;
  }
}

}  // namespace
}  // namespace htap
