// The reference executor's own tests: its join and aggregate reproduce
// hand-computed answers, and a wide fan-out join plan — a full-width
// SELECT * whose steps multiply their input, the shape that gains least
// from late materialization — matches it across architectures, batch
// sizes, thread counts, and a forced spill budget. Runs under ASan and
// TSan via ./ci.sh.

#include "reference_executor.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

namespace htap {
namespace {

TEST(ReferenceExecutorTest, JoinIsNestedLoopOrderWithoutNullMatches) {
  const std::vector<Row> left = {Row{Value(int64_t{2}), Value("l0")},
                                 Row{Value::Null(), Value("l1")},
                                 Row{Value(int64_t{1}), Value("l2")},
                                 Row{Value(int64_t{2}), Value("l3")}};
  const std::vector<Row> right = {Row{Value(2.0), Value("r0")},
                                  Row{Value::Null(), Value("r1")},
                                  Row{Value(int64_t{2}), Value("r2")}};
  const std::vector<Row> want = {
      Row{Value(int64_t{2}), Value("l0"), Value(2.0), Value("r0")},
      Row{Value(int64_t{2}), Value("l0"), Value(int64_t{2}), Value("r2")},
      Row{Value(int64_t{2}), Value("l3"), Value(2.0), Value("r0")},
      Row{Value(int64_t{2}), Value("l3"), Value(int64_t{2}), Value("r2")}};
  ExpectRowsMatch(ReferenceJoin(left, right, 0, 0), want, true, "join");
}

TEST(ReferenceExecutorTest, AggregateKeepsFirstSeenGroupOrder) {
  const std::vector<Row> rows = {
      Row{Value("b"), Value(int64_t{4})}, Row{Value::Null(), Value(1.5)},
      Row{Value("a"), Value::Null()},     Row{Value("b"), Value(int64_t{-2})},
      Row{Value::Null(), Value(2.5)}};
  const auto got = ReferenceAggregate(
      rows, {0},
      {AggSpec::Count("n"), AggSpec{AggSpec::Fn::kCount, 1, "c"},
       AggSpec::Sum(1, "s"), AggSpec::Min(1, "mn")});
  const std::vector<Row> want = {
      Row{Value("b"), Value(int64_t{2}), Value(int64_t{2}), Value(2.0),
          Value(int64_t{-2})},
      Row{Value::Null(), Value(int64_t{2}), Value(int64_t{2}), Value(4.0),
          Value(1.5)},
      Row{Value("a"), Value(int64_t{1}), Value(int64_t{0}), Value::Null(),
          Value::Null()}};
  ExpectRowsMatch(got, want, true, "aggregate");
  // A global aggregate over nothing still yields its one row.
  ExpectRowsMatch(ReferenceAggregate({}, {}, {AggSpec::Count("n")}),
                  {Row{Value(int64_t{0})}}, true, "empty");
}

class WideFanOutTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::unique_ptr<Database> Open(ArchitectureKind arch, size_t batch_rows,
                                 size_t threads, size_t spill_budget) {
    const std::string dir = ::testing::TempDir() + "fanout_" +
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
    const Schema item({{"i_id", Type::kInt64}, {"name", Type::kString}});
    const Schema sale({{"s_id", Type::kInt64},
                       {"item_id", Type::kInt64},
                       {"qty", Type::kDouble}});
    const Schema promo({{"p_id", Type::kInt64}, {"p_item", Type::kInt64}});
    EXPECT_TRUE(db->CreateTable("item", item).ok());
    EXPECT_TRUE(db->CreateTable("sale", sale).ok());
    EXPECT_TRUE(db->CreateTable("promo", promo).ok());
    for (int64_t i = 0; i < 12; ++i)
      EXPECT_TRUE(
          db->InsertRow("item", Row{Value(i), Value("i" + std::to_string(i))})
              .ok());
    for (int64_t i = 0; i < 60; ++i) {
      Row r{Value(100 + i), Value(i % 12), Value(i * 0.5)};
      if (i % 17 == 3) r.Set(1, Value::Null());
      EXPECT_TRUE(db->InsertRow("sale", r).ok());
    }
    for (int64_t i = 0; i < 20; ++i)
      EXPECT_TRUE(
          db->InsertRow("promo", Row{Value(500 + i), Value(i % 6)}).ok());
    EXPECT_TRUE(db->ForceSyncAll().ok());
    return db;
  }

  std::vector<std::string> dirs_;
};

TEST_F(WideFanOutTest, FullWidthFanOutMatchesReference) {
  // item ⋈ sale ⋈ promo ⋈ sale on the item key, every column out: each
  // step multiplies its input (~5 sales per item, ~3 promos for half of
  // them), so the output is 5x wider and ~36x longer than the base table.
  QueryPlan plan;
  plan.table = "item";
  plan.joins = {JoinClause{"sale", Predicate::True(), 0, 1},
                JoinClause{"promo", Predicate::True(), 0, 1},
                JoinClause{"sale", Predicate::True(), 0, 1}};
  for (ArchitectureKind arch :
       {ArchitectureKind::kRowPlusInMemoryColumn,
        ArchitectureKind::kDistributedRowPlusColumnReplica,
        ArchitectureKind::kDiskRowPlusDistributedColumn,
        ArchitectureKind::kColumnPlusDeltaRow}) {
    // The disk heap of (c) scans in page order, not insertion order.
    const bool ordered =
        arch != ArchitectureKind::kDiskRowPlusDistributedColumn;
    for (size_t batch_rows : {size_t{0}, size_t{7}, size_t{4096}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        for (size_t budget : {size_t{0}, size_t{1}}) {
          if (budget != 0 && batch_rows != 7) continue;  // spill is slow
          const std::string label =
              "arch=" + std::to_string(static_cast<int>(arch)) +
              " batch_rows=" + std::to_string(batch_rows) +
              " threads=" + std::to_string(threads) +
              " budget=" + std::to_string(budget);
          auto db = Open(arch, batch_rows, threads, budget);
          std::vector<Row> got;
          ExpectMatchesReference(db.get(), plan, ordered, label, &got);
          EXPECT_GT(got.size(), 400u) << label;
          if (got.empty()) continue;
          EXPECT_EQ(got[0].size(), 10u) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace htap
