// Architecture (c) change propagation: the IMCS merges on the shared
// SyncDaemon when background_sync is on and only on a query or ForceSync
// when it is off, the merges show in Stats(), merges compact the IMCS once
// it is worn, an IMCS scan reads one snapshot even when the generation it
// pinned is rebuilt under it or a rebuild lands between its sync target and
// its sync, and a database without a data_dir keeps its files to itself.
// The last test races TP commits, the daemon, column-selection rebuilds and
// IMCS scans; ci.sh runs this binary under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/engines.h"

namespace htap {
namespace {

Schema KvSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}, {"w", Type::kInt64}});
}

// Every row keeps v + w == kSum, written by one single-row commit.
constexpr int64_t kSum = 1000000;
Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v), Value(kSum - v)}; }

DatabaseOptions DiskOptions(const std::string& dir, bool background) {
  DatabaseOptions opts;
  opts.architecture = ArchitectureKind::kDiskRowPlusDistributedColumn;
  opts.data_dir = dir;
  opts.background_sync = background;
  opts.sync_interval_micros = 1000;
  return opts;
}

/// The ids a scan of "kv" returns on `path`, sorted.
std::vector<int64_t> ScanIds(Database* db, PathHint path) {
  QueryPlan plan;
  plan.table = "kv";
  plan.projection = {0};
  plan.path = path;
  auto res = db->Query(plan);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  std::vector<int64_t> ids;
  if (!res.ok()) return ids;
  for (const Row& r : res->rows) ids.push_back(r.Get(0).AsInt64());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// id -> v of every row of "kv" an IMCS scan returns.
std::map<int64_t, int64_t> ScanValues(Database* db) {
  QueryPlan plan;
  plan.table = "kv";
  plan.path = PathHint::kForceColumn;
  auto res = db->Query(plan);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  std::map<int64_t, int64_t> out;
  if (!res.ok()) return out;
  for (const Row& r : res->rows) out[r.Get(0).AsInt64()] = r.Get(1).AsInt64();
  return out;
}

/// Row groups an IMCS scan of "kv" walks.
size_t ImcsGroups(Database* db) {
  QueryPlan plan;
  plan.table = "kv";
  plan.path = PathHint::kForceColumn;
  auto res = db->Query(plan);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.ok() ? res->stats.groups_total : 0;
}

std::vector<int64_t> Range(int64_t begin, int64_t end) {
  std::vector<int64_t> out;
  for (int64_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

class DiskPropagationTest : public ::testing::Test {
 protected:
  void Open(bool background, size_t compact_delete_threshold = 8192) {
    char tmpl[] = "/tmp/htap_diskprop_XXXXXX";
    dir_ = mkdtemp(tmpl);
    DatabaseOptions opts = DiskOptions(dir_, background);
    opts.stats_compact_delete_threshold = compact_delete_threshold;
    auto res = Database::Open(opts);
    ASSERT_TRUE(res.ok());
    db_ = std::move(*res);
    ASSERT_TRUE(db_->CreateTable("kv", KvSchema()).ok());
    engine_ = dynamic_cast<DiskHtapEngine*>(db_->engine());
    ASSERT_NE(engine_, nullptr);
    info_ = db_->catalog()->Find("kv");
    ASSERT_NE(info_, nullptr);
  }

  void Insert(int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i)
      ASSERT_TRUE(db_->InsertRow("kv", MakeRow(i, i)).ok());
  }

  void TearDown() override {
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  DiskHtapEngine* engine_ = nullptr;
  const TableInfo* info_ = nullptr;
};

TEST_F(DiskPropagationTest, BackgroundSyncMergesWithoutAnyQuery) {
  Open(/*background=*/true);
  Insert(0, 200);
  const CSN committed = db_->Freshness("kv").committed_csn;
  ASSERT_GT(committed, 0u);
  // No query runs: only the daemon can move the IMCS forward. A merge
  // publishes merged_csn before it counts itself in Stats(), so wait for
  // both.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  FreshnessInfo f = db_->Freshness("kv");
  EngineStats st = db_->Stats();
  while ((f.visible_csn < committed || st.entries_merged < 200) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    f = db_->Freshness("kv");
    st = db_->Stats();
  }
  EXPECT_GE(f.visible_csn, committed);
  EXPECT_EQ(f.pending_delta_entries, 0u);
  EXPECT_GT(st.merges, 0u);
  EXPECT_EQ(st.entries_merged, 200u);
}

TEST_F(DiskPropagationTest, WithoutBackgroundSyncOnlyQueriesAndForceSyncMerge) {
  Open(/*background=*/false);
  Insert(0, 50);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  FreshnessInfo f = db_->Freshness("kv");
  EXPECT_EQ(f.visible_csn, 0u);
  EXPECT_EQ(f.pending_delta_entries, 50u);
  EXPECT_EQ(db_->Stats().merges, 0u);

  // An IMCS scan syncs first (query-triggered propagation).
  EXPECT_EQ(ScanIds(db_.get(), PathHint::kForceColumn), Range(0, 50));
  f = db_->Freshness("kv");
  EXPECT_EQ(f.visible_csn, f.committed_csn);
  EXPECT_EQ(f.pending_delta_entries, 0u);

  Insert(50, 80);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f = db_->Freshness("kv");
  EXPECT_LT(f.visible_csn, f.committed_csn);
  EXPECT_EQ(f.pending_delta_entries, 30u);
  ASSERT_TRUE(db_->ForceSync("kv").ok());
  f = db_->Freshness("kv");
  EXPECT_EQ(f.visible_csn, f.committed_csn);
  EXPECT_EQ(f.pending_delta_entries, 0u);
}

TEST_F(DiskPropagationTest, StatsReportMergesAndTheirStages) {
  Open(/*background=*/false);
  Insert(0, 120);
  ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(3, 33)).ok());
  ASSERT_TRUE(db_->DeleteRow("kv", 4).ok());
  ASSERT_TRUE(db_->ForceSyncAll().ok());
  const EngineStats st = db_->Stats();
  EXPECT_EQ(st.merges, 1u);
  EXPECT_EQ(st.entries_merged, 122u);
  EXPECT_EQ(st.sync_stages.entries, 122u);
  EXPECT_GT(st.sync_stages.build_seconds, 0.0);
  // Nothing new committed: a second sync is not a merge.
  ASSERT_TRUE(db_->ForceSyncAll().ok());
  EXPECT_EQ(db_->Stats().merges, 1u);
}

TEST_F(DiskPropagationTest, ScanPinnedBeforeRebuildReadsOneSnapshot) {
  Open(/*background=*/false);
  Insert(0, 10);
  // Between the scan's sync and its read: commit id 100, rebuild the IMCS
  // (which drains the delta into nothing the pinned generation holds), then
  // commit id 101. The pinned generation lacks 100; the delta now lacks it
  // too. A scan that read the delta at a later CSN than it synced to would
  // return 101 without 100 — a state no snapshot ever had.
  bool fired = false;
  engine_->SetHookForTest([&](DiskHtapEngine::HookPoint point) {
    if (point != DiskHtapEngine::HookPoint::kScanPinned || fired) return;
    fired = true;
    ASSERT_TRUE(db_->InsertRow("kv", MakeRow(100, 100)).ok());
    ASSERT_TRUE(engine_->RefreshColumnSelection(*info_).ok());
    ASSERT_TRUE(db_->InsertRow("kv", MakeRow(101, 101)).ok());
  });
  const std::vector<int64_t> pinned = ScanIds(db_.get(), PathHint::kForceColumn);
  ASSERT_TRUE(fired);
  EXPECT_EQ(pinned, Range(0, 10));  // the state the scan synced to

  // The rebuilt generation and the delta hold both later rows.
  std::vector<int64_t> all = Range(0, 10);
  all.push_back(100);
  all.push_back(101);
  EXPECT_EQ(ScanIds(db_.get(), PathHint::kForceColumn), all);
  EXPECT_EQ(ScanIds(db_.get(), PathHint::kForceRow), all);
}

TEST_F(DiskPropagationTest, RebuildBetweenScanTargetAndSyncReadsOneSnapshot) {
  Open(/*background=*/false);
  Insert(0, 10);
  // A full IMCS scan heats every column, so the rebuild keeps them loaded.
  ASSERT_EQ(ScanValues(db_.get()).size(), 10u);
  // The rebuild drains the delta, then X commits; the scan takes its sync
  // target (X is below it); then Y commits, and the rebuild's heap read
  // sees Y and publishes a generation past the scan's target. X's entries
  // are still in the delta. Read at the target, they would hide Y's rows:
  // id 1 at X's value, and id 2, which Y deleted, back at X's value.
  using Point = DiskHtapEngine::HookPoint;
  std::atomic<bool> target_taken{false};
  std::map<int64_t, int64_t> seen;
  std::thread scanner;
  engine_->SetHookForTest([&](Point point) {
    if (point == Point::kScanTargetTaken) {
      target_taken.store(true, std::memory_order_release);
      return;
    }
    if (point != Point::kRebuildDrained) return;
    // The rebuild holds its merge lock here; commits take lower-ranked
    // locks, so they run on another thread while this one waits.
    std::thread committer([&] {
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(1, 501)).ok());  // X
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(2, 502)).ok());
      // The scan blocks in its sync until this rebuild publishes.
      scanner = std::thread([&] { seen = ScanValues(db_.get()); });
      while (!target_taken.load(std::memory_order_acquire))
        std::this_thread::yield();
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(1, 601)).ok());  // Y
      ASSERT_TRUE(db_->DeleteRow("kv", 2).ok());
    });
    committer.join();
  });
  ASSERT_TRUE(engine_->RefreshColumnSelection(*info_).ok());
  ASSERT_TRUE(scanner.joinable());
  scanner.join();
  engine_->SetHookForTest(nullptr);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 10; ++i) want[i] = i;
  want[1] = 601;
  want.erase(2);
  EXPECT_EQ(seen, want);
  EXPECT_EQ(ScanValues(db_.get()), want);
}

TEST_F(DiskPropagationTest, MergesCompactAWornImcs) {
  Open(/*background=*/false, /*compact_delete_threshold=*/16);
  Insert(0, 10);
  ASSERT_TRUE(db_->ForceSync("kv").ok());
  // Each single-row merge appends a group and leaves one dead version;
  // more than 16 dead rows compact the IMCS into one group.
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(i % 10, 100 + i)).ok());
    ASSERT_TRUE(db_->ForceSync("kv").ok());
  }
  EXPECT_LE(ImcsGroups(db_.get()), 9u);
  // Inserts leave no dead rows; the small groups are merged into one once
  // there are more than 8 of them.
  for (int64_t i = 10; i < 150; ++i) {
    ASSERT_TRUE(db_->InsertRow("kv", MakeRow(i, i)).ok());
    ASSERT_TRUE(db_->ForceSync("kv").ok());
  }
  EXPECT_LE(ImcsGroups(db_.get()), 9u);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 150; ++i) want[i] = i;
  for (int64_t i = 30; i < 40; ++i) want[i % 10] = 100 + i;
  EXPECT_EQ(ScanValues(db_.get()), want);
  EXPECT_EQ(ScanIds(db_.get(), PathHint::kForceRow), Range(0, 150));
}

std::unique_ptr<Database> OpenWithoutDataDir(int64_t first_id) {
  auto res = Database::Open(DiskOptions(/*dir=*/"", /*background=*/false));
  EXPECT_TRUE(res.ok());
  std::unique_ptr<Database> db = std::move(*res);
  EXPECT_TRUE(db->CreateTable("kv", KvSchema()).ok());
  for (int64_t i = first_id; i < first_id + 5; ++i)
    EXPECT_TRUE(db->InsertRow("kv", MakeRow(i, i)).ok());
  return db;
}

void ExpectOnlyOwnRows(Database* db, int64_t first_id) {
  EXPECT_EQ(ScanIds(db, PathHint::kForceRow), Range(first_id, first_id + 5));
  EXPECT_EQ(ScanIds(db, PathHint::kForceColumn),
            Range(first_id, first_id + 5));
}

TEST(DiskDataDirTest, EmptyDataDirGivesEachDatabaseItsOwnFiles) {
  {
    auto a = OpenWithoutDataDir(0);
    ExpectOnlyOwnRows(a.get(), 0);
  }  // closing flushes a's heap to its file
  auto b = OpenWithoutDataDir(100);
  auto c = OpenWithoutDataDir(200);
  ExpectOnlyOwnRows(b.get(), 100);
  ExpectOnlyOwnRows(c.get(), 200);
}

TEST(DiskDataDirTest, ClosingRemovesThePrivateDirectory) {
  std::string dir;
  {
    auto db = OpenWithoutDataDir(0);
    dir = dynamic_cast<DiskHtapEngine*>(db->engine())->data_dir();
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(std::filesystem::exists(dir + "/kv.heap"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/diskrow.wal"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(DiskPropagationTest, ImcsScansMatchRowReadsUnderCommitsMergesAndRefreshes) {
  Open(/*background=*/true);
  constexpr int64_t kBase = 256;
  Insert(0, kBase);

  // A snapshot of "kv" holds ids [0, n) for some n >= kBase (inserts run in
  // id order) and every row has v + w == kSum (single-row updates).
  auto check_snapshot = [&](PathHint path) {
    QueryPlan plan;
    plan.table = "kv";
    plan.path = path;
    auto res = db_->Query(plan);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    std::vector<int64_t> ids;
    for (const Row& r : res->rows) {
      ids.push_back(r.Get(0).AsInt64());
      ASSERT_EQ(r.Get(1).AsInt64() + r.Get(2).AsInt64(), kSum);
    }
    std::sort(ids.begin(), ids.end());
    ASSERT_GE(static_cast<int64_t>(ids.size()), kBase);
    ASSERT_EQ(ids, Range(0, static_cast<int64_t>(ids.size())));
  };

  // Heat on every column first, so each rebuild keeps them all loaded and
  // the forced IMCS scans below stay servable.
  check_snapshot(PathHint::kForceColumn);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_id{kBase};
  std::thread writer([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(i % kBase, i)).ok());
      if (i % 4 == 0) {
        const int64_t id = next_id.load(std::memory_order_relaxed);
        ASSERT_TRUE(db_->InsertRow("kv", MakeRow(id, id)).ok());
        next_id.store(id + 1, std::memory_order_relaxed);
      }
      ++i;
    }
  });
  std::thread refresher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(engine_->RefreshColumnSelection(*info_).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> scanners;
  for (PathHint path : {PathHint::kForceColumn, PathHint::kForceRow}) {
    scanners.emplace_back([&, path] {
      for (int i = 0; i < 60; ++i) check_snapshot(path);
    });
  }
  for (auto& t : scanners) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  refresher.join();

  // Quiesced: the IMCS answers exactly what the disk heap holds.
  ASSERT_TRUE(db_->ForceSyncAll().ok());
  QueryPlan plan;
  plan.table = "kv";
  plan.order_by = 0;
  plan.path = PathHint::kForceColumn;
  auto imcs = db_->Query(plan);
  plan.path = PathHint::kForceRow;
  auto heap = db_->Query(plan);
  ASSERT_TRUE(imcs.ok());
  ASSERT_TRUE(heap.ok());
  ASSERT_EQ(imcs->rows.size(), heap->rows.size());
  for (size_t i = 0; i < imcs->rows.size(); ++i)
    for (size_t c = 0; c < 3; ++c)
      EXPECT_EQ(imcs->rows[i].Get(c).AsInt64(), heap->rows[i].Get(c).AsInt64());
  EXPECT_EQ(static_cast<int64_t>(imcs->rows.size()), next_id.load());
  EXPECT_GT(db_->Stats().merges, 0u);
}

}  // namespace
}  // namespace htap
