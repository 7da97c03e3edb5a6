// Data-synchronization tests: the three DS strategies converge the column
// store to the row-store state; the delta/column-union invariant holds
// under randomized interleavings of commits, merges, and scans; the
// freshness tracker reports lag correctly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "reference_executor.h"
#include "sync/sync.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v)}; }

/// Reads the column store + delta union into a map.
std::map<Key, int64_t> HtapState(const ColumnTable& table,
                                 const DeltaReader* delta, CSN snap) {
  std::map<Key, int64_t> out;
  for (const Row& r : ScanHtapRows(table, delta, snap, Predicate::True(), {}))
    out[r.Get(0).AsInt64()] = r.Get(1).AsInt64();
  return out;
}

std::map<Key, int64_t> RowState(const MvccRowStore& store, const Snapshot& s) {
  std::map<Key, int64_t> out;
  store.Scan(s, [&](Key k, const Row& r) {
    out[k] = r.Get(1).AsInt64();
    return true;
  });
  return out;
}

TEST(SyncTest, InMemoryMergeConvergesColumnStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  auto delta = std::make_unique<InMemoryDeltaStore>(TestSchema());
  InMemoryDeltaStore* delta_ptr = delta.get();
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(delta.get()));

  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      ForEachTableBatch(evs, [&](uint32_t, TableEvents te) {
        d->AppendBatch(te);
      });
    }
  } router;
  router.d = delta_ptr;
  mgr.RegisterSink(&router);

  for (int i = 0; i < 100; ++i) {
    auto t = mgr.Begin();
    ASSERT_TRUE(rows.Insert(t.get(), MakeRow(i, i * 2)).ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
  }
  EXPECT_EQ(delta_ptr->EntryCount(), 100u);
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(delta_ptr->EntryCount(), 0u);
  EXPECT_EQ(table.live_rows(), 100u);
  EXPECT_EQ(table.merged_csn(), mgr.LastCommittedCsn());
  EXPECT_EQ(sync.stats().merges, 1u);
  EXPECT_EQ(sync.stats().entries_merged, 100u);

  EXPECT_EQ(HtapState(table, delta_ptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, LogMergeConvergesColumnStore) {
  LogDeltaStore delta(TestSchema());
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kLogMerge, &table,
      std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(&delta));

  std::vector<DeltaEntry> file;
  for (CSN c = 1; c <= 50; ++c) {
    DeltaEntry e;
    e.op = ChangeOp::kInsert;
    e.key = static_cast<Key>(c);
    e.row = MakeRow(e.key, static_cast<int64_t>(c));
    e.csn = c;
    file.push_back(e);
  }
  delta.AppendFile(file);
  ASSERT_TRUE(sync.SyncTo(50).ok());
  EXPECT_EQ(table.live_rows(), 50u);
  EXPECT_EQ(delta.num_files(), 0u);
}

// A log merge to a CSN inside a delta file drains exactly the entries at or
// below it, as the in-memory store does: merged_csn then claims only what
// the main holds.
TEST(SyncTest, LogMergeSplitsTheFileStraddlingTheTarget) {
  LogDeltaStore delta(TestSchema());
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kLogMerge, &table,
      std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(&delta));
  for (CSN lo : {CSN{1}, CSN{3}}) {
    std::vector<DeltaEntry> file;
    for (CSN c = lo; c <= lo + 1; ++c) {
      DeltaEntry e;
      e.op = ChangeOp::kInsert;
      e.key = static_cast<Key>(c);
      e.row = MakeRow(e.key, static_cast<int64_t>(c) * 10);
      e.csn = c;
      file.push_back(e);
    }
    ASSERT_TRUE(delta.AppendFile(file).ok());
  }
  ASSERT_TRUE(sync.SyncTo(3).ok());
  EXPECT_EQ(table.merged_csn(), 3u);
  size_t gi, off;
  EXPECT_TRUE(table.FindKey(3, &gi, &off));
  EXPECT_FALSE(table.FindKey(4, &gi, &off));
  EXPECT_EQ(delta.EntryCount(), 1u);
  DeltaEntry latest;
  EXPECT_TRUE(delta.LookupLatest(4, &latest));
  EXPECT_EQ(latest.row, MakeRow(4, 40));
  EXPECT_FALSE(delta.LookupLatest(3, &latest));
  // A non-fresh scan (no delta union) sees key 3 from the main alone.
  const std::map<Key, int64_t> main_only = HtapState(table, nullptr, 3);
  EXPECT_EQ(main_only, (std::map<Key, int64_t>{{1, 10}, {2, 20}, {3, 30}}));
  // The rest merges later, in order.
  ASSERT_TRUE(sync.SyncTo(4).ok());
  EXPECT_EQ(delta.EntryCount(), 0u);
  EXPECT_EQ(table.live_rows(), 4u);
}

TEST(SyncTest, RebuildFromPrimaryMatchesRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  ColumnTable table(TestSchema());
  DataSynchronizer sync(&table, &rows);
  EXPECT_EQ(sync.strategy(), SyncStrategy::kRebuild);

  for (int i = 0; i < 60; ++i) {
    auto t = mgr.Begin();
    rows.Insert(t.get(), MakeRow(i, i));
    mgr.Commit(t.get());
  }
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(table.live_rows(), 60u);
  EXPECT_EQ(sync.stats().rows_loaded, 60u);

  // Mutate, rebuild again: the column store reflects the new state fully.
  auto t = mgr.Begin();
  rows.Delete(t.get(), 0);
  rows.Update(t.get(), MakeRow(1, 999));
  mgr.Commit(t.get());
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(HtapState(table, nullptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, ApplyChunksFoldsBatch) {
  ColumnTable table(TestSchema());
  // Two chunks, so the fold also crosses a chunk boundary.
  std::vector<DeltaChunk> chunks(2, DeltaChunk({Type::kInt64, Type::kInt64}));
  auto add = [&](size_t chunk, ChangeOp op, Key k, int64_t v, CSN c) {
    chunks[chunk].Append(op, k, c,
                         op == ChangeOp::kDelete ? Row() : MakeRow(k, v));
  };
  add(0, ChangeOp::kInsert, 1, 1, 1);
  add(0, ChangeOp::kUpdate, 1, 2, 2);   // folded over the insert
  add(0, ChangeOp::kInsert, 2, 5, 3);
  add(1, ChangeOp::kDelete, 2, 0, 4);   // cancels the insert
  add(1, ChangeOp::kInsert, 3, 7, 5);
  ApplyChunksToColumnTable(&table, chunks, 5);
  EXPECT_EQ(table.live_rows(), 2u);
  size_t gi, off;
  ASSERT_TRUE(table.FindKey(1, &gi, &off));
  EXPECT_EQ(table.MaterializeRow(*table.group(gi), off).Get(1).AsInt64(), 2);
  EXPECT_FALSE(table.FindKey(2, &gi, &off));
}

TEST(SyncTest, SyncToIsIdempotent) {
  ColumnTable table(TestSchema());
  InMemoryDeltaStore delta(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));
  DeltaEntry e;
  e.op = ChangeOp::kInsert;
  e.key = 1;
  e.row = MakeRow(1, 1);
  e.csn = 1;
  delta.Append(e);
  ASSERT_TRUE(sync.SyncTo(1).ok());
  ASSERT_TRUE(sync.SyncTo(1).ok());  // no-op: target already reached
  EXPECT_EQ(sync.stats().merges, 1u);
}

// The central HTAP invariant: at every point in a random interleaving of
// committed writes and merges, scan(main) ⊎ delta == row-store state.
TEST(SyncTest, PropertyDeltaColumnUnionEqualsRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  InMemoryDeltaStore delta(TestSchema());
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));

  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      ForEachTableBatch(evs, [&](uint32_t, TableEvents te) {
        d->AppendBatch(te);
      });
    }
  } router;
  router.d = &delta;
  mgr.RegisterSink(&router);

  Random rng(2024);
  std::map<Key, int64_t> live;
  for (int step = 0; step < 800; ++step) {
    auto t = mgr.Begin();
    const Key k = static_cast<Key>(rng.Uniform(40));
    Status st;
    if (live.count(k) == 0) {
      st = rows.Insert(t.get(), MakeRow(k, step));
      if (st.ok()) live[k] = step;
    } else if (rng.Bernoulli(0.25)) {
      st = rows.Delete(t.get(), k);
      if (st.ok()) live.erase(k);
    } else {
      st = rows.Update(t.get(), MakeRow(k, step));
      if (st.ok()) live[k] = step;
    }
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());

    if (rng.Bernoulli(0.1))
      ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());

    if (step % 37 == 0) {
      ASSERT_EQ(HtapState(table, &delta, mgr.LastCommittedCsn()), live)
          << "divergence at step " << step;
    }
  }
  // Final full merge: pure column scan (no delta) must also agree.
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(HtapState(table, nullptr, mgr.LastCommittedCsn()), live);
}

// A merge drains entries from the delta and applies them to the main. A
// fresh scan reads both; if it could run between the drain and the apply
// it would see the drained rows in neither. One writer commits ascending
// keys, a merge loop follows it with a hook that sleeps between drain and
// apply, and readers check that every key committed before their scan
// began appears exactly once.
TEST(SyncTest, FreshScansNeverFallBetweenDrainAndApply) {
  constexpr uint64_t kSeed = 20261017;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  constexpr Key kKeys = 3000;
  ColumnTable table(TestSchema());
  InMemoryDeltaStore delta(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));
  sync.SetDrainHookForTest(
      [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); });

  std::atomic<CSN> committed{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> scans{0};
  std::thread writer([&] {
    Random rng(kSeed);
    Key k = 0;
    while (k < kKeys) {
      // Commit a batch of 1..16 ascending keys, one CSN each.
      const Key end =
          std::min<Key>(kKeys, k + 1 + static_cast<Key>(rng.Uniform(16)));
      for (; k < end; ++k) {
        DeltaEntry e;
        e.op = ChangeOp::kInsert;
        e.key = k;
        e.row = MakeRow(k, k);
        e.csn = static_cast<CSN>(k + 1);
        delta.Append(e);
      }
      // order: release — the appended entries happen-before a reader that
      // observes the new frontier.
      committed.store(static_cast<CSN>(k), std::memory_order_release);
      std::this_thread::yield();
    }
  });
  std::thread merger([&] {
    // order: acquire pairs with the readers' release of the stop flag.
    while (!done.load(std::memory_order_acquire)) {
      // order: acquire pairs with the writer's release.
      ASSERT_TRUE(sync.SyncTo(committed.load(std::memory_order_acquire)).ok());
      std::this_thread::yield();
    }
  });
  auto reader = [&](bool batches) {
    for (int i = 0; i < 150; ++i) {
      // order: acquire pairs with the writer's release.
      const CSN c = committed.load(std::memory_order_acquire);
      ExecContext exec;
      exec.batch_rows = 64;
      const std::vector<Row> rows =
          batches ? BatchesToRows(ScanHtapBatches(table, &delta, c,
                                                  Predicate::True(), {}, exec))
                  : ScanHtapRows(table, &delta, c, Predicate::True(), {});
      std::vector<int> seen(kKeys, 0);
      for (const Row& r : rows) ++seen[static_cast<size_t>(r.Get(0).AsInt64())];
      for (Key k = 0; k < kKeys; ++k) {
        if (static_cast<CSN>(k) < c) {
          ASSERT_EQ(seen[static_cast<size_t>(k)], 1)
              << "key " << k << " committed before scan at csn " << c;
        } else {
          ASSERT_LE(seen[static_cast<size_t>(k)], 1) << "key " << k;
        }
      }
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread row_reader(reader, false);
  std::thread batch_reader(reader, true);
  row_reader.join();
  batch_reader.join();
  writer.join();
  // order: release pairs with the merge loop's acquire.
  done.store(true, std::memory_order_release);
  merger.join();
  EXPECT_EQ(scans.load(std::memory_order_relaxed), 300u);
  EXPECT_GT(sync.stats().merges, 0u);
}

TEST(FreshnessTrackerTest, LagReflectsUnmergedCommits) {
  VirtualClock clock;
  FreshnessTracker tracker(&clock);
  std::vector<ChangeEvent> evs(1);
  evs[0].csn = 10;
  clock.AdvanceTo(1000);
  tracker.OnCommit(evs);
  clock.AdvanceTo(5000);

  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/9), 4000);
  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/10), 0);
  EXPECT_EQ(tracker.CsnLag(10, 4), 6u);
  EXPECT_EQ(tracker.CsnLag(10, 10), 0u);
}

/// The linear lookup the binary search replaced: the age of the first
/// sample newer than `visible`, or 0.
Micros LinearLag(const std::deque<std::pair<CSN, Micros>>& samples,
                 CSN visible, Micros now) {
  for (const auto& [csn, t] : samples)
    if (csn > visible) return now - t;
  return 0;
}

TEST(FreshnessTrackerTest, BinarySearchMatchesLinearReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    VirtualClock clock;
    FreshnessTracker tracker(&clock);
    std::deque<std::pair<CSN, Micros>> ref;
    const Micros t0 = 1000;
    clock.AdvanceTo(t0);
    // Empty tracker: nothing is pending.
    EXPECT_EQ(tracker.TimeLagMicros(0), 0);
    // Commits with gaps in CSN (other tables' commits) and in time; some
    // share a timestamp.
    CSN csn = rng.Uniform(5);
    const size_t n = 1 + rng.Uniform(300);
    for (size_t i = 0; i < n; ++i) {
      csn += 1 + rng.Uniform(3);
      clock.AdvanceBy(static_cast<Micros>(rng.Uniform(50)));
      std::vector<ChangeEvent> evs(1 + rng.Uniform(3));
      evs.back().csn = csn;
      tracker.OnCommit(evs);
      ref.emplace_back(csn, clock.NowMicros());
    }
    clock.AdvanceBy(100);
    const Micros now = clock.NowMicros();
    for (CSN v = 0; v <= csn + 2; ++v)
      ASSERT_EQ(tracker.TimeLagMicros(v), LinearLag(ref, v, now)) << v;
    // Everything visible; and a visible CSN older than the oldest sample,
    // which reports the oldest sample's age.
    EXPECT_EQ(tracker.TimeLagMicros(csn), 0);
    EXPECT_EQ(tracker.TimeLagMicros(kMaxCSN), 0);
    EXPECT_EQ(tracker.TimeLagMicros(0), now - ref.front().second);
  }
}

TEST(FreshnessTrackerTest, LookupPastTheSampleWindow) {
  VirtualClock clock;
  FreshnessTracker tracker(&clock);
  std::vector<ChangeEvent> evs(1);
  const size_t total = FreshnessTracker::kMaxSamples + 50;
  for (size_t i = 1; i <= total; ++i) {
    clock.AdvanceTo(static_cast<Micros>(i));
    evs[0].csn = static_cast<CSN>(i);
    tracker.OnCommit(evs);
  }
  clock.AdvanceTo(static_cast<Micros>(total + 10));
  // The oldest 50 samples were dropped: a visible CSN older than the oldest
  // kept sample reports that sample's age.
  EXPECT_EQ(tracker.TimeLagMicros(3), static_cast<Micros>(total + 10 - 51));
  EXPECT_EQ(tracker.TimeLagMicros(100), static_cast<Micros>(total + 10 - 101));
  EXPECT_EQ(tracker.TimeLagMicros(static_cast<CSN>(total)), 0);
}

}  // namespace
}  // namespace htap
