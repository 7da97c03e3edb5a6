// Delta-store tests: all three designs honor the DeltaReader contract
// (CSN-ordered visibility, drain semantics), the HTAP scan's delta overlay
// unions each of them with a main column store correctly, plus
// design-specific behavior (L1->L2 spill, log-delta file decoding and
// B+-tree key lookups).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "delta/delta.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "reference_executor.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

DeltaEntry E(ChangeOp op, Key k, int64_t v, CSN csn) {
  DeltaEntry e;
  e.op = op;
  e.key = k;
  e.csn = csn;
  if (op != ChangeOp::kDelete) e.row = Row{Value(k), Value(v)};
  return e;
}

std::vector<DeltaEntry> Collect(const DeltaReader& r, CSN snap) {
  std::vector<DeltaEntry> out;
  r.ScanVisible(snap, [&](const DeltaSlice& s) {
    for (size_t i = s.begin; i < s.end; ++i)
      out.push_back(s.chunk->EntryAt(i));
  });
  return out;
}

size_t Entries(const std::vector<DeltaChunk>& chunks) {
  size_t n = 0;
  for (const DeltaChunk& c : chunks) n += c.size();
  return n;
}

// ---- Shared contract, parameterized over the three designs -----------

enum class DeltaKind { kInMemory, kL1L2, kLog };

class DeltaContractTest : public ::testing::TestWithParam<DeltaKind> {
 protected:
  // A thin uniform mutation interface over the three stores.
  void SetUp() override {
    switch (GetParam()) {
      case DeltaKind::kInMemory:
        mem_ = std::make_unique<InMemoryDeltaStore>(TestSchema());
        break;
      case DeltaKind::kL1L2:
        l1l2_ = std::make_unique<L1L2DeltaStore>(TestSchema(), 4);
        break;
      case DeltaKind::kLog:
        log_ = std::make_unique<LogDeltaStore>(TestSchema());
        break;
    }
  }

  Status Append(const DeltaEntry& e) {
    if (mem_) return mem_->Append(e);
    if (l1l2_) return l1l2_->Append(e);
    return log_->AppendFile({e});
  }

  DeltaReader* reader() {
    if (mem_) return mem_.get();
    if (l1l2_) return l1l2_.get();
    return log_.get();
  }

  std::vector<DeltaChunk> Drain(CSN csn) {
    if (mem_) return mem_->DrainUpTo(csn);
    if (l1l2_) return l1l2_->DrainUpTo(csn);
    return log_->DrainUpTo(csn);
  }

  std::unique_ptr<InMemoryDeltaStore> mem_;
  std::unique_ptr<L1L2DeltaStore> l1l2_;
  std::unique_ptr<LogDeltaStore> log_;
};

TEST_P(DeltaContractTest, ScanVisibleHonorsSnapshot) {
  for (CSN c = 1; c <= 10; ++c)
    Append(E(ChangeOp::kInsert, static_cast<Key>(c), 100 + static_cast<int64_t>(c), c));
  EXPECT_EQ(Collect(*reader(), 5).size(), 5u);
  EXPECT_EQ(Collect(*reader(), 0).size(), 0u);
  EXPECT_EQ(Collect(*reader(), 100).size(), 10u);
  EXPECT_EQ(reader()->EntryCount(), 10u);
}

TEST_P(DeltaContractTest, ScanPreservesCommitOrder) {
  for (CSN c = 1; c <= 20; ++c)
    Append(E(ChangeOp::kUpdate, static_cast<Key>(c % 3), c, c));
  const auto entries = Collect(*reader(), 20);
  ASSERT_EQ(entries.size(), 20u);
  for (size_t i = 1; i < entries.size(); ++i)
    EXPECT_LE(entries[i - 1].csn, entries[i].csn);
}

TEST_P(DeltaContractTest, RowPayloadSurvives) {
  Append(E(ChangeOp::kInsert, 7, 777, 3));
  const auto entries = Collect(*reader(), 3);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].row.Get(1).AsInt64(), 777);
  EXPECT_EQ(entries[0].op, ChangeOp::kInsert);
}

TEST_P(DeltaContractTest, DeletesCarryNoRow) {
  Append(E(ChangeOp::kDelete, 7, 0, 1));
  const auto entries = Collect(*reader(), 1);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].op, ChangeOp::kDelete);
  EXPECT_TRUE(entries[0].row.empty());
}

TEST_P(DeltaContractTest, DrainRemovesOnlyOldEntries) {
  for (CSN c = 1; c <= 10; ++c)
    Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  const auto drained = Drain(6);
  EXPECT_EQ(Entries(drained), 6u);
  EXPECT_EQ(reader()->EntryCount(), 4u);
  const auto rest = Collect(*reader(), 100);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].csn, 7u);
}

// One writer appends while a scanner reads chunk ranges and a drainer
// moves chunks out (the TSan suite runs this): every scan sees a CSN-ordered
// prefix of what was appended, and the drains account for every entry once.
TEST_P(DeltaContractTest, AppendRacesScanAndDrain) {
  constexpr CSN kLast = 3000;
  std::atomic<CSN> appended{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (CSN c = 1; c <= kLast; ++c) {
      Append(E(c % 3 == 0 ? ChangeOp::kDelete : ChangeOp::kUpdate,
               static_cast<Key>(c % 50), static_cast<int64_t>(c), c));
      // order: release — the appended entry happens-before a drainer that
      // observes the new frontier.
      appended.store(c, std::memory_order_release);
    }
  });
  std::thread scanner([&] {
    // order: acquire pairs with the drainer's release of the stop flag.
    while (!done.load(std::memory_order_acquire)) {
      CSN prev = 0;
      for (const DeltaEntry& e : Collect(*reader(), kMaxCSN)) {
        ASSERT_GT(e.csn, prev);
        ASSERT_EQ(e.op == ChangeOp::kDelete, e.row.empty());
        if (!e.row.empty()) ASSERT_EQ(e.row.Get(1).AsInt64(),
                                      static_cast<int64_t>(e.csn));
        prev = e.csn;
      }
    }
  });
  size_t drained = 0;
  while (drained < kLast) {
    // order: acquire pairs with the writer's release.
    for (const DeltaChunk& c : Drain(appended.load(std::memory_order_acquire)))
      drained += c.size();
    std::this_thread::yield();
  }
  writer.join();
  // order: release pairs with the scanner's acquire.
  done.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_EQ(drained, kLast);
  EXPECT_EQ(reader()->EntryCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDeltaDesigns, DeltaContractTest,
                         ::testing::Values(DeltaKind::kInMemory,
                                           DeltaKind::kL1L2,
                                           DeltaKind::kLog));

// ---- The delta overlay of the HTAP scan, over each design ---------------

Row R(Key k, int64_t v) { return Row{Value(k), Value(v)}; }

// Main: keys 0..9 with v = 10k, in two row groups. Every case scans the
// union serially in one batch per group and checks ScanHtapBatches against
// it at batch_rows 0, 7 and 4096, serial and parallel.
TEST_P(DeltaContractTest, MisfitRowImageIsRejectedAndNothingStaged) {
  DeltaEntry wrong_type = E(ChangeOp::kInsert, 2, 0, 1);
  wrong_type.row.Set(1, Value(2.5));  // DOUBLE in an INT64 column
  DeltaEntry short_row = E(ChangeOp::kInsert, 3, 0, 1);
  short_row.row = Row{Value(int64_t{3})};
  // Rejected into an empty store, then next to a staged change.
  EXPECT_TRUE(Append(wrong_type).IsInvalidArgument());
  EXPECT_EQ(reader()->EntryCount(), 0u);
  EXPECT_TRUE(Collect(*reader(), 100).empty());
  ASSERT_TRUE(Append(E(ChangeOp::kInsert, 1, 10, 1)).ok());
  EXPECT_TRUE(Append(wrong_type).IsInvalidArgument());
  EXPECT_TRUE(Append(short_row).IsInvalidArgument());
  ASSERT_TRUE(Append(E(ChangeOp::kUpdate, 1, 11, 2)).ok());

  EXPECT_EQ(reader()->EntryCount(), 2u);
  const auto all = Collect(*reader(), 100);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].row, (Row{Value(int64_t{1}), Value(int64_t{10})}));
  EXPECT_EQ(all[1].row, (Row{Value(int64_t{1}), Value(int64_t{11})}));
  EXPECT_EQ(Entries(Drain(100)), 2u);
}

class DeltaOverlayTest : public DeltaContractTest {
 protected:
  DeltaOverlayTest() : table_(TestSchema()), pool_(2, "overlay-ap") {
    for (Key lo : {Key{0}, Key{5}}) {
      std::vector<Row> group;
      for (Key k = lo; k < lo + 5; ++k) group.push_back(R(k, 10 * k));
      table_.AppendBatch(group, 1);
    }
  }

  std::vector<Row> Scan(CSN snap, const Predicate& pred = Predicate::True()) {
    ScanStats row_st;
    ExecContext base;
    base.batch_rows = 0;
    const auto rows =
        ScanHtapRows(table_, reader(), snap, pred, {}, base, &row_st);
    for (size_t batch_rows : {size_t{0}, size_t{7}, size_t{4096}}) {
      for (bool parallel : {false, true}) {
        SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows) +
                     (parallel ? " par" : " ser"));
        ExecContext exec;
        if (parallel) exec = ExecContext{&pool_, 2};
        exec.batch_rows = batch_rows;
        ScanStats st;
        const auto batches =
            ScanHtapBatches(table_, reader(), snap, pred, {}, exec, &st);
        EXPECT_EQ(BatchesToRows(batches), rows);
        EXPECT_EQ(st.delta_entries_read, row_st.delta_entries_read);
        EXPECT_EQ(st.delta_rows_emitted, row_st.delta_rows_emitted);
        EXPECT_EQ(st.rows_considered, row_st.rows_considered);
        for (const ColumnBatch& b : batches) {
          EXPECT_GT(b.active(), 0u);
          if (batch_rows != 0) EXPECT_LE(b.rows(), batch_rows);
        }
      }
    }
    last_stats_ = row_st;
    return rows;
  }

  /// The main rows 0..9 without `skip`, then `tail`.
  static std::vector<Row> Expect(const std::vector<Key>& skip,
                                 const std::vector<Row>& tail) {
    std::vector<Row> out;
    for (Key k = 0; k < 10; ++k)
      if (std::find(skip.begin(), skip.end(), k) == skip.end())
        out.push_back(R(k, 10 * k));
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  }

  ColumnTable table_;
  ThreadPool pool_;
  ScanStats last_stats_;
};

TEST_P(DeltaOverlayTest, KeyUpdatedTwiceEmitsOnlyTheLatest) {
  Append(E(ChangeOp::kUpdate, 3, 31, 2));
  Append(E(ChangeOp::kUpdate, 3, 32, 3));
  EXPECT_EQ(Scan(10), Expect({3}, {R(3, 32)}));
  EXPECT_EQ(last_stats_.delta_entries_read, 2u);
  EXPECT_EQ(last_stats_.delta_rows_emitted, 1u);
  EXPECT_EQ(last_stats_.rows_considered, 9u);  // main 3 hidden
}

TEST_P(DeltaOverlayTest, UpdateThenDeleteHidesTheKey) {
  Append(E(ChangeOp::kUpdate, 6, 61, 2));
  Append(E(ChangeOp::kDelete, 6, 0, 3));
  EXPECT_EQ(Scan(10), Expect({6}, {}));
  EXPECT_EQ(last_stats_.delta_rows_emitted, 0u);
}

TEST_P(DeltaOverlayTest, DeleteThenReinsertEmitsTheNewRow) {
  Append(E(ChangeOp::kDelete, 4, 0, 2));
  Append(E(ChangeOp::kInsert, 4, 44, 3));
  EXPECT_EQ(Scan(10), Expect({4}, {R(4, 44)}));
}

TEST_P(DeltaOverlayTest, KeyAbsentFromMainIsAppended) {
  Append(E(ChangeOp::kInsert, 42, 420, 2));
  EXPECT_EQ(Scan(10), Expect({}, {R(42, 420)}));
  EXPECT_EQ(last_stats_.rows_considered, 10u);  // nothing hidden
}

TEST_P(DeltaOverlayTest, LatestFailingPredicateHidesMainAndEmitsNothing) {
  // v >= 100: main 8 (v=80) fails; the older delta version (150) passes,
  // the latest (5) fails — so key 8 appears nowhere.
  Append(E(ChangeOp::kUpdate, 8, 150, 2));
  Append(E(ChangeOp::kUpdate, 8, 5, 3));
  Append(E(ChangeOp::kUpdate, 9, 190, 4));
  const Predicate pred = Predicate::Ge(1, Value(int64_t{100}));
  EXPECT_EQ(Scan(10, pred), (std::vector<Row>{R(9, 190)}));
  EXPECT_EQ(last_stats_.delta_rows_emitted, 1u);
  // The older version alone passes and is emitted.
  EXPECT_EQ(Scan(2, pred), (std::vector<Row>{R(8, 150)}));
}

TEST_P(DeltaOverlayTest, SnapshotBetweenVersionsSeesTheOlder) {
  Append(E(ChangeOp::kUpdate, 2, 21, 5));
  Append(E(ChangeOp::kUpdate, 2, 22, 8));
  Append(E(ChangeOp::kDelete, 2, 0, 11));
  EXPECT_EQ(Scan(4), Expect({}, {}));
  EXPECT_EQ(Scan(5), Expect({2}, {R(2, 21)}));
  EXPECT_EQ(Scan(7), Expect({2}, {R(2, 21)}));
  EXPECT_EQ(Scan(8), Expect({2}, {R(2, 22)}));
  EXPECT_EQ(Scan(11), Expect({2}, {}));
}

TEST_P(DeltaOverlayTest, DeltaRowsFollowCommitOrderOfLatestEntry) {
  // Key 1 first changes before key 50, but its latest entry is last.
  Append(E(ChangeOp::kUpdate, 1, 11, 2));
  Append(E(ChangeOp::kInsert, 50, 500, 3));
  Append(E(ChangeOp::kInsert, 51, 510, 4));
  Append(E(ChangeOp::kUpdate, 1, 12, 5));
  EXPECT_EQ(Scan(10), Expect({1}, {R(50, 500), R(51, 510), R(1, 12)}));
}

TEST_P(DeltaOverlayTest, ManyKeysAcrossBatchBoundaries) {
  // Enough entries to span several 7-row batches, grow the key table, and
  // supersede slots in every batch.
  CSN c = 2;
  for (int round = 0; round < 3; ++round)
    for (Key k = 0; k < 2000; k += 3)
      Append(E(ChangeOp::kUpdate, k, 1000 * round + k, c++));
  std::vector<Key> hidden;
  std::vector<Row> tail;
  for (Key k = 0; k < 10; k += 3) hidden.push_back(k);
  for (Key k = 0; k < 2000; k += 3) tail.push_back(R(k, 2000 + k));
  EXPECT_EQ(Scan(c), Expect(hidden, tail));
  EXPECT_EQ(last_stats_.delta_entries_read, 3 * tail.size());
}

INSTANTIATE_TEST_SUITE_P(AllDeltaDesigns, DeltaOverlayTest,
                         ::testing::Values(DeltaKind::kInMemory,
                                           DeltaKind::kL1L2,
                                           DeltaKind::kLog));

// ---- Design-specific behavior ------------------------------------------

TEST(L1L2DeltaTest, SpillsAtThreshold) {
  L1L2DeltaStore d(TestSchema(), /*l1_spill_threshold=*/8);
  for (CSN c = 1; c <= 7; ++c) d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  EXPECT_EQ(d.l1_size(), 7u);
  EXPECT_EQ(d.l2_size(), 0u);
  d.Append(E(ChangeOp::kInsert, 8, 8, 8));  // hits the threshold
  EXPECT_EQ(d.l1_size(), 0u);
  EXPECT_EQ(d.l2_size(), 8u);
  // Scan covers both layers in order.
  d.Append(E(ChangeOp::kInsert, 9, 9, 9));
  const auto all = Collect(d, 100);
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all.back().csn, 9u);
}

TEST(L1L2DeltaTest, ManualSpillAndDrainAcrossLayers) {
  L1L2DeltaStore d(TestSchema(), 1000);
  for (CSN c = 1; c <= 5; ++c) d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  d.SpillL1();
  for (CSN c = 6; c <= 8; ++c) d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  // Drain cuts through the middle of the L2 chunk.
  const auto drained = d.DrainUpTo(3);
  EXPECT_EQ(Entries(drained), 3u);
  EXPECT_EQ(d.EntryCount(), 5u);
  const auto rest = Collect(d, 100);
  EXPECT_EQ(rest.front().csn, 4u);
}

TEST(L1L2DeltaTest, DeletesInColumnarL2RoundTrip) {
  L1L2DeltaStore d(TestSchema(), 2);
  d.Append(E(ChangeOp::kInsert, 1, 10, 1));
  d.Append(E(ChangeOp::kDelete, 1, 0, 2));  // triggers spill of both
  EXPECT_EQ(d.l2_size(), 2u);
  const auto all = Collect(d, 10);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].op, ChangeOp::kDelete);
  EXPECT_TRUE(all[1].row.empty());
}

TEST(LogDeltaTest, FilesAreEncodedAndCounted) {
  LogDeltaStore d(TestSchema());
  std::vector<DeltaEntry> batch;
  for (CSN c = 1; c <= 5; ++c)
    batch.push_back(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  d.AppendFile(batch);
  d.AppendFile({E(ChangeOp::kUpdate, 1, 99, 6)});
  EXPECT_EQ(d.num_files(), 2u);
  EXPECT_EQ(d.EntryCount(), 6u);
  EXPECT_EQ(d.bytes_decoded(), 0u);
  Collect(d, 100);
  EXPECT_GT(d.bytes_decoded(), 0u);  // reads pay the decode cost
}

TEST(LogDeltaTest, KeyIndexFindsLatestEntry) {
  LogDeltaStore d(TestSchema());
  d.AppendFile({E(ChangeOp::kInsert, 42, 1, 1)});
  d.AppendFile({E(ChangeOp::kUpdate, 42, 2, 2)});
  DeltaEntry out;
  ASSERT_TRUE(d.LookupLatest(42, &out));
  EXPECT_EQ(out.csn, 2u);
  EXPECT_EQ(out.row.Get(1).AsInt64(), 2);
  EXPECT_FALSE(d.LookupLatest(7, &out));
}

TEST(LogDeltaTest, DrainSplitsTheStraddlingFile) {
  LogDeltaStore d(TestSchema());
  d.AppendFile({E(ChangeOp::kInsert, 1, 1, 1), E(ChangeOp::kInsert, 2, 2, 2)});
  d.AppendFile({E(ChangeOp::kInsert, 3, 3, 3), E(ChangeOp::kInsert, 4, 4, 4),
                E(ChangeOp::kInsert, 5, 5, 5)});
  // CSN 3 falls inside file 2: file 1 and file 2's first entry drain.
  const auto drained = d.DrainUpTo(3);
  EXPECT_EQ(Entries(drained), 3u);
  EXPECT_EQ(d.num_files(), 1u);
  EXPECT_EQ(d.EntryCount(), 2u);
  DeltaEntry out;
  ASSERT_TRUE(d.LookupLatest(5, &out));  // resolvable after the split
  EXPECT_EQ(out.csn, 5u);
  EXPECT_TRUE(d.LookupLatest(4, &out));
  EXPECT_FALSE(d.LookupLatest(3, &out));  // drained from the split file
  EXPECT_FALSE(d.LookupLatest(1, &out));  // merged-away index entry is stale
  EXPECT_EQ(Entries(d.DrainUpTo(4)), 1u);  // splits again
  EXPECT_TRUE(d.LookupLatest(5, &out));
  EXPECT_EQ(Entries(d.DrainUpTo(9)), 1u);
  EXPECT_EQ(d.num_files(), 0u);
}

TEST(InMemoryDeltaTest, MemoryAccountingShrinksOnDrain) {
  InMemoryDeltaStore d(TestSchema());
  for (CSN c = 1; c <= 100; ++c)
    d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  const size_t before = d.MemoryBytes();
  EXPECT_GT(before, 0u);
  d.DrainUpTo(50);
  EXPECT_LT(d.MemoryBytes(), before);
  EXPECT_EQ(d.max_csn(), 100u);
}

}  // namespace
}  // namespace htap
