// MVCC row store + transaction manager tests: snapshot isolation
// semantics, write-write conflicts (first-updater-wins), aborts, own-write
// visibility, change publication, vacuum, recovery apply, packed-image
// self-updates and exact memory accounting, concurrent readers against
// writers, and a randomized snapshot-consistency property test.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "common/random.h"
#include "storage/mvcc_row_store.h"
#include "txn/txn_manager.h"
#include "wal/recovery.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"val", Type::kInt64},
                 {"name", Type::kString}});
}

Row MakeRow(Key id, int64_t val, const std::string& name = "n") {
  return Row{Value(id), Value(val), Value(name)};
}

class MvccTest : public ::testing::Test {
 protected:
  MvccTest() : store_(1, TestSchema(), &mgr_, nullptr) {}
  TransactionManager mgr_;
  MvccRowStore store_;
};

TEST_F(MvccTest, InsertCommitRead) {
  auto txn = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(txn.get(), MakeRow(1, 10)).ok());
  ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);
  EXPECT_EQ(store_.ApproxRowCount(), 1u);
}

TEST_F(MvccTest, UncommittedInvisibleToOthers) {
  auto writer = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(writer.get(), MakeRow(1, 10)).ok());
  Row out;
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).IsNotFound());
  // But visible to itself.
  EXPECT_TRUE(store_.Get(writer->snapshot(), 1, &out).ok());
  mgr_.Commit(writer.get());
}

TEST_F(MvccTest, SnapshotIgnoresLaterCommits) {
  auto t1 = mgr_.Begin();
  store_.Insert(t1.get(), MakeRow(1, 10));
  mgr_.Commit(t1.get());

  const Snapshot old_snap = mgr_.CurrentSnapshot();

  auto t2 = mgr_.Begin();
  Row row = MakeRow(1, 20);
  ASSERT_TRUE(store_.Update(t2.get(), row).ok());
  mgr_.Commit(t2.get());

  Row out;
  ASSERT_TRUE(store_.Get(old_snap, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);  // the old version
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 20);
}

TEST_F(MvccTest, WriteWriteConflictAbortsSecondWriter) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();
  auto t2 = mgr_.Begin();
  ASSERT_TRUE(store_.Update(t1.get(), MakeRow(1, 11)).ok());
  EXPECT_TRUE(store_.Update(t2.get(), MakeRow(1, 22)).IsConflict());
  EXPECT_GE(mgr_.conflicts(), 1u);
  mgr_.Commit(t1.get());
  mgr_.Abort(t2.get());
  Row out;
  store_.Get(mgr_.CurrentSnapshot(), 1, &out);
  EXPECT_EQ(out.Get(1).AsInt64(), 11);
}

TEST_F(MvccTest, ConflictWithCommittedWriterAfterSnapshot) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();  // snapshot before t2's commit
  auto t2 = mgr_.Begin();
  store_.Update(t2.get(), MakeRow(1, 2));
  mgr_.Commit(t2.get());
  // First-committer-wins under SI: t1 must not clobber.
  EXPECT_TRUE(store_.Update(t1.get(), MakeRow(1, 3)).IsConflict());
  mgr_.Abort(t1.get());
}

TEST_F(MvccTest, AbortRollsBackInsertUpdateDelete) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  store_.Insert(t0.get(), MakeRow(2, 2));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t1.get(), MakeRow(3, 3)).ok());
  ASSERT_TRUE(store_.Update(t1.get(), MakeRow(1, 100)).ok());
  ASSERT_TRUE(store_.Delete(t1.get(), 2).ok());
  ASSERT_TRUE(mgr_.Abort(t1.get()).ok());

  Row out;
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 3, &out).IsNotFound());
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 1);
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 2, &out).ok());
}

TEST_F(MvccTest, DeleteThenReinsert) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());

  auto t1 = mgr_.Begin();
  ASSERT_TRUE(store_.Delete(t1.get(), 1).ok());
  mgr_.Commit(t1.get());
  Row out;
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).IsNotFound());

  auto t2 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t2.get(), MakeRow(1, 2)).ok());
  mgr_.Commit(t2.get());
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 2);
}

TEST_F(MvccTest, InsertDuplicateFails) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 1));
  mgr_.Commit(t0.get());
  auto t1 = mgr_.Begin();
  EXPECT_TRUE(store_.Insert(t1.get(), MakeRow(1, 9)).IsAlreadyExists());
  mgr_.Abort(t1.get());
}

TEST_F(MvccTest, RowsThatDoNotFitTheSchemaAreRejected) {
  auto t = mgr_.Begin();
  EXPECT_TRUE(store_.Insert(t.get(), Row{Value(int64_t{1}), Value(2.5),
                                         Value("n")})
                  .IsInvalidArgument());
  EXPECT_TRUE(store_.Insert(t.get(), Row{Value(int64_t{1}), Value("x"),
                                         Value("n")})
                  .IsInvalidArgument());
  EXPECT_TRUE(store_.Insert(t.get(), Row{Value(), Value(int64_t{1}),
                                         Value("n")})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      store_.Insert(t.get(), Row{Value(int64_t{1}), Value(int64_t{2})})
          .IsInvalidArgument());
  ASSERT_TRUE(store_.Insert(t.get(), Row{Value(int64_t{1}), Value(),
                                         Value("n")})
                  .ok());  // NULL fits any non-key column
  EXPECT_TRUE(store_.Update(t.get(), Row{Value(int64_t{1}), Value(int64_t{2}),
                                         Value(int64_t{3})})
                  .IsInvalidArgument());
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_TRUE(out.Get(1).is_null());
}

TEST_F(MvccTest, OwnWriteReadAndInPlaceUpdate) {
  auto t = mgr_.Begin();
  store_.Insert(t.get(), MakeRow(1, 1));
  ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, 2)).ok());  // own uncommitted
  Row out;
  ASSERT_TRUE(store_.Get(t->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 2);
  ASSERT_TRUE(store_.Delete(t.get(), 1).ok());
  EXPECT_TRUE(store_.Get(t->snapshot(), 1, &out).IsNotFound());
  mgr_.Commit(t.get());
  EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).IsNotFound());
}

TEST_F(MvccTest, ScanSeesConsistentSnapshot) {
  auto t0 = mgr_.Begin();
  for (Key k = 0; k < 50; ++k) store_.Insert(t0.get(), MakeRow(k, k));
  mgr_.Commit(t0.get());
  const Snapshot snap = mgr_.CurrentSnapshot();

  auto t1 = mgr_.Begin();
  store_.Delete(t1.get(), 10);
  store_.Update(t1.get(), MakeRow(20, 999));
  store_.Insert(t1.get(), MakeRow(100, 100));
  mgr_.Commit(t1.get());

  size_t count = 0;
  int64_t sum = 0;
  store_.Scan(snap, [&](Key, const Row& r) {
    ++count;
    sum += r.Get(1).AsInt64();
    return true;
  });
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST_F(MvccTest, ScanRangeBounds) {
  auto t0 = mgr_.Begin();
  for (Key k = 0; k < 100; ++k) store_.Insert(t0.get(), MakeRow(k, k));
  mgr_.Commit(t0.get());
  std::vector<Key> keys;
  store_.ScanRange(mgr_.CurrentSnapshot(), 10, 15, [&](Key k, const Row&) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<Key>{10, 11, 12, 13, 14, 15}));
}

TEST_F(MvccTest, ChangeSinkReceivesCommitOrderedEvents) {
  struct CollectingSink : ChangeSink {
    std::vector<ChangeEvent> events;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      events.insert(events.end(), evs.begin(), evs.end());
    }
  } sink;
  mgr_.RegisterSink(&sink);

  auto t = mgr_.Begin();
  store_.Insert(t.get(), MakeRow(1, 1));
  store_.Update(t.get(), MakeRow(1, 2));
  store_.Insert(t.get(), MakeRow(2, 2));
  mgr_.Commit(t.get());

  // Aborted transactions publish nothing.
  auto t2 = mgr_.Begin();
  store_.Insert(t2.get(), MakeRow(3, 3));
  mgr_.Abort(t2.get());

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].op, ChangeOp::kInsert);
  EXPECT_EQ(sink.events[1].op, ChangeOp::kUpdate);
  EXPECT_EQ(sink.events[0].csn, sink.events[1].csn);
  EXPECT_GT(sink.events[0].csn, 0u);
  mgr_.UnregisterSink(&sink);
}

TEST_F(MvccTest, VacuumReclaimsDeadVersions) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 0));
  mgr_.Commit(t0.get());
  for (int i = 1; i <= 20; ++i) {
    auto t = mgr_.Begin();
    store_.Update(t.get(), MakeRow(1, i));
    mgr_.Commit(t.get());
  }
  EXPECT_EQ(store_.VersionCount(), 21u);
  const size_t reclaimed = store_.Vacuum(mgr_.Watermark());
  EXPECT_EQ(reclaimed, 20u);
  EXPECT_EQ(store_.VersionCount(), 1u);
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 20);
}

TEST_F(MvccTest, VacuumPreservesVersionsVisibleToActiveTxns) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 0));
  mgr_.Commit(t0.get());

  auto reader = mgr_.Begin();  // holds the watermark down
  auto t1 = mgr_.Begin();
  store_.Update(t1.get(), MakeRow(1, 1));
  mgr_.Commit(t1.get());

  store_.Vacuum(mgr_.Watermark());
  Row out;
  ASSERT_TRUE(store_.Get(reader->snapshot(), 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 0);  // old version survived
  mgr_.Commit(reader.get());
}

TEST_F(MvccTest, ApplyCommittedMatchesTransactionalPath) {
  MvccRowStore replica(1, TestSchema(), &mgr_, nullptr);
  ASSERT_TRUE(
      replica.ApplyCommitted(ChangeOp::kInsert, 1, MakeRow(1, 10), 5).ok());
  ASSERT_TRUE(
      replica.ApplyCommitted(ChangeOp::kUpdate, 1, MakeRow(1, 20), 6).ok());
  ASSERT_TRUE(replica.ApplyCommitted(ChangeOp::kDelete, 2, Row{}, 7).ok());
  // A row that does not fit the schema is refused, not stored.
  EXPECT_TRUE(replica
                  .ApplyCommitted(ChangeOp::kUpdate, 1,
                                  Row{Value(int64_t{1}), Value("x")}, 8)
                  .IsInvalidArgument());

  Row out;
  ASSERT_TRUE(replica.Get(Snapshot{10, 0}, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 20);
  // Time travel: at CSN 5 the first version is visible.
  ASSERT_TRUE(replica.Get(Snapshot{5, 0}, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);
}

TEST_F(MvccTest, WalRecoveryReproducesCommittedState) {
  WalWriter wal({});
  TransactionManager mgr(&wal);
  MvccRowStore store(1, TestSchema(), &mgr, &wal);

  auto t1 = mgr.Begin();
  store.Insert(t1.get(), MakeRow(1, 10));
  store.Insert(t1.get(), MakeRow(2, 20));
  mgr.Commit(t1.get());
  auto t2 = mgr.Begin();
  store.Update(t2.get(), MakeRow(1, 11));
  store.Delete(t2.get(), 2);
  mgr.Commit(t2.get());
  auto t3 = mgr.Begin();  // crash before commit: must not replay
  store.Insert(t3.get(), MakeRow(9, 99));
  // (no commit)

  TransactionManager mgr2;
  MvccRowStore recovered(1, TestSchema(), &mgr2, nullptr);
  const auto records = WalReader::Parse(wal.ContentsForTest());
  ReplayWal(records, [&](const WalRecord& r, CSN csn) {
    const ChangeOp op = r.type == WalRecordType::kInsert   ? ChangeOp::kInsert
                        : r.type == WalRecordType::kUpdate ? ChangeOp::kUpdate
                                                           : ChangeOp::kDelete;
    ASSERT_TRUE(recovered.ApplyCommitted(op, r.key, r.row, csn).ok());
  });

  Row out;
  ASSERT_TRUE(recovered.Get(Snapshot{kMaxCSN - 1, 0}, 1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 11);
  EXPECT_TRUE(recovered.Get(Snapshot{kMaxCSN - 1, 0}, 2, &out).IsNotFound());
  EXPECT_TRUE(recovered.Get(Snapshot{kMaxCSN - 1, 0}, 9, &out).IsNotFound());
  mgr.Abort(t3.get());
}

TEST_F(MvccTest, ConcurrentDisjointWritersAllCommit) {
  constexpr int kThreads = 4, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = mgr_.Begin();
        ASSERT_TRUE(
            store_.Insert(txn.get(), MakeRow(t * 1000 + i, i)).ok());
        ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store_.ApproxRowCount(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(mgr_.commits(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(MvccTest, ConcurrentContendedWritersSerialize) {
  auto t0 = mgr_.Begin();
  store_.Insert(t0.get(), MakeRow(1, 0));
  mgr_.Commit(t0.get());

  constexpr int kThreads = 4, kAttempts = 100;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        auto txn = mgr_.Begin();
        Row cur;
        if (!store_.Get(txn->snapshot(), 1, &cur).ok()) {
          mgr_.Abort(txn.get());
          continue;
        }
        Row next = MakeRow(1, cur.Get(1).AsInt64() + 1);
        if (store_.Update(txn.get(), next).ok() &&
            mgr_.Commit(txn.get()).ok()) {
          committed.fetch_add(1);
        } else if (txn->active()) {
          mgr_.Abort(txn.get());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Row out;
  ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
  // Counter equals the number of successful increments: no lost updates.
  EXPECT_EQ(out.Get(1).AsInt64(), committed.load());
  EXPECT_GT(committed.load(), 0);
}

// Property: a snapshot taken at any point sees exactly the committed state
// as of that point, regardless of later activity. The STRING column gets a
// fresh random length per write, so updates (own ones too) move images
// between sizes.
TEST_F(MvccTest, PropertySnapshotStability) {
  using Cells = std::pair<int64_t, std::string>;
  Random rng(99);
  std::map<Key, Cells> model;  // committed state
  std::vector<std::pair<Snapshot, std::map<Key, Cells>>> checkpoints;

  for (int step = 0; step < 500; ++step) {
    auto txn = mgr_.Begin();
    bool ok = true;
    std::map<Key, std::pair<bool, Cells>> pending;  // key -> (del, cells)
    const int ops = 1 + static_cast<int>(rng.Uniform(4));
    for (int o = 0; o < ops && ok; ++o) {
      const Key k = static_cast<Key>(rng.Uniform(30));
      const bool exists =
          pending.count(k) ? !pending[k].first : model.count(k) != 0;
      const Cells cells{step, rng.NextString(rng.Uniform(80))};
      if (!exists) {
        ok = store_.Insert(txn.get(), MakeRow(k, step, cells.second)).ok();
        if (ok) pending[k] = {false, cells};
      } else if (rng.Bernoulli(0.3)) {
        ok = store_.Delete(txn.get(), k).ok();
        if (ok) pending[k] = {true, Cells{}};
      } else {
        ok = store_.Update(txn.get(), MakeRow(k, step, cells.second)).ok();
        if (ok) pending[k] = {false, cells};
      }
    }
    if (ok && rng.Bernoulli(0.8)) {
      ASSERT_TRUE(mgr_.Commit(txn.get()).ok());
      for (const auto& [k, change] : pending) {
        if (change.first)
          model.erase(k);
        else
          model[k] = change.second;
      }
    } else if (txn->active()) {
      mgr_.Abort(txn.get());
    }
    if (step % 50 == 0) checkpoints.emplace_back(mgr_.CurrentSnapshot(), model);
  }

  // Every historical snapshot still reads its exact historical state.
  for (const auto& [snap, expected] : checkpoints) {
    std::map<Key, Cells> got;
    store_.Scan(snap, [&](Key k, const Row& r) {
      got[k] = {r.Get(1).AsInt64(), r.Get(2).AsString()};
      return true;
    });
    EXPECT_EQ(got, expected);
  }
}

// A transaction rewriting its own version to a longer, then a shorter image
// reads each of its writes back; an abort restores the committed row, a
// commit publishes only the last write, and an older snapshot keeps its row.
TEST_F(MvccTest, SelfUpdateGrowsAndShrinksAStringCell) {
  const std::string kLong(200, 'g');
  auto t0 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t0.get(), MakeRow(1, 0, "orig")).ok());
  ASSERT_TRUE(mgr_.Commit(t0.get()).ok());
  const Snapshot before = mgr_.CurrentSnapshot();

  for (const bool commit : {false, true}) {
    SCOPED_TRACE(commit ? "commit" : "abort");
    auto t = mgr_.Begin();
    Row out;
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, 1, "mid")).ok());
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, 2, kLong)).ok());  // grow
    ASSERT_TRUE(store_.Get(t->snapshot(), 1, &out).ok());
    EXPECT_EQ(out, MakeRow(1, 2, kLong));
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, 3, "")).ok());  // shrink
    ASSERT_TRUE(store_.Get(t->snapshot(), 1, &out).ok());
    EXPECT_EQ(out, MakeRow(1, 3, ""));
    // A fresh key inserted and rewritten in the same transaction.
    ASSERT_TRUE(store_.Insert(t.get(), MakeRow(2, 1, "s")).ok());
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(2, 2, kLong)).ok());
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(2, 3, "ss")).ok());
    EXPECT_EQ(store_.VersionCount(), 3u);  // one new version per key
    if (commit) {
      ASSERT_TRUE(mgr_.Commit(t.get()).ok());
      ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
      EXPECT_EQ(out, MakeRow(1, 3, ""));
      ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 2, &out).ok());
      EXPECT_EQ(out, MakeRow(2, 3, "ss"));
    } else {
      ASSERT_TRUE(mgr_.Abort(t.get()).ok());
      ASSERT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 1, &out).ok());
      EXPECT_EQ(out, MakeRow(1, 0, "orig"));
      EXPECT_TRUE(store_.Get(mgr_.CurrentSnapshot(), 2, &out).IsNotFound());
      EXPECT_EQ(store_.VersionCount(), 1u);
    }
    ASSERT_TRUE(store_.Get(before, 1, &out).ok());
    EXPECT_EQ(out, MakeRow(1, 0, "orig"));
  }
}

// A snapshot held open across 1,000 committed updates of its key reads
// exactly its own version, by point read and by scan; so does a snapshot
// taken halfway.
TEST_F(MvccTest, OpenSnapshotReadsItsVersionAcrossManyUpdates) {
  const auto name = [](int i) { return std::string(i % 97, 'a' + i % 26); };
  auto t0 = mgr_.Begin();
  ASSERT_TRUE(store_.Insert(t0.get(), MakeRow(1, 0, name(0))).ok());
  ASSERT_TRUE(mgr_.Commit(t0.get()).ok());
  auto reader = mgr_.Begin();
  Snapshot halfway{};
  for (int i = 1; i <= 1000; ++i) {
    auto t = mgr_.Begin();
    ASSERT_TRUE(store_.Update(t.get(), MakeRow(1, i, name(i))).ok());
    ASSERT_TRUE(mgr_.Commit(t.get()).ok());
    if (i == 500) halfway = mgr_.CurrentSnapshot();
  }
  EXPECT_EQ(store_.VersionCount(), 1001u);
  for (const auto& [snap, i] :
       {std::pair{reader->snapshot(), 0}, std::pair{halfway, 500},
        std::pair{mgr_.CurrentSnapshot(), 1000}}) {
    SCOPED_TRACE("version " + std::to_string(i));
    Row out;
    ASSERT_TRUE(store_.Get(snap, 1, &out).ok());
    EXPECT_EQ(out, MakeRow(1, i, name(i)));
    std::vector<Row> scanned;
    store_.Scan(snap, [&](Key, const Row& r) {
      scanned.push_back(r);
      return true;
    });
    EXPECT_EQ(scanned, std::vector<Row>{MakeRow(1, i, name(i))});
  }
  ASSERT_TRUE(mgr_.Commit(reader.get()).ok());
}

// MemoryBytes counts exactly the store's allocations: one VersionChain per
// key ever written and, per live version, its header plus its image.
TEST_F(MvccTest, MemoryBytesIsExactAtQuiescence) {
  const RowImageLayout layout(TestSchema());
  size_t chains = 0;
  std::vector<Row> live;  // rows of the versions the store should hold
  const auto expected = [&] {
    size_t b = chains * sizeof(VersionChain);
    for (const Row& r : live)
      b += sizeof(RowVersion) + layout.EncodedSize(r);
    return b;
  };
  EXPECT_EQ(store_.MemoryBytes(), 0u);

  auto t1 = mgr_.Begin();  // insert
  ASSERT_TRUE(store_.Insert(t1.get(), MakeRow(1, 1, "a")).ok());
  ASSERT_TRUE(store_.Insert(t1.get(), MakeRow(2, 2, "bbbb")).ok());
  ASSERT_TRUE(mgr_.Commit(t1.get()).ok());
  chains = 2;
  live = {MakeRow(1, 1, "a"), MakeRow(2, 2, "bbbb")};
  EXPECT_EQ(store_.MemoryBytes(), expected());

  auto t2 = mgr_.Begin();  // update: a second version of key 1
  ASSERT_TRUE(store_.Update(t2.get(), MakeRow(1, 10, "cc")).ok());
  ASSERT_TRUE(mgr_.Commit(t2.get()).ok());
  live.push_back(MakeRow(1, 10, "cc"));
  EXPECT_EQ(store_.MemoryBytes(), expected());

  auto t3 = mgr_.Begin();  // self-updates: same size, larger, smaller
  ASSERT_TRUE(store_.Insert(t3.get(), MakeRow(3, 3, "xy")).ok());
  ASSERT_TRUE(store_.Update(t3.get(), MakeRow(3, 4, "zw")).ok());
  ASSERT_TRUE(store_.Update(t3.get(), MakeRow(3, 5, std::string(90, 'q')))
                  .ok());
  ASSERT_TRUE(store_.Update(t3.get(), MakeRow(3, 6, "")).ok());
  ASSERT_TRUE(mgr_.Commit(t3.get()).ok());
  chains = 3;
  live.push_back(MakeRow(3, 6, ""));
  EXPECT_EQ(store_.MemoryBytes(), expected());

  auto t4 = mgr_.Begin();  // abort: versions go, the new key's chain stays
  ASSERT_TRUE(store_.Update(t4.get(), MakeRow(2, 20, "longer string")).ok());
  ASSERT_TRUE(store_.Update(t4.get(), MakeRow(2, 21, "s")).ok());
  ASSERT_TRUE(store_.Insert(t4.get(), MakeRow(4, 4, "new")).ok());
  ASSERT_TRUE(store_.Delete(t4.get(), 1).ok());
  ASSERT_TRUE(mgr_.Abort(t4.get()).ok());
  chains = 4;
  EXPECT_EQ(store_.MemoryBytes(), expected());

  // Vacuum frees key 1's superseded version.
  EXPECT_EQ(store_.Vacuum(mgr_.Watermark()), 1u);
  live.erase(live.begin());
  EXPECT_EQ(store_.MemoryBytes(), expected());
  EXPECT_EQ(store_.VersionCount(), live.size());
}

// Readers racing writers on a packed store: writers move amounts between
// keys and rewrite each touched row's string to match its new value, with
// lengths that change image size; every read must see whole rows (string
// consistent with value) and, per snapshot, the conserved total.
TEST_F(MvccTest, ConcurrentReadersSeeWholeRowsAndOneSnapshot) {
  constexpr Key kKeys = 16;
  constexpr int64_t kInitial = 100;
  const auto name = [](int64_t v) {  // values may go negative
    const auto u = static_cast<uint64_t>(v);
    return std::string(u % 61, static_cast<char>('a' + u % 26));
  };
  {
    auto t = mgr_.Begin();
    for (Key k = 0; k < kKeys; ++k)
      ASSERT_TRUE(store_.Insert(t.get(), MakeRow(k, kInitial, name(kInitial)))
                      .ok());
    ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> commits{0}, bad_rows{0}, bad_sums{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Random rng(7 + w);
      for (int i = 0; i < 400; ++i) {
        auto t = mgr_.Begin();
        const Key a = static_cast<Key>(rng.Uniform(kKeys));
        const Key b =
            (a + 1 + static_cast<Key>(rng.Uniform(kKeys - 1))) % kKeys;
        Row ra, rb;
        bool ok = store_.Get(t->snapshot(), a, &ra).ok() &&
                  store_.Get(t->snapshot(), b, &rb).ok();
        const int64_t amount = static_cast<int64_t>(rng.Uniform(10));
        if (ok) {
          const int64_t va = ra.Get(1).AsInt64() - amount;
          const int64_t vb = rb.Get(1).AsInt64() + amount;
          ok = store_.Update(t.get(), MakeRow(a, va, name(va))).ok() &&
               store_.Update(t.get(), MakeRow(b, vb, name(vb))).ok();
        }
        if (ok && mgr_.Commit(t.get()).ok())
          commits.fetch_add(1);
        else if (t->active())
          mgr_.Abort(t.get());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      while (!stop.load()) {
        auto t = mgr_.Begin();
        int64_t sum = 0;
        Key rows = 0;
        const auto check = [&](const Row& row) {
          const int64_t v = row.Get(1).AsInt64();
          if (row.Get(2).AsString() != name(v)) bad_rows.fetch_add(1);
          sum += v;
          ++rows;
        };
        if (r == 0) {
          store_.Scan(t->snapshot(), [&](Key, const Row& row) {
            check(row);
            return true;
          });
        } else {
          Row row;
          for (Key k = 0; k < kKeys; ++k)
            if (store_.Get(t->snapshot(), k, &row).ok()) check(row);
        }
        if (rows != kKeys || sum != kKeys * kInitial) bad_sums.fetch_add(1);
        mgr_.Commit(t.get());
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true);
  threads[2].join();
  threads[3].join();
  EXPECT_GT(commits.load(), 0);
  EXPECT_EQ(bad_rows.load(), 0);
  EXPECT_EQ(bad_sums.load(), 0);
}

}  // namespace
}  // namespace htap
