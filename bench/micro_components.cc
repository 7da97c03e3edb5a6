// Google-benchmark microbenchmarks for the individual substrates: B+-tree
// operations, column encodings, columnar vs row scans, MVCC transaction
// path, WAL append, and Raft replication (virtual-time cost per commit).

#include <benchmark/benchmark.h>

#include "columnar/column_table.h"
#include "common/random.h"
#include "exec/executor.h"
#include "index/btree.h"
#include "sim/raft.h"
#include "storage/mvcc_row_store.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace htap {
namespace {

// ---- B+-tree ----------------------------------------------------------

void BM_BTreeInsert(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    BTree tree(static_cast<int>(state.range(0)));
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i)
      tree.Insert(static_cast<Key>(rng.Next64() % 1000000), i);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BTreeInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_BTreeLookup(benchmark::State& state) {
  BTree tree(64);
  Random rng(2);
  for (int i = 0; i < 100000; ++i) tree.Insert(i, static_cast<uint64_t>(i));
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(static_cast<Key>(rng.Uniform(100000)), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_BTreeScan(benchmark::State& state) {
  BTree tree(64);
  for (int i = 0; i < 100000; ++i) tree.Insert(i, static_cast<uint64_t>(i));
  for (auto _ : state) {
    uint64_t sum = 0;
    tree.ScanAll([&](Key, uint64_t v) {
      sum += v;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BTreeScan);

// ---- Encodings --------------------------------------------------------

ColumnVector MakeIntColumn(size_t n, uint64_t range) {
  Random rng(3);
  ColumnVector v(Type::kInt64);
  v.Reserve(n);
  for (size_t i = 0; i < n; ++i)
    v.AppendInt64(static_cast<int64_t>(rng.Uniform(range)));
  return v;
}

void BM_Encode(benchmark::State& state) {
  const auto enc = static_cast<EncodingType>(state.range(0));
  const ColumnVector v = MakeIntColumn(65536, 1000);
  for (auto _ : state) {
    EncodedColumn out = Encode(v, enc);
    benchmark::DoNotOptimize(out.num_values);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_Encode)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_DecodeScan(benchmark::State& state) {
  const auto enc = static_cast<EncodingType>(state.range(0));
  const EncodedColumn col = Encode(MakeIntColumn(65536, 1000), enc);
  for (auto _ : state) {
    const ColumnVector v = Decode(col);
    benchmark::DoNotOptimize(v.size());
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_DecodeScan)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// ---- Scans -------------------------------------------------------------

Schema ScanSchema() {
  return Schema({{"id", Type::kInt64}, {"a", Type::kInt64},
                 {"b", Type::kInt64}, {"c", Type::kInt64}});
}

void BM_ColumnScanFiltered(benchmark::State& state) {
  ColumnTable table(ScanSchema());
  Random rng(4);
  std::vector<Row> rows;
  for (int i = 0; i < 100000; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>(i)),
                       Value(static_cast<int64_t>(rng.Uniform(100))),
                       Value(static_cast<int64_t>(rng.Uniform(1000000))),
                       Value(static_cast<int64_t>(i % 7))});
  table.AppendBatch(rows, 1);
  const Predicate pred = Predicate::Eq(1, Value(int64_t{42}));
  for (auto _ : state) {
    auto out = ScanHtapBatches(table, nullptr, kMaxCSN - 1, pred, {0},
                               ExecContext{});
    benchmark::DoNotOptimize(TotalActiveRows(out));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ColumnScanFiltered);

void BM_RowScanFiltered(benchmark::State& state) {
  TransactionManager mgr;
  MvccRowStore store(1, ScanSchema(), &mgr, nullptr);
  Random rng(4);
  auto txn = mgr.Begin();
  for (int i = 0; i < 100000; ++i)
    store.Insert(txn.get(),
                 Row{Value(static_cast<int64_t>(i)),
                     Value(static_cast<int64_t>(rng.Uniform(100))),
                     Value(static_cast<int64_t>(rng.Uniform(1000000))),
                     Value(static_cast<int64_t>(i % 7))});
  mgr.Commit(txn.get());
  const Predicate pred = Predicate::Eq(1, Value(int64_t{42}));
  for (auto _ : state) {
    auto out = ScanRowStore(store, mgr.CurrentSnapshot(), pred, {0},
                            ExecContext{});
    benchmark::DoNotOptimize(TotalActiveRows(out));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_RowScanFiltered);

// ---- MVCC + WAL -------------------------------------------------------

void BM_MvccTxnCommit(benchmark::State& state) {
  TransactionManager mgr;
  MvccRowStore store(1, ScanSchema(), &mgr, nullptr);
  int64_t k = 0;
  for (auto _ : state) {
    auto txn = mgr.Begin();
    store.Insert(txn.get(), Row{Value(k), Value(k), Value(k), Value(k)});
    mgr.Commit(txn.get());
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccTxnCommit);

void BM_MvccVisibilityCheck(benchmark::State& state) {
  TransactionManager mgr;
  MvccRowStore store(1, ScanSchema(), &mgr, nullptr);
  // A hot key with a deep version chain.
  {
    auto txn = mgr.Begin();
    store.Insert(txn.get(), Row{Value(int64_t{1}), Value(int64_t{0}),
                                Value(int64_t{0}), Value(int64_t{0})});
    mgr.Commit(txn.get());
  }
  for (int64_t i = 0; i < 64; ++i) {
    auto txn = mgr.Begin();
    store.Update(txn.get(),
                 Row{Value(int64_t{1}), Value(i), Value(i), Value(i)});
    mgr.Commit(txn.get());
  }
  const Snapshot old_snap{2, 0};  // forces a deep chain walk
  Row out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(old_snap, 1, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccVisibilityCheck);

void BM_WalAppend(benchmark::State& state) {
  WalWriter wal({});
  WalRecord rec;
  rec.type = WalRecordType::kInsert;
  rec.txn_id = 1;
  rec.table_id = 1;
  rec.key = 7;
  rec.row = Row{Value(int64_t{7}), Value(int64_t{8}), Value("abcdefgh"),
                Value(3.14)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(rec));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(wal.TailLsn()));
}
BENCHMARK(BM_WalAppend);

// ---- Raft (virtual time per committed entry) --------------------------

void BM_RaftReplicateCommit(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimEnv env(5);
    sim::SimNetwork net(&env, {});
    sim::RaftGroup group(&env, &net, {0, 1, 2}, {}, sim::RaftConfig{},
                         nullptr);
    sim::RaftNode* leader = group.WaitForLeader();
    state.ResumeTiming();
    int committed = 0;
    for (int i = 0; i < 100; ++i)
      leader->Propose("x", [&](bool ok, uint64_t) { committed += ok; });
    while (committed < 100) env.RunUntil(env.Now() + 1000);
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RaftReplicateCommit);

}  // namespace
}  // namespace htap

BENCHMARK_MAIN();
