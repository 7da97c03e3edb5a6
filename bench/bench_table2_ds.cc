// Reproduces Table 2, Data Synchronization row:
//   in-memory delta merge          -> high efficiency, low scalability
//   log-based delta merge          -> scalable staging, high merge cost
//   rebuild from primary row store -> small staging memory, high load cost
//
// Setup: a populated MVCC row store; a burst of committed updates staged
// through each DS design; one synchronization brings the column store
// current. We report merge latency, rows moved, and staging memory held
// before the merge.

#include "bench_util.h"
#include "sync/sync.h"

namespace htap {
namespace bench {
namespace {

Schema KvSchema() {
  return Schema({{"id", Type::kInt64}, {"a", Type::kInt64},
                 {"b", Type::kInt64}, {"c", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) {
  return Row{Value(id), Value(v), Value(v * 2), Value(v * 3)};
}

constexpr size_t kBaseRows = 40000;
constexpr size_t kBurst = 20000;

struct Harness : ChangeSink {
  TransactionManager mgr;
  std::unique_ptr<MvccRowStore> rows;
  ColumnTable table{KvSchema()};
  std::function<void(const ChangeEvent&)> delta_append;

  Harness() {
    rows = std::make_unique<MvccRowStore>(1, KvSchema(), &mgr, nullptr);
    mgr.RegisterSink(this);
  }

  /// Commit hands the changes to the registered sinks (the transaction's
  /// own list is moved out by then).
  void OnCommit(const std::vector<ChangeEvent>& events) override {
    if (delta_append)
      for (const ChangeEvent& ev : events) delta_append(ev);
  }

  void LoadBase() {
    for (size_t i = 0; i < kBaseRows; i += 1000) {
      auto t = mgr.Begin();
      for (size_t j = i; j < i + 1000 && j < kBaseRows; ++j)
        rows->Insert(t.get(), MakeRow(static_cast<Key>(j), 1));
      mgr.Commit(t.get());
    }
  }

  /// Applies the burst; each commit's changes go to `append`.
  void RunBurst(std::function<void(const ChangeEvent&)> append) {
    delta_append = std::move(append);
    Random rng(4);
    for (size_t i = 0; i < kBurst; i += 500) {
      auto t = mgr.Begin();
      for (size_t j = 0; j < 500; ++j) {
        const Key k = static_cast<Key>(rng.Uniform(kBaseRows));
        rows->Update(t.get(), MakeRow(k, static_cast<int64_t>(i + j)));
      }
      mgr.Commit(t.get());
    }
    delta_append = nullptr;
  }
};

/// A CH-benCHmark table shape for the stage split: its columns and one
/// row image per key and version.
struct Shape {
  const char* name;
  Schema schema;
  std::function<Row(Key, int64_t)> row;
};

std::vector<Shape> ChShapes() {
  std::vector<Shape> out;
  out.push_back({"stock (6 x INT64)",
                 Schema({{"s_key", Type::kInt64},
                         {"s_w_id", Type::kInt64},
                         {"s_i_id", Type::kInt64},
                         {"s_quantity", Type::kInt64},
                         {"s_ytd", Type::kInt64},
                         {"s_order_cnt", Type::kInt64}}),
                 [](Key k, int64_t v) {
                   return Row{Value(k), Value(k % 4), Value(k / 4),
                              Value(10 + v % 90), Value(v), Value(v % 1000)};
                 }});
  out.push_back({"customer (5 INT64, 2 STR, 2 DBL)",
                 Schema({{"c_key", Type::kInt64},
                         {"c_w_id", Type::kInt64},
                         {"c_d_id", Type::kInt64},
                         {"c_id", Type::kInt64},
                         {"c_name", Type::kString},
                         {"c_state", Type::kString},
                         {"c_balance", Type::kDouble},
                         {"c_ytd_payment", Type::kDouble},
                         {"c_payment_cnt", Type::kInt64}}),
                 [](Key k, int64_t v) {
                   return Row{Value(k),
                              Value(k % 4),
                              Value(k % 10),
                              Value(k / 40),
                              Value("customer_" + std::to_string(k)),
                              Value(k % 2 == 0 ? "CA" : "NY"),
                              Value(-10.0 * static_cast<double>(v % 97)),
                              Value(10.0 * static_cast<double>(v % 89)),
                              Value(v % 50)};
                 }});
  return out;
}

/// The in-memory merge of one table shape, as the engines run it (stats
/// maintenance and the compression advisor on): the base rows merge once,
/// then `kRounds` bursts of updates in 10-change commits merge one at a
/// time. Prints the merge rate and where the merge time went.
void MergeStageSplit(const Shape& shape) {
  constexpr size_t kRounds = 20;
  constexpr size_t kPerRound = 2000;
  InMemoryDeltaStore delta(shape.schema);
  ColumnTable table(shape.schema);
  table.EnableCompressionAdvisor(true);
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));
  sync.EnableStatsMaintenance([](const TableStats&, CSN) {}, 1 << 30);

  CSN csn = 0;
  std::vector<ChangeEvent> commit;
  const auto stage = [&](ChangeOp op, Key k, int64_t v) {
    ChangeEvent ev;
    ev.table_id = 1;
    ev.op = op;
    ev.key = k;
    ev.row = shape.row(k, v);
    ev.csn = csn;
    commit.push_back(std::move(ev));
    if (commit.size() == 10) {
      ForEachTableBatch(commit, [&](uint32_t, TableEvents e) {
        delta.AppendBatch(e);
      });
      commit.clear();
      ++csn;
    }
  };
  ++csn;
  for (size_t k = 0; k < kBaseRows; ++k)
    stage(ChangeOp::kInsert, static_cast<Key>(k), 0);
  sync.SyncTo(csn - 1);
  const SyncStageTimes base = sync.stats().stages;

  Random rng(7);
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < kPerRound; ++i)
      stage(ChangeOp::kUpdate, static_cast<Key>(rng.Uniform(kBaseRows)),
            static_cast<int64_t>(r * kPerRound + i));
    sync.SyncTo(csn - 1);
  }
  SyncStageTimes t = sync.stats().stages;
  t.entries -= base.entries;
  t.drain_seconds -= base.drain_seconds;
  t.fold_seconds -= base.fold_seconds;
  t.build_seconds -= base.build_seconds;
  t.stats_seconds -= base.stats_seconds;
  t.release_seconds -= base.release_seconds;
  const double total = t.total_seconds();
  const auto pct = [&](double x) { return total > 0 ? 100 * x / total : 0; };
  std::printf("%-32s | %12.0f | %8.3f | %5.1f %5.1f %5.1f %5.1f %7.1f\n",
              shape.name, total > 0 ? t.entries / total : 0,
              total > 0 ? 1e6 * total / t.entries : 0, pct(t.drain_seconds),
              pct(t.fold_seconds), pct(t.build_seconds), pct(t.stats_seconds),
              pct(t.release_seconds));
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;
  std::printf("Table 2 / DS row — data-synchronization techniques\n");
  std::printf("Base %zu rows; burst of %zu committed updates, then one sync\n\n",
              kBaseRows, kBurst);
  std::printf("%-30s | %10s | %10s | %12s | paper's cells\n", "Technique",
              "merge ms", "rows moved", "staging KiB");
  PrintRule(104);

  {  // In-memory delta merge.
    Harness h;
    h.LoadBase();
    InMemoryDeltaStore delta(KvSchema());
    DataSynchronizer sync(
        SyncStrategy::kInMemoryMerge, &h.table,
        std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));
    // Base reaches the column store first (as a prior merge would have).
    h.RunBurst([&](const ChangeEvent& ev) {
      DeltaEntry e{ev.op, ev.key, ev.row, ev.csn};
      delta.Append(e);
    });
    const size_t staging = delta.MemoryBytes();
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | high efficiency / low scalability\n",
                "in-memory delta merge", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().entries_merged),
                staging / 1024.0);
  }

  {  // Log-based delta merge.
    Harness h;
    h.LoadBase();
    LogDeltaStore delta(KvSchema());
    DataSynchronizer sync(
        SyncStrategy::kLogMerge, &h.table,
        std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(&delta));
    std::vector<DeltaEntry> file;
    h.RunBurst([&](const ChangeEvent& ev) {
      file.push_back(DeltaEntry{ev.op, ev.key, ev.row, ev.csn});
      if (file.size() == 512) {
        delta.AppendFile(file);
        file.clear();
      }
    });
    if (!file.empty()) delta.AppendFile(file);
    const size_t staging = delta.MemoryBytes();
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | scalable staging / high merge cost\n",
                "log-based delta merge", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().entries_merged),
                staging / 1024.0);
  }

  {  // Rebuild from the primary row store.
    Harness h;
    h.LoadBase();
    DataSynchronizer sync(&h.table, h.rows.get());
    h.RunBurst([](const ChangeEvent&) {});  // nothing staged at all
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | small memory / high load cost\n",
                "rebuild from primary rows", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().rows_loaded),
                0.0);
  }

  PrintRule(104);

  std::printf(
      "\nIn-memory merge rate and stage split (informational): %zu base\n"
      "rows, then 20 merges of 2000 updates each, stats and advisor on\n\n",
      kBaseRows);
  std::printf("%-32s | %12s | %8s | %5s %5s %5s %5s %7s\n", "CH table shape",
              "entries/s", "us/entry", "drain", "fold", "build", "stats",
              "release");
  PrintRule(104);
  for (const Shape& shape : ChShapes()) MergeStageSplit(shape);
  PrintRule(104);
  std::printf(
      "\nExpected shape: the merges move only the %zu changed rows (the\n"
      "log variant paying extra decode); the rebuild re-loads all %zu rows\n"
      "but holds no staging memory between syncs.\n",
      kBurst, kBaseRows);
  return 0;
}
