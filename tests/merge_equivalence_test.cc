// Merge-equivalence test: seeded random change histories go through each of
// the three delta stores and merge into a column table at random cut
// points. After every merge the main's live rows by key, the encoding chosen
// for every segment and the published TableStats must equal a row-based
// reference: the per-entry fold, the row-wise group build and the per-row
// statistics that the typed chunk merge replaced.
//
// Replay one case with
//   ./merge_equivalence_test --gtest_filter='*<Store>*' and the seed printed
// in the failure trace.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "columnar/compression_advisor.h"
#include "common/random.h"
#include "sync/sync.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64},
                 {"a", Type::kInt64},
                 {"d", Type::kDouble},
                 {"s", Type::kString}});
}

// ---- Row-based reference ----------------------------------------------

/// The per-entry fold: last write per key wins, at the position of the
/// key's first upsert; deletes drop pending upserts.
struct RefFolded {
  std::vector<Key> deletes;
  std::vector<Row> rows;
};

RefFolded RefFold(const std::vector<DeltaEntry>& entries) {
  constexpr uint32_t kNoSlot = ~0u;
  RefFolded out;
  std::vector<uint8_t> dead;
  std::map<Key, uint32_t> slots;
  for (const DeltaEntry& e : entries) {
    uint32_t& slot = slots.try_emplace(e.key, kNoSlot).first->second;
    if (e.op == ChangeOp::kDelete) {
      if (slot != kNoSlot) dead[slot] = 1;
      out.deletes.push_back(e.key);
    } else if (slot != kNoSlot) {
      out.rows[slot] = e.row;
      dead[slot] = 0;
    } else {
      slot = static_cast<uint32_t>(out.rows.size());
      out.rows.push_back(e.row);
      dead.push_back(0);
    }
  }
  std::vector<Row> kept;
  for (size_t i = 0; i < out.rows.size(); ++i)
    if (!dead[i]) kept.push_back(out.rows[i]);
  out.rows = std::move(kept);
  return out;
}

/// The advisor's value statistics with node-based hash sets.
SegmentValueStats RefSegmentStats(const ColumnVector& values) {
  SegmentValueStats st;
  st.rows = values.size();
  for (size_t i = 0; i < st.rows; ++i)
    if (values.IsNull(i)) ++st.nulls;
  const auto runs = [](const auto& v) {
    size_t r = v.empty() ? 0 : 1;
    for (size_t i = 1; i < v.size(); ++i)
      if (!(v[i] == v[i - 1])) ++r;
    return r;
  };
  switch (values.type()) {
    case Type::kInt64: {
      const auto& v = values.ints();
      st.runs = runs(v);
      st.distinct = std::unordered_set<int64_t>(v.begin(), v.end()).size();
      if (!v.empty()) {
        st.int_min = *std::min_element(v.begin(), v.end());
        st.int_max = *std::max_element(v.begin(), v.end());
      }
      break;
    }
    case Type::kDouble: {
      const auto& v = values.doubles();
      st.runs = runs(v);
      st.distinct = std::unordered_set<double>(v.begin(), v.end()).size();
      break;
    }
    case Type::kString: {
      const auto& v = values.strings();
      st.runs = runs(v);
      std::unordered_set<std::string> distinct;
      for (const auto& s : v) {
        st.string_bytes += s.size();
        if (distinct.insert(s).second) st.distinct_string_bytes += s.size();
      }
      st.distinct = distinct.size();
      break;
    }
  }
  return st;
}

/// The row-wise main: groups of rows with delete flags, a key index, and
/// each group's segment encodings chosen from row-built column vectors.
class RefMain {
 public:
  explicit RefMain(Schema schema) : schema_(std::move(schema)) {}

  void Apply(const RefFolded& folded) {
    for (Key k : folded.deletes) DeleteKey(k);
    AppendBatch(folded.rows);
  }

  void AppendBatch(const std::vector<Row>& rows) {
    if (rows.empty()) return;
    for (const Row& r : rows) {
      const auto it = index_.find(r.GetKey(schema_));
      if (it != index_.end())
        groups_[it->second.first].deleted[it->second.second] = 1;
    }
    Group g;
    g.rows = rows;
    g.deleted.assign(rows.size(), 0);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      ColumnVector vec(schema_.column(c).type);
      for (const Row& r : rows) vec.AppendValue(r.Get(c));
      ExpectSameSegmentStats(CollectSegmentStats(vec), RefSegmentStats(vec));
      g.encodings.push_back(AdviseEncoding(vec).chosen);
    }
    const size_t gidx = groups_.size();
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto pos = std::make_pair(gidx, i);
      const auto [it, fresh] = index_.try_emplace(rows[i].GetKey(schema_), pos);
      if (!fresh) {
        if (it->second.first == gidx) g.deleted[it->second.second] = 1;
        it->second = pos;
      }
    }
    groups_.push_back(std::move(g));
  }

  void DeleteKey(Key key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    groups_[it->second.first].deleted[it->second.second] = 1;
    index_.erase(it);
  }

  void Compact() {
    const std::vector<Row> live = LiveRowsInOrder();
    groups_.clear();
    index_.clear();
    AppendBatch(live);
  }

  std::vector<Row> LiveRowsInOrder() const {
    std::vector<Row> out;
    for (const Group& g : groups_)
      for (size_t i = 0; i < g.rows.size(); ++i)
        if (!g.deleted[i]) out.push_back(g.rows[i]);
    return out;
  }

  std::map<Key, Row> LiveByKey() const {
    std::map<Key, Row> out;
    for (const Row& r : LiveRowsInOrder()) out[r.GetKey(schema_)] = r;
    return out;
  }

  size_t num_groups() const { return groups_.size(); }
  const std::vector<EncodingType>& encodings(size_t g) const {
    return groups_[g].encodings;
  }

 private:
  static void ExpectSameSegmentStats(const SegmentValueStats& a,
                                     const SegmentValueStats& b) {
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.nulls, b.nulls);
    EXPECT_EQ(a.distinct, b.distinct);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.string_bytes, b.string_bytes);
    EXPECT_EQ(a.distinct_string_bytes, b.distinct_string_bytes);
    EXPECT_EQ(a.int_min, b.int_min);
    EXPECT_EQ(a.int_max, b.int_max);
  }

  struct Group {
    std::vector<Row> rows;
    std::vector<uint8_t> deleted;
    std::vector<EncodingType> encodings;
  };

  const Schema schema_;
  std::vector<Group> groups_;
  std::map<Key, std::pair<size_t, size_t>> index_;
};

/// Per-row statistics over Values: min/max by Value ordering, Value::Hash
/// into the KMV sketch, deletes counted toward the recompute trigger.
class RefStats {
 public:
  explicit RefStats(size_t num_columns) : cols_(num_columns) {}

  void AddRow(const Row& row) {
    for (size_t c = 0; c < cols_.size() && c < row.size(); ++c) {
      Acc& acc = cols_[c];
      const Value& v = row.Get(c);
      if (v.is_null()) {
        ++acc.nulls;
        continue;
      }
      acc.sketch.Add(v.Hash());
      acc.width_sum +=
          v.is_string() ? static_cast<double>(v.AsString().size()) : 8.0;
      ++acc.values;
      if (!acc.has_bounds) {
        acc.min = v;
        acc.max = v;
        acc.has_bounds = true;
      } else {
        if (v < acc.min) acc.min = v;
        if (acc.max < v) acc.max = v;
      }
    }
  }

  void ApplyEntries(const std::vector<DeltaEntry>& entries) {
    for (const DeltaEntry& e : entries) {
      if (e.op == ChangeOp::kDelete)
        ++deletes_;
      else
        AddRow(e.row);
    }
  }

  void Recompute(const std::vector<Row>& rows) {
    cols_.assign(cols_.size(), Acc());
    deletes_ = 0;
    for (const Row& r : rows) AddRow(r);
  }

  size_t deletes() const { return deletes_; }

  TableStats Snapshot(size_t row_count) const {
    TableStats st;
    st.row_count = row_count;
    st.columns.resize(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      const Acc& acc = cols_[c];
      ColumnStats& cs = st.columns[c];
      if (acc.has_bounds) {
        cs.min = acc.min;
        cs.max = acc.max;
      }
      cs.ndv = std::max(1.0, acc.sketch.Estimate());
      const size_t seen = acc.values + acc.nulls;
      cs.null_frac = seen == 0 ? 0 : static_cast<double>(acc.nulls) / seen;
      cs.avg_width =
          acc.values == 0 ? 8 : acc.width_sum / static_cast<double>(acc.values);
    }
    return st;
  }

 private:
  struct Acc {
    Value min, max;
    bool has_bounds = false;
    KmvSketch sketch{KmvSketch::kDefaultK};
    size_t values = 0;
    size_t nulls = 0;
    double width_sum = 0;
  };
  std::vector<Acc> cols_;
  size_t deletes_ = 0;
};

// ---- Comparison helpers --------------------------------------------------

/// Same type and same bits: -0.0 differs from 0.0 here.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.is_double()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a == b;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!SameValue(a.Get(i), b.Get(i))) return false;
  return true;
}

std::map<Key, Row> MainLiveByKey(const ColumnTable& table) {
  std::map<Key, Row> out;
  for (size_t g = 0; g < table.num_groups(); ++g) {
    const RowGroup* group = table.group(g);
    for (size_t i = 0; i < group->num_rows; ++i)
      if (!group->deleted.Test(i))
        out[group->keys[i]] = table.MaterializeRow(*group, i);
  }
  return out;
}

// ---- Random histories --------------------------------------------------

/// Doubles with both zeros. `zeros_bound` 1 keeps every value >= -0.0 and
/// -1 every value <= 0.0, so the zeros tie as the min or the max and the
/// statistics must keep whichever came first; 0 mixes everything.
Value RandomDouble(Random* rng, int zeros_bound) {
  static const double kPicks[] = {0.0, -0.0, 1.5, -2.25, 1e300};
  double d = rng->Bernoulli(0.5) ? kPicks[rng->Uniform(5)]
                                 : rng->NextDouble() * 100 - 50;
  if (zeros_bound != 0 && d * zeros_bound < 0) d = -d;
  return Value(d);
}

Value RandomString(Random* rng) {
  static const char* kPicks[] = {"", "a", "bb", "exactly-15-byte",
                                 "sixteen-bytes-xx",
                                 "a string well past the 15-byte inline size"};
  if (rng->Bernoulli(0.6)) return Value(kPicks[rng->Uniform(6)]);
  const auto fill = static_cast<char>('a' + rng->Uniform(4));
  return Value(std::string(rng->Uniform(40), fill));
}

Row RandomRow(Key key, int zeros_bound, Random* rng) {
  const auto maybe_null = [&](Value v) {
    return rng->Bernoulli(0.15) ? Value::Null() : std::move(v);
  };
  return Row{Value(key),
             maybe_null(Value(static_cast<int64_t>(rng->Uniform(8)) - 3)),
             maybe_null(RandomDouble(rng, zeros_bound)),
             maybe_null(RandomString(rng))};
}

enum class StoreKind { kInMemory, kL1L2, kLog };

std::string StoreName(StoreKind k) {
  switch (k) {
    case StoreKind::kInMemory: return "InMemory";
    case StoreKind::kL1L2: return "L1L2";
    case StoreKind::kLog: return "Log";
  }
  return "?";
}

class MergeEquivalenceTest : public ::testing::TestWithParam<StoreKind> {};

void RunHistory(StoreKind kind, uint64_t seed) {
  SCOPED_TRACE("store " + StoreName(kind) + " seed " + std::to_string(seed));
  constexpr uint32_t kTable = 1, kOtherTable = 2;
  constexpr size_t kCompactAfterDeletes = 40;
  const Schema schema = TestSchema();

  InMemoryDeltaStore mem(schema);
  L1L2DeltaStore l1l2(schema, /*l1_spill_threshold=*/7);
  LogDeltaStore log(schema);
  std::unique_ptr<DeltaSource> source;
  std::function<void(TableEvents)> append;
  switch (kind) {
    case StoreKind::kInMemory:
      source = std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&mem);
      append = [&](TableEvents e) { mem.AppendBatch(e); };
      break;
    case StoreKind::kL1L2:
      source = std::make_unique<DeltaSourceAdapter<L1L2DeltaStore>>(&l1l2);
      append = [&](TableEvents e) { l1l2.AppendBatch(e); };
      break;
    case StoreKind::kLog:
      source = std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(&log);
      append = [&](TableEvents e) { log.AppendBatch(e); };
      break;
  }
  ColumnTable table(schema);
  table.EnableCompressionAdvisor(true);
  DataSynchronizer sync(kind == StoreKind::kLog ? SyncStrategy::kLogMerge
                                                : SyncStrategy::kInMemoryMerge,
                        &table, std::move(source));
  TableStats published;
  sync.EnableStatsMaintenance(
      [&](const TableStats& st, CSN) { published = st; },
      kCompactAfterDeletes);

  RefMain ref(schema);
  RefStats ref_stats(schema.num_columns());
  std::vector<DeltaEntry> pending;  // staged, in commit order
  Random rng(seed);
  const int zeros_bound = static_cast<int>(seed % 3) - 1;
  CSN csn = 0;
  int merges = 0;
  for (int step = 0; step < 400; ++step) {
    // One commit: 1..6 changes over a small key space, so keys repeat
    // within a commit and across commits; another table's changes ride
    // along and must not reach this one.
    ++csn;
    std::vector<ChangeEvent> events;
    const size_t n = 1 + rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) {
      ChangeEvent ev;
      ev.table_id = rng.Bernoulli(0.2) ? kOtherTable : kTable;
      ev.key = static_cast<Key>(rng.Uniform(24));
      ev.csn = csn;
      const uint64_t op = rng.Uniform(10);
      ev.op = op < 3 ? ChangeOp::kDelete
                     : (op < 6 ? ChangeOp::kInsert : ChangeOp::kUpdate);
      if (ev.op != ChangeOp::kDelete)
        ev.row = RandomRow(ev.key, zeros_bound, &rng);
      if (ev.table_id == kTable)
        pending.push_back(DeltaEntry{ev.op, ev.key, ev.row, ev.csn});
      events.push_back(std::move(ev));
    }
    ForEachTableBatch(events, [&](uint32_t tid, TableEvents te) {
      if (tid == kTable) append(te);
    });

    if (!rng.Bernoulli(0.25)) continue;
    // Merge at a random cut between the last merge and now.
    const CSN merged = table.merged_csn();
    const CSN cut = merged + 1 + rng.Uniform(csn - merged);
    ASSERT_TRUE(sync.SyncTo(cut).ok());
    ++merges;

    std::vector<DeltaEntry> batch;
    size_t taken = 0;
    while (taken < pending.size() && pending[taken].csn <= cut)
      batch.push_back(pending[taken++]);
    pending.erase(pending.begin(), pending.begin() + static_cast<long>(taken));
    ref.Apply(RefFold(batch));
    ref_stats.ApplyEntries(batch);
    if (ref_stats.deletes() > kCompactAfterDeletes) {
      ref.Compact();
      ref_stats.Recompute(ref.LiveRowsInOrder());
    }
    const std::map<Key, Row> want = ref.LiveByKey();

    SCOPED_TRACE("merge " + std::to_string(merges) + " at cut " +
                 std::to_string(cut));
    // 1. Live rows by key.
    const std::map<Key, Row> got = MainLiveByKey(table);
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [k, row] : want) {
      const auto it = got.find(k);
      ASSERT_NE(it, got.end()) << "key " << k;
      ASSERT_TRUE(SameRow(it->second, row))
          << "key " << k << ": " << it->second.ToString() << " vs "
          << row.ToString();
    }
    // 2. The encoding of every segment.
    ASSERT_EQ(table.num_groups(), ref.num_groups());
    for (size_t g = 0; g < ref.num_groups(); ++g)
      for (size_t c = 0; c < schema.num_columns(); ++c)
        ASSERT_EQ(table.group(g)->columns[c].encoding(), ref.encodings(g)[c])
            << "group " << g << " column " << c;
    // 3. The published statistics.
    const TableStats ws = ref_stats.Snapshot(want.size());
    ASSERT_EQ(published.row_count, ws.row_count);
    ASSERT_EQ(published.columns.size(), ws.columns.size());
    for (size_t c = 0; c < ws.columns.size(); ++c) {
      SCOPED_TRACE("stats column " + std::to_string(c));
      EXPECT_TRUE(SameValue(published.columns[c].min, ws.columns[c].min));
      EXPECT_TRUE(SameValue(published.columns[c].max, ws.columns[c].max));
      EXPECT_EQ(published.columns[c].ndv, ws.columns[c].ndv);
      EXPECT_EQ(published.columns[c].null_frac, ws.columns[c].null_frac);
      EXPECT_EQ(published.columns[c].avg_width, ws.columns[c].avg_width);
    }
  }
  EXPECT_GT(merges, 50);
}

TEST_P(MergeEquivalenceTest, RandomHistoriesMatchRowReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunHistory(GetParam(), seed);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDeltaStores, MergeEquivalenceTest,
    ::testing::Values(StoreKind::kInMemory, StoreKind::kL1L2,
                      StoreKind::kLog),
    [](const ::testing::TestParamInfo<StoreKind>& info) {
      return StoreName(info.param);
    });

}  // namespace
}  // namespace htap
