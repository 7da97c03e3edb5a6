#include "sync/sync.h"

#include <algorithm>
#include <chrono>

#include "common/key_slot_map.h"

namespace htap {

const char* SyncStrategyName(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kInMemoryMerge: return "in-memory-delta-merge";
    case SyncStrategy::kLogMerge: return "log-based-delta-merge";
    case SyncStrategy::kRebuild: return "rebuild-from-primary";
  }
  return "?";
}

void FreshnessTracker::OnCommit(const std::vector<ChangeEvent>& events) {
  if (events.empty()) return;
  const Micros now = clock_->NowMicros();
  MutexLock lk(&mu_);
  samples_.emplace_back(events.back().csn, now);
  // Bound memory: keep a generous window; freshness questions are about the
  // recent past.
  while (samples_.size() > kMaxSamples) samples_.pop_front();
}

Micros FreshnessTracker::TimeLagMicros(CSN visible_csn) const {
  Micros oldest;
  {
    MutexLock lk(&mu_);
    // Commits publish in CSN order: the oldest commit newer than what is
    // visible is the first sample past visible_csn.
    const auto it = std::upper_bound(
        samples_.begin(), samples_.end(), visible_csn,
        [](CSN v, const std::pair<CSN, Micros>& s) { return v < s.first; });
    if (it == samples_.end()) return 0;
    oldest = it->second;
  }
  return clock_->NowMicros() - oldest;
}

DataSynchronizer::DataSynchronizer(SyncStrategy strategy, ColumnTable* table,
                                   std::unique_ptr<DeltaSource> source,
                                   const Clock* clock)
    : strategy_(strategy),
      table_(table),
      source_(std::move(source)),
      clock_(clock) {}

DataSynchronizer::DataSynchronizer(ColumnTable* table,
                                   const MvccRowStore* primary,
                                   const Clock* clock)
    : strategy_(SyncStrategy::kRebuild),
      table_(table),
      primary_(primary),
      clock_(clock) {}

namespace {

/// A drained change: chunk index and row within it.
struct DeltaPos {
  uint32_t chunk = 0;
  uint32_t row = 0;
};

/// Keys to delete-mark, and per surviving key the position of its last
/// upsert.
struct FoldedChunks {
  std::vector<Key> deletes;
  std::vector<DeltaPos> rows;
};

FoldedChunks FoldChunks(const std::vector<DeltaChunk>& chunks) {
  // Last write per key wins, at the position of the key's first upsert;
  // deletes drop pending upserts.
  size_t n = 0;
  for (const DeltaChunk& c : chunks) n += c.size();
  FoldedChunks out;
  std::vector<uint8_t> dead;  // parallel to out.rows
  KeySlotMap slots(n);
  for (uint32_t ci = 0; ci < chunks.size(); ++ci) {
    const DeltaChunk& c = chunks[ci];
    for (uint32_t i = 0; i < c.size(); ++i) {
      uint32_t& slot = slots.Upsert(c.keys[i]);
      if (c.ops[i] == ChangeOp::kDelete) {
        if (slot != KeySlotMap::kNoSlot) dead[slot] = 1;
        out.deletes.push_back(c.keys[i]);
      } else if (slot != KeySlotMap::kNoSlot) {
        out.rows[slot] = DeltaPos{ci, i};
        dead[slot] = 0;
      } else {
        slot = static_cast<uint32_t>(out.rows.size());
        out.rows.push_back(DeltaPos{ci, i});
        dead.push_back(0);
      }
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < out.rows.size(); ++i)
    if (!dead[i]) out.rows[kept++] = out.rows[i];
  out.rows.resize(kept);
  return out;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void MergeChunksLocked(ColumnTable* table,
                       const std::vector<DeltaChunk>& chunks, CSN up_to,
                       SyncStageTimes* times) {
  const double t0 = NowSeconds();
  const FoldedChunks folded = FoldChunks(chunks);
  const double t1 = NowSeconds();
  // One typed gather per column of the new row group.
  const Schema& schema = table->schema();
  std::vector<ColumnVector> columns;
  columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnVector& col = columns.emplace_back(schema.column(c).type);
    col.Reserve(folded.rows.size());
    for (const DeltaPos& p : folded.rows)
      col.AppendFrom(chunks[p.chunk].columns[c], p.row);
  }
  table->ApplyLocked(folded.deletes, columns, up_to);
  if (times != nullptr) {
    times->fold_seconds += t1 - t0;
    times->build_seconds += NowSeconds() - t1;
  }
}

size_t DrainAndMerge(ColumnTable* table, const DrainFn& drain, CSN up_to,
                     SyncStageTimes* times, const MergedFn& merged) {
  std::vector<DeltaChunk> chunks;
  {
    WriteGuard g(table->latch());
    const double t = NowSeconds();
    chunks = drain();
    times->drain_seconds += NowSeconds() - t;
    MergeChunksLocked(table, chunks, up_to, times);
  }
  size_t entries = 0;
  for (const DeltaChunk& c : chunks) entries += c.size();
  times->entries += entries;
  const double t_stats = NowSeconds();
  if (merged) merged(chunks);
  const double t_release = NowSeconds();
  times->stats_seconds += t_release - t_stats;
  chunks = {};
  times->release_seconds += NowSeconds() - t_release;
  return entries;
}

void ApplyChunksToColumnTable(ColumnTable* table,
                              const std::vector<DeltaChunk>& chunks,
                              CSN up_to) {
  WriteGuard g(table->latch());
  MergeChunksLocked(table, chunks, up_to);
}

void DataSynchronizer::EnableStatsMaintenance(
    StatsPublishFn publish, size_t compact_delete_threshold) {
  MutexLock lk(&mu_);
  stats_builder_ =
      std::make_unique<TableStatsBuilder>(table_->schema().num_columns());
  publish_stats_ = std::move(publish);
  compact_delete_threshold_ = compact_delete_threshold;
}

void DataSynchronizer::SetDrainHookForTest(std::function<void()> hook) {
  MutexLock lk(&mu_);
  drain_hook_for_test_ = std::move(hook);
}

Status DataSynchronizer::SyncTo(CSN target_csn) {
  MutexLock lk(&mu_);
  if (target_csn <= table_->merged_csn()) return Status::OK();
  const Micros t0 = clock_->NowMicros();

  if (strategy_ == SyncStrategy::kRebuild) {
    if (primary_ == nullptr)
      return Status::Internal("rebuild synchronizer has no primary store");
    // Full repopulation from a row-store snapshot, straight into columns.
    const Schema& schema = table_->schema();
    std::vector<ColumnVector> columns;
    for (size_t c = 0; c < schema.num_columns(); ++c)
      columns.emplace_back(schema.column(c).type).Reserve(
          primary_->ApproxRowCount());
    const Snapshot snap{target_csn, 0};
    primary_->Scan(snap, [&](Key, const Row& r) {
      for (size_t c = 0; c < columns.size(); ++c)
        columns[c].AppendValue(r.Get(c));
      return true;
    });
    const size_t rows = columns.empty() ? 0 : columns[0].size();
    if (stats_builder_ != nullptr)
      // A rebuild already holds the full live row set — recompute exactly.
      stats_builder_->RecomputeFromColumns(columns);
    {
      // One hold: a scan sees the old table or the reloaded one, never the
      // empty one in between.
      WriteGuard g(table_->latch());
      table_->ClearLocked();
      table_->ApplyLocked({}, columns, target_csn);
    }
    stats_.rows_loaded += rows;
    if (stats_builder_ != nullptr)
      publish_stats_(stats_builder_->Snapshot(rows), target_csn);
  } else {
    if (source_ == nullptr)
      return Status::Internal("merge synchronizer has no delta source");
    // Drain and apply in one exclusive hold of the table latch (rank 500,
    // then the delta store's 550): a scan reads the delta and the main
    // under the shared latch, so it sees a drained entry in exactly one.
    // The lambdas see mu_'s members through locals read under mu_.
    const std::function<void()>& drain_hook = drain_hook_for_test_;
    TableStatsBuilder* const builder = stats_builder_.get();
    const StatsPublishFn& publish = publish_stats_;
    const size_t compact_threshold = compact_delete_threshold_;
    stats_.entries_merged += DrainAndMerge(
        table_,
        [&] {
          std::vector<DeltaChunk> chunks = source_->DrainUpTo(target_csn);
          if (drain_hook) drain_hook();
          return chunks;
        },
        target_csn, &stats_.stages,
        [&](const std::vector<DeltaChunk>& chunks) {
          if (builder == nullptr) return;
          builder->ApplyChunks(chunks);
          if (builder->deletes_since_recompute() > compact_threshold) {
            // Delete drift: the sketches only widen, so compact away the
            // dead rows and recompute from what actually survives.
            table_->Compact();
            builder->RecomputeFromColumnTable(*table_);
          }
          publish(builder->Snapshot(table_->live_rows()), target_csn);
        });
  }

  const Micros dt = clock_->NowMicros() - t0;
  ++stats_.merges;
  stats_.last_merge_micros = static_cast<uint64_t>(dt);
  stats_.merge_micros_total += static_cast<uint64_t>(dt);
  return Status::OK();
}

}  // namespace htap
