#include "sync/sync.h"

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
  MutexLock lk(&mu_);
  samples_.emplace_back(events.back().csn, clock_->NowMicros());
  // Bound memory: keep a generous window; freshness questions are about the
  // recent past.
  while (samples_.size() > 100000) samples_.pop_front();
}

Micros FreshnessTracker::TimeLagMicros(CSN visible_csn) const {
  MutexLock lk(&mu_);
  // Oldest commit newer than what is visible.
  for (const auto& [csn, t] : samples_) {
    if (csn > visible_csn) return clock_->NowMicros() - t;
  }
  return 0;
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

FoldedEntries FoldEntries(const std::vector<DeltaEntry>& entries) {
  // Last write per key wins, at the position of the key's first upsert;
  // deletes drop pending upserts.
  FoldedEntries out;
  std::vector<uint8_t> dead;  // parallel to out.rows
  KeySlotMap slots(entries.size());
  for (const DeltaEntry& e : entries) {
    uint32_t& slot = slots.Upsert(e.key);
    if (e.op == ChangeOp::kDelete) {
      if (slot != KeySlotMap::kNoSlot) dead[slot] = 1;
      out.deletes.push_back(e.key);
    } else if (slot != KeySlotMap::kNoSlot) {
      out.rows[slot] = e.row;
      dead[slot] = 0;
    } else {
      slot = static_cast<uint32_t>(out.rows.size());
      out.rows.push_back(e.row);
      dead.push_back(0);
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < out.rows.size(); ++i) {
    if (dead[i]) continue;
    if (kept != i) out.rows[kept] = std::move(out.rows[i]);
    ++kept;
  }
  out.rows.resize(kept);
  return out;
}

void ApplyEntriesToColumnTable(ColumnTable* table,
                               const std::vector<DeltaEntry>& entries,
                               CSN up_to) {
  const FoldedEntries folded = FoldEntries(entries);
  WriteGuard g(table->latch());
  table->ApplyLocked(folded.deletes, folded.rows, up_to);
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
    // Full repopulation from a row-store snapshot.
    std::vector<Row> rows;
    rows.reserve(primary_->ApproxRowCount());
    const Snapshot snap{target_csn, 0};
    primary_->Scan(snap, [&](Key, const Row& r) {
      rows.push_back(r);
      return true;
    });
    {
      // One hold: a scan sees the old table or the reloaded one, never the
      // empty one in between.
      WriteGuard g(table_->latch());
      table_->ClearLocked();
      table_->ApplyLocked({}, rows, target_csn);
    }
    stats_.rows_loaded += rows.size();
    if (stats_builder_ != nullptr) {
      // A rebuild already holds the full live row set — recompute exactly.
      stats_builder_->RecomputeFromRows(rows);
      publish_stats_(stats_builder_->Snapshot(rows.size()), target_csn);
    }
  } else {
    if (source_ == nullptr)
      return Status::Internal("merge synchronizer has no delta source");
    // Drain and apply in one exclusive hold of the table latch (rank 500,
    // then the delta store's 550): a scan reads the delta and the main
    // under the shared latch, so it sees a drained entry in exactly one.
    std::vector<DeltaEntry> entries;
    {
      WriteGuard g(table_->latch());
      entries = source_->DrainUpTo(target_csn);
      if (drain_hook_for_test_) drain_hook_for_test_();
      const FoldedEntries folded = FoldEntries(entries);
      table_->ApplyLocked(folded.deletes, folded.rows, target_csn);
    }
    stats_.entries_merged += entries.size();
    if (stats_builder_ != nullptr) {
      stats_builder_->ApplyEntries(entries);
      if (stats_builder_->deletes_since_recompute() >
          compact_delete_threshold_) {
        // Delete drift: the sketches only widen, so compact away the dead
        // rows and recompute from what actually survives.
        table_->Compact();
        stats_builder_->RecomputeFromColumnTable(*table_);
      }
      publish_stats_(stats_builder_->Snapshot(table_->live_rows()),
                     target_csn);
    }
  }

  const Micros dt = clock_->NowMicros() - t0;
  ++stats_.merges;
  stats_.last_merge_micros = static_cast<uint64_t>(dt);
  stats_.merge_micros_total += static_cast<uint64_t>(dt);
  return Status::OK();
}

BackgroundSyncer::BackgroundSyncer(DataSynchronizer* sync,
                                   TransactionManager* txn_mgr,
                                   Micros interval_micros,
                                   size_t entry_threshold)
    : sync_(sync),
      txn_mgr_(txn_mgr),
      interval_micros_(interval_micros),
      entry_threshold_(entry_threshold),
      thread_([this] { Loop(); }) {}

BackgroundSyncer::~BackgroundSyncer() { Stop(); }

void BackgroundSyncer::Stop() {
  // order: release pairs with Loop()'s acquire poll; join() below is the
  // real synchronization, release just keeps the flag conventional.
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

Status BackgroundSyncer::ForceSync() {
  return sync_->SyncTo(txn_mgr_->LastCommittedCsn());
}

void BackgroundSyncer::Loop() {
  Micros slept = 0;
  const Micros tick = 1000;  // re-check stop and threshold every 1ms
  // order: acquire pairs with Stop()'s release store of the flag.
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(tick));
    slept += tick;
    const bool threshold_hit =
        entry_threshold_ != 0 && sync_->PendingEntries() >= entry_threshold_;
    if (slept >= interval_micros_ || threshold_hit) {
      sync_->SyncTo(txn_mgr_->LastCommittedCsn());
      slept = 0;
    }
  }
}

}  // namespace htap
