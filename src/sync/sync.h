// Data synchronization: moving committed changes from the TP-side delta
// stores into the main column store (Table 2, DS row), plus the freshness
// accounting that the AP scans and the resource scheduler consume.
//
// Three strategies from the survey:
//  * kInMemoryMerge — threshold-based change propagation out of an
//    in-memory delta (Oracle/SQL Server/DB2 BLU/HANA style).
//  * kLogMerge      — periodic merge of encoded log-delta files
//    (TiDB/TiFlash style; higher per-merge cost, scalable staging).
//  * kRebuild       — drop and rebuild the column store from the primary
//    row store (Oracle repopulation / SingleStore reload style; cheap
//    staging memory, expensive load).

#ifndef HTAP_SYNC_SYNC_H_
#define HTAP_SYNC_SYNC_H_

#include <deque>
#include <functional>
#include <memory>

#include "columnar/column_table.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "delta/delta.h"
#include "opt/stats_builder.h"
#include "storage/mvcc_row_store.h"
#include "txn/txn_manager.h"

namespace htap {

/// Where a synchronizer pulls staged changes from. The three delta stores
/// adapt to this via DeltaSourceAdapter.
class DeltaSource {
 public:
  virtual ~DeltaSource() = default;
  virtual std::vector<DeltaChunk> DrainUpTo(CSN csn) = 0;
  virtual size_t PendingEntries() const = 0;
};

template <typename DeltaT>
class DeltaSourceAdapter : public DeltaSource {
 public:
  explicit DeltaSourceAdapter(DeltaT* delta) : delta_(delta) {}
  std::vector<DeltaChunk> DrainUpTo(CSN csn) override {
    return delta_->DrainUpTo(csn);
  }
  size_t PendingEntries() const override { return delta_->EntryCount(); }

 private:
  DeltaT* delta_;
};

/// Tracks commit times so freshness can be reported in wall-clock terms as
/// well as CSN lag. Registered as a ChangeSink.
class FreshnessTracker : public ChangeSink {
 public:
  explicit FreshnessTracker(const Clock* clock = WallClock::Default())
      : clock_(clock) {}

  void OnCommit(const std::vector<ChangeEvent>& events) override;

  /// Number of commits not yet visible at `visible_csn`.
  uint64_t CsnLag(CSN committed_csn, CSN visible_csn) const {
    return committed_csn > visible_csn ? committed_csn - visible_csn : 0;
  }

  /// Age of the oldest committed-but-not-yet-visible change; 0 if fully
  /// fresh. The samples are kept in CSN order, so this is a binary search.
  Micros TimeLagMicros(CSN visible_csn) const;

  /// Samples kept; older ones are dropped first.
  static constexpr size_t kMaxSamples = 100000;

 private:
  const Clock* clock_;
  mutable Mutex mu_{LockRank::kFreshness, "freshness-tracker"};
  std::deque<std::pair<CSN, Micros>> samples_ GUARDED_BY(mu_);  // (csn, time)
};

/// Where the merge strategies spend their time, stage by stage, and how
/// many entries went through those stages. Drain, fold and build run under
/// the table's write latch; stats and release run after it.
struct SyncStageTimes {
  uint64_t entries = 0;
  double drain_seconds = 0;    // delta chunks moved out of the store
  double fold_seconds = 0;     // last upsert per key, by position
  double build_seconds = 0;    // typed gather + segment encode + apply
  double stats_seconds = 0;    // stats upkeep and compaction
  double release_seconds = 0;  // freeing the drained chunks

  double total_seconds() const {
    return drain_seconds + fold_seconds + build_seconds + stats_seconds +
           release_seconds;
  }
  void Add(const SyncStageTimes& o) {
    entries += o.entries;
    drain_seconds += o.drain_seconds;
    fold_seconds += o.fold_seconds;
    build_seconds += o.build_seconds;
    stats_seconds += o.stats_seconds;
    release_seconds += o.release_seconds;
  }
};

/// Statistics from merge activity (bench_table2_ds reads these).
struct SyncStats {
  uint64_t merges = 0;
  uint64_t entries_merged = 0;
  uint64_t rows_loaded = 0;        // rebuild strategy
  uint64_t merge_micros_total = 0;
  uint64_t last_merge_micros = 0;
  SyncStageTimes stages;           // merge strategies
};

enum class SyncStrategy : uint8_t {
  kInMemoryMerge = 0,
  kLogMerge = 1,
  kRebuild = 2,
};

const char* SyncStrategyName(SyncStrategy s);

/// One table's change propagation as the background SyncDaemon drives it:
/// merge everything staged up to a CSN, and report how much is staged.
class SyncTask {
 public:
  virtual ~SyncTask() = default;
  virtual Status SyncTo(CSN target_csn) = 0;
  virtual size_t PendingEntries() const = 0;
};

/// Drives one table's column store to a target CSN using one strategy.
class DataSynchronizer : public SyncTask {
 public:
  /// In-memory / log merge: `source` supplies drained delta entries.
  DataSynchronizer(SyncStrategy strategy, ColumnTable* table,
                   std::unique_ptr<DeltaSource> source,
                   const Clock* clock = WallClock::Default());

  /// Rebuild strategy: reads the primary row store directly.
  DataSynchronizer(ColumnTable* table, const MvccRowStore* primary,
                   const Clock* clock = WallClock::Default());

  SyncStrategy strategy() const { return strategy_; }

  /// Brings the column store up to `target_csn`. For merge strategies this
  /// drains and applies staged entries; for rebuild it reloads everything
  /// from the primary store at a snapshot.
  Status SyncTo(CSN target_csn) override;

  /// Snapshot of the merge statistics, copied out under the merge mutex —
  /// a background merge may be mutating them concurrently.
  SyncStats stats() const {
    MutexLock lk(&mu_);
    return stats_;
  }
  size_t PendingEntries() const override {
    return source_ != nullptr ? source_->PendingEntries() : 0;
  }

  /// Statistics maintenance (DESIGN.md §10): after every merge the
  /// synchronizer folds the applied entries into an incremental
  /// TableStatsBuilder and calls `publish` with a fresh TableStats snapshot
  /// and the CSN it reflects (engines route this to Catalog::PublishStats).
  /// Deletes only accumulate drift in the incremental sketches, so once
  /// more than `compact_delete_threshold` deletes have been merged since
  /// the last full pass, the column table is compacted and the statistics
  /// fully recomputed from the surviving rows. The rebuild strategy always
  /// recomputes from the reloaded rows. Call before the first SyncTo.
  using StatsPublishFn = std::function<void(const TableStats&, CSN)>;
  void EnableStatsMaintenance(StatsPublishFn publish,
                              size_t compact_delete_threshold);

  /// Test seam: runs inside SyncTo between the delta drain and the column
  /// apply, with the table's write latch held, so a test can widen that
  /// window and check no scan falls into it.
  void SetDrainHookForTest(std::function<void()> hook);

 private:
  const SyncStrategy strategy_;
  ColumnTable* const table_;
  const std::unique_ptr<DeltaSource> source_;  // never reseated
  const MvccRowStore* primary_ = nullptr;
  const Clock* clock_;
  SyncStats stats_ GUARDED_BY(mu_);
  // Stats maintenance state; mutated only under mu_ (SyncTo).
  std::unique_ptr<TableStatsBuilder> stats_builder_ GUARDED_BY(mu_);
  StatsPublishFn publish_stats_ GUARDED_BY(mu_);
  size_t compact_delete_threshold_ GUARDED_BY(mu_) = 0;
  std::function<void()> drain_hook_for_test_ GUARDED_BY(mu_);
  mutable Mutex mu_{LockRank::kSyncMerge, "sync-merge"};  // one merge at a time
};

/// Folds drained chunks (commit order) by position — the last upsert per
/// key wins, placed where the key was first upserted, and no cell is
/// copied — then gathers each column of the new row group with one
/// typed loop and applies it, advancing merged_csn to `up_to`. The caller
/// holds the table's write latch. `times` (optional) gets the fold and
/// build seconds.
void MergeChunksLocked(ColumnTable* table,
                       const std::vector<DeltaChunk>& chunks, CSN up_to,
                       SyncStageTimes* times = nullptr);

/// One merge of staged changes, the step every merging synchronizer shares
/// (DataSynchronizer, architecture (c)'s IMCS merge): under one hold of the
/// table's write latch, `drain` moves out the chunks up to `up_to`, already
/// in the table's column layout, and MergeChunksLocked applies them; after
/// the latch, `merged` (optional) sees the chunks (stats upkeep,
/// compaction) and then they are freed. Adds every stage's seconds and the
/// entry count to `times`; returns the entry count.
using DrainFn = std::function<std::vector<DeltaChunk>()>;
using MergedFn = std::function<void(const std::vector<DeltaChunk>&)>;
size_t DrainAndMerge(ColumnTable* table, const DrainFn& drain, CSN up_to,
                     SyncStageTimes* times, const MergedFn& merged = nullptr);

/// MergeChunksLocked in one hold of the table's write latch. Used where the
/// chunks were drained before (learner replica apply loop); the
/// synchronizers drain under the latch through DrainAndMerge.
void ApplyChunksToColumnTable(ColumnTable* table,
                              const std::vector<DeltaChunk>& chunks,
                              CSN up_to);

}  // namespace htap

#endif  // HTAP_SYNC_SYNC_H_
