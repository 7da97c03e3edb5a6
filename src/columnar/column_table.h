// ColumnTable: the main column store. An append-only sequence of immutable
// row groups (IMCUs), each holding one Segment per column, a delete bitmap,
// and the decoded primary keys. A key index maps every key to its one live
// position, which is how the HTAP scan hides main rows a delta overrides.
// Updates are delete-old-position + append-new-row, applied by the sync
// pipeline.
//
// `merged_csn` is the freshness cursor: every committed change with
// CSN <= merged_csn is reflected here; newer changes still live in a delta
// store and must be unioned in by the scan (the in-memory delta and column
// scan technique, Table 2 AP row).

#ifndef HTAP_COLUMNAR_COLUMN_TABLE_H_
#define HTAP_COLUMNAR_COLUMN_TABLE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "columnar/segment.h"
#include "common/bitmap.h"
#include "common/latch.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// One immutable horizontal slice of the table.
struct RowGroup {
  std::vector<Segment> columns;  // one per schema column
  std::vector<Key> keys;         // decoded PK per row (hot path)
  Bitmap deleted;                // positional delete bitmap
  size_t num_rows = 0;

  size_t MemoryBytes() const {
    size_t b = sizeof(*this) + keys.capacity() * sizeof(Key) +
               deleted.MemoryBytes();
    for (const auto& s : columns) b += s.MemoryBytes();
    return b;
  }
};

/// Transposes rows into one typed vector per schema column.
std::vector<ColumnVector> RowsToColumns(const Schema& schema,
                                        const std::vector<Row>& rows);

class ColumnTable {
 public:
  explicit ColumnTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  // ---- Sync-pipeline write API (single writer; scans may run concurrently)

  /// Appends a batch of rows as one new row group (transposed into typed
  /// columns first). Rows whose key already exists — in the table or
  /// earlier in the same batch — are treated as updates: the old position
  /// is delete-marked, so every key has at most one live position.
  void AppendBatch(const std::vector<Row>& rows, CSN up_to_csn);

  /// Positionally delete-marks the row with this key. Returns false if the
  /// key is not present.
  bool DeleteKey(Key key, CSN csn);

  /// One merged batch in a single hold of the write latch, which the caller
  /// already has: delete-marks `deletes`, appends `columns` (one typed
  /// vector per schema column, equal lengths) as one row group the way
  /// AppendBatch does, and advances merged_csn to `up_to_csn`. The sync
  /// pipeline drains its delta under the same hold, so no scan sees the
  /// drained entries in neither the delta nor the main.
  void ApplyLocked(const std::vector<Key>& deletes,
                   const std::vector<ColumnVector>& columns, CSN up_to_csn)
      REQUIRES(latch_);

  /// Drops all data (rebuild-from-primary begins with this).
  void Clear();
  void ClearLocked() REQUIRES(latch_);

  /// Compacts groups: drops deleted rows and rebuilds segments. Returns
  /// bytes reclaimed (approximate).
  size_t Compact();

  /// Rewrites the trailing run of groups of fewer than `below_rows` rows
  /// as one group of their live rows, once the run is longer than
  /// `max_small`; the groups before it stay as they are. Merges that each
  /// append one small group thus leave scans a bounded number of groups,
  /// for about the rows they appended. Returns whether it compacted.
  bool CompactSmallTail(size_t below_rows, size_t max_small);

  /// Opt into the size-estimating compression advisor: segments built after
  /// this call (appends from the sync pipeline, Compact rebuilds) pick their
  /// encoding via AdviseEncoding instead of the ChooseEncoding heuristics.
  /// Default off so raw ColumnTable behavior is unchanged; the engines turn
  /// it on per DatabaseOptions::compression_advisor.
  void EnableCompressionAdvisor(bool on);

  // ---- Read API -----------------------------------------------------------

  size_t num_groups() const;
  /// Stable pointer to group i (groups are never removed, only compacted in
  /// place under the write latch; readers take the shared latch).
  const RowGroup* group(size_t i) const;

  /// Unlatched variants: caller must hold latch() shared for the duration
  /// of use (the scan path holds it across the whole pass).
  size_t num_groups_unlocked() const REQUIRES_SHARED(latch_) {
    return groups_.size();
  }
  const RowGroup* group_unlocked(size_t i) const REQUIRES_SHARED(latch_) {
    return groups_[i].get();
  }

  /// The live position of `key` through the key index, no delete-bitmap
  /// read (the index holds only live positions). Returns false if absent.
  bool LocateKey(Key key, size_t* group_idx, size_t* offset) const
      REQUIRES_SHARED(latch_) {
    const auto it = key_index_.find(key);
    if (it == key_index_.end()) return false;
    *group_idx = it->second.first;
    *offset = it->second.second;
    return true;
  }

  /// Reconstructs a full row from group/offset (for hybrid plans).
  Row MaterializeRow(const RowGroup& g, size_t offset) const;

  /// Looks up a key's position. Returns false if absent or deleted.
  bool FindKey(Key key, size_t* group_idx, size_t* offset) const;

  /// Rows not delete-marked.
  size_t live_rows() const;
  /// Rows delete-marked (deleted or superseded) that Compact would drop.
  size_t dead_rows() const;
  size_t MemoryBytes() const;

  /// Per-encoding segment counts and bytes across all row groups — the
  /// "where did the memory go" view Database stats surface.
  EncodingBreakdown EncodingStats() const;

  /// Freshness cursor: all committed changes at or below this CSN are
  /// reflected in this column store.
  CSN merged_csn() const { return merged_csn_; }
  void set_merged_csn(CSN csn) { merged_csn_ = csn; }

  /// The scan latch: scans hold shared, the sync pipeline holds exclusive.
  RWLatch& latch() const RETURN_CAPABILITY(latch_) { return latch_; }

 private:
  void AppendColumnsLocked(const std::vector<ColumnVector>& columns)
      REQUIRES(latch_);
  /// Rewrites groups [first, end) as one new last group of their live rows.
  void CompactFromLocked(size_t first) REQUIRES(latch_);
  bool DeleteKeyLocked(Key key) REQUIRES(latch_);

  const Schema schema_;
  bool advise_encodings_ GUARDED_BY(latch_) = false;
  std::vector<std::unique_ptr<RowGroup>> groups_ GUARDED_BY(latch_);
  std::unordered_map<Key, std::pair<uint32_t, uint32_t>> key_index_
      GUARDED_BY(latch_);
  std::atomic<CSN> merged_csn_{0};
  mutable RWLatch latch_{LockRank::kTableLatch, "column-table"};
};

}  // namespace htap

#endif  // HTAP_COLUMNAR_COLUMN_TABLE_H_
