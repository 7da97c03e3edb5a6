// Delta stores: the write-side staging areas that give HTAP architectures
// their freshness/efficiency trade-offs (Table 2, AP + DS rows).
//
// Every store stages committed changes in one representation, the
// DeltaChunk: op, key and CSN arrays plus one typed ColumnVector per schema
// column. A commit appends into the open tail chunk; a merge moves whole
// chunks out; a scan reads chunk ranges. Three designs from the survey
// differ in how they hold the chunks:
//  * InMemoryDeltaStore — in-memory delta (Oracle SMU, SQL Server delta
//    rowgroups, DB2 BLU shadow tables): a list of chunks.
//  * L1L2DeltaStore     — SAP HANA's two-stage delta: the same list, whose
//    open L1 chunk is sealed into L2 at a threshold; L2 merges into Main.
//  * LogDeltaStore      — TiDB/TiFlash-style: each append seals one chunk
//    into an encoded "delta file" indexed by a B+-tree; reads must decode
//    the files back into chunks.

#ifndef HTAP_DELTA_DELTA_H_
#define HTAP_DELTA_DELTA_H_

#include <atomic>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "columnar/column_vector.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/btree.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// One committed change as a row: the API edge of the delta stores (single
/// appends, point lookups, tests). The stores themselves hold chunks.
struct DeltaEntry {
  ChangeOp op = ChangeOp::kInsert;
  Key key = 0;
  Row row;  // empty for deletes
  CSN csn = 0;
};

/// A run of committed changes in commit order, column-wise. Row i of every
/// array belongs to change i; a delete's column cells are NULL.
struct DeltaChunk {
  std::vector<ChangeOp> ops;
  std::vector<Key> keys;
  std::vector<CSN> csns;
  std::vector<ColumnVector> columns;

  /// One typed column per entry of `types`.
  explicit DeltaChunk(const std::vector<Type>& types);

  size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
  CSN max_csn() const { return csns.back(); }

  /// Appends one change; `row` is ignored for deletes. Returns false and
  /// leaves the chunk unchanged if the row image does not fit the columns
  /// (wrong arity, or a cell that fails FitsColumn).
  bool Append(ChangeOp op, Key key, CSN csn, const Row& row);

  /// Moves rows [n, size) into the returned chunk and keeps [0, n).
  DeltaChunk SplitAt(size_t n);

  /// Change i as a row (the API edge; the merge and the scan stay typed).
  DeltaEntry EntryAt(size_t i) const;

  size_t MemoryBytes() const;
};

/// Rows [begin, end) of one chunk as a scan reads them. `columns` holds the
/// chunk's vectors in the reader's column order (a projecting reader picks
/// a subset).
struct DeltaSlice {
  const DeltaChunk* chunk = nullptr;
  size_t begin = 0, end = 0;
  std::vector<const ColumnVector*> columns;
};

using DeltaSliceVisitor = std::function<void(const DeltaSlice&)>;

/// One commit's events for one table, in commit order.
using TableEvents = std::span<const ChangeEvent* const>;

/// Splits one commit's events by table in a single pass, keeping commit
/// order within each table, and calls `visit` once per table.
void ForEachTableBatch(
    const std::vector<ChangeEvent>& events,
    const std::function<void(uint32_t table_id, TableEvents)>& visit);

/// Uniform read interface the HTAP scan path uses to union a delta with the
/// main column store.
class DeltaReader {
 public:
  virtual ~DeltaReader() = default;

  /// Visits the staged changes with csn <= snapshot in commit order, one
  /// chunk range at a time.
  virtual void ScanVisible(CSN snapshot,
                           const DeltaSliceVisitor& visit) const = 0;

  /// Number of staged entries (all CSNs).
  virtual size_t EntryCount() const = 0;

  /// Approximate heap footprint.
  virtual size_t MemoryBytes() const = 0;
};

// ---------------------------------------------------------------------------
// In-memory delta
// ---------------------------------------------------------------------------

/// A list of chunks: appends go into the open tail chunk, which is sealed
/// at `chunk_rows`; drains move whole chunks out and split only the one
/// that straddles the target CSN.
class InMemoryDeltaStore : public DeltaReader {
 public:
  explicit InMemoryDeltaStore(const Schema& schema)
      : InMemoryDeltaStore(schema, kChunkRows) {}

  /// Both reject (InvalidArgument) a row image that does not fit the
  /// schema; AppendBatch still stages the batch's other events. Commit
  /// paths stage rows the row store already accepted through CheckRow.
  Status Append(const DeltaEntry& e);
  Status AppendBatch(TableEvents events);

  void ScanVisible(CSN snapshot,
                   const DeltaSliceVisitor& visit) const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Removes and returns all entries with csn <= csn (the merge pipeline
  /// consumes these).
  std::vector<DeltaChunk> DrainUpTo(CSN csn);

  /// CSN of the newest staged entry (0 if empty).
  CSN max_csn() const;

  /// Rows per chunk before the tail is sealed.
  static constexpr size_t kChunkRows = 4096;

 protected:
  InMemoryDeltaStore(const Schema& schema, size_t chunk_rows);

  /// Seals the open tail chunk (the next append opens a new one).
  void Seal();
  /// Entries in the open tail chunk.
  size_t open_entries() const;

 private:
  Status AppendLocked(ChangeOp op, Key key, CSN csn, const Row& row)
      REQUIRES(mu_);

  const std::vector<Type> types_;
  const size_t chunk_rows_;
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-chunks"};
  std::deque<DeltaChunk> chunks_ GUARDED_BY(mu_);
  bool tail_open_ GUARDED_BY(mu_) = false;
  size_t entries_ GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// SAP HANA-style L1 -> L2 delta
// ---------------------------------------------------------------------------

/// The in-memory chunk list with the L1 spill threshold as its chunk size:
/// the open tail chunk is L1, the sealed chunks are L2.
class L1L2DeltaStore : public InMemoryDeltaStore {
 public:
  explicit L1L2DeltaStore(const Schema& schema,
                          size_t l1_spill_threshold = 4096)
      : InMemoryDeltaStore(schema, l1_spill_threshold) {}

  /// Force the L1 -> L2 seal regardless of threshold.
  void SpillL1() { Seal(); }

  size_t l1_size() const { return open_entries(); }
  size_t l2_size() const { return EntryCount() - open_entries(); }
};

// ---------------------------------------------------------------------------
// TiDB-style log-based (disk) delta files
// ---------------------------------------------------------------------------

class LogDeltaStore : public DeltaReader {
 public:
  explicit LogDeltaStore(const Schema& schema);

  /// Seals a batch of changes into one encoded delta file. Both reject
  /// (InvalidArgument) a row image that does not fit the schema and seal
  /// the batch's other changes.
  Status AppendFile(const std::vector<DeltaEntry>& entries);
  Status AppendBatch(TableEvents events);

  void ScanVisible(CSN snapshot,
                   const DeltaSliceVisitor& visit) const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Point lookup of the newest entry for a key (uses the B+-tree index —
  /// the survey's "delta items efficiently located with key lookups").
  bool LookupLatest(Key key, DeltaEntry* out) const;

  /// Removes every entry with csn <= csn; returns them decoded, in order
  /// (the log-based delta merge consumes these). A file straddling `csn` is
  /// split, keeping its newer entries staged.
  std::vector<DeltaChunk> DrainUpTo(CSN csn);

  size_t num_files() const;
  /// Cumulative bytes decoded by reads — the "expensive delta read" cost the
  /// survey attributes to this design.
  uint64_t bytes_decoded() const { return bytes_decoded_; }

 private:
  struct DeltaFile {
    std::string blob;  // one encoded chunk
    size_t count = 0;
    size_t first = 0;  // appended index of blob's entry 0 (after a split)
    CSN min_csn = 0, max_csn = 0;
  };

  void AppendChunk(const DeltaChunk& chunk);
  /// Decodes `f`, charging its bytes to bytes_decoded().
  DeltaChunk DecodeFile(const DeltaFile& f) const;

  const std::vector<Type> types_;
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-log"};
  std::deque<DeltaFile> files_ GUARDED_BY(mu_);
  // key -> (file_seq << 32 | entry_idx), newest wins. The B+-tree has its
  // own internal latch (rank kBtree, acquired under mu_).
  BTree key_index_;
  uint64_t file_seq_base_ GUARDED_BY(mu_) = 0;  // seq of files_.front()
  mutable std::atomic<uint64_t> bytes_decoded_{0};
};

}  // namespace htap

#endif  // HTAP_DELTA_DELTA_H_
