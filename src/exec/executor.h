// The block executor: every operator consumes and produces ColumnBatches
// (DESIGN.md §12); rows appear only at the API edge (QueryResult, after
// the final BatchesToRows).
//
// Operators materialize their full output — at the scale of this library the
// simplicity is worth more than pipelining.
//
// Map of this header (each operator links its DESIGN.md section):
//
//   ScanRowStore         MVCC row store -> typed batches ...... DESIGN §7
//   ScanHtapBatches      column main + delta union -> ......... DESIGN §7, §12
//                        batches, predicates on the encoded
//                        segments
//   HashAggregate        one typed group table, serial or ..... DESIGN §7
//                        partial tables merged in input order
//   ExtractJoinKeys +    hash equi-join over typed key ........ DESIGN §8, §13
//   HashJoinPairsKeys    columns; three regimes (grace: §9):
//     - serial: one chained table (small builds)
//     - radix-partitioned parallel: scatter/build/probe morsels
//     - grace (out-of-core): oversized partitions spill their join keys
//       as columnar (index, key) pages to temporary on-disk runs
//       (src/storage/spill_file.h) and join partition-at-a-time,
//       recursively re-partitioning skewed partitions; triggered by
//       ExecContext::join_spill_budget_bytes. Payload columns never spill
//       — the query runner gathers them after the pair set is final (§13).
//   SortLimit            output shaping on the result rows
//
// Scans, aggregation, and the hash join are morsel-driven when given an
// ExecContext with a thread pool: one morsel per row group (column scans),
// key range (row scans), radix partition (join build), or input chunk (join
// probe), per-worker partial state, deterministic merge.
//
// Determinism contract: every operator here returns output byte-identical
// to its serial execution at any thread count (the parallel aggregate's
// SUM/AVG excepted: partial sums merge, so they may round differently;
// its groups and their order match), and the join's pairs match a
// nested-loop reference (probe rows in input order; per probe row, matches
// in build-input order). Build-side and join-order selection live one
// layer up (src/opt/join_planner.h, applied by core/query_runner.cc),
// which restores the same nested-loop order after reordering.

#ifndef HTAP_EXEC_EXECUTOR_H_
#define HTAP_EXEC_EXECUTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "columnar/column_table.h"
#include "common/thread_pool.h"
#include "delta/delta.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "storage/mvcc_row_store.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// Execution resources for the parallel operators. The default (no pool)
/// runs every operator serially; engines hand their AP morsel pool here to
/// enable intra-query parallelism. The pool is shared across concurrent
/// queries — each operator fans out through its own TaskGroup, so waiting
/// for one query's morsels never blocks on another's.
struct ExecContext {
  ThreadPool* pool = nullptr;   // AP morsel pool; null = serial execution
  size_t max_parallelism = 1;   // target worker count for morsel fan-out

  /// Serial fallback for the partitioned join: builds smaller than this run
  /// the classic single-table join (partitioning a tiny build side costs
  /// more than it wins). Mirrors DatabaseOptions::parallel_join_min_build_rows.
  size_t min_parallel_join_build = 4096;

  /// Test seam: join key hashes are ANDed with this mask before table
  /// insertion and partition selection. Narrow masks force hash collisions
  /// onto the key-confirm path (and, with the low radix bits zeroed, funnel
  /// every build row into one partition to exercise the grace join's
  /// recursive re-partitioning); production code leaves it all-ones.
  uint64_t join_hash_mask = ~0ull;

  /// Grace-join spill budget: when the estimated build-side footprint of a
  /// hash join exceeds this, the join radix-partitions (even without a
  /// pool) and spills partitions that do not fit to temporary on-disk runs,
  /// joining them partition-at-a-time (DESIGN.md §9). 0 = unlimited — never
  /// spill. Mirrors DatabaseOptions::join_spill_budget_bytes.
  size_t join_spill_budget_bytes = 0;

  /// Directory for spill runs (htap-spill-*). Empty = DefaultSpillDir().
  std::string join_spill_dir;

  /// Plan-time statistics inputs (DESIGN.md §10). `committed_csn` is the
  /// engine's commit frontier at query start; catalog statistics whose
  /// as_of_csn trails it by more than `stats_staleness_csns` commits are
  /// considered stale, and the join planner falls back to its
  /// execution-time sampling path. committed_csn == 0 means "unknown
  /// frontier" and disables the staleness check (direct RunPlan callers).
  CSN committed_csn = 0;
  uint64_t stats_staleness_csns = 65536;

  /// Rows per ColumnBatch emitted by the scans (DESIGN.md §12). Mirrors
  /// DatabaseOptions::vectorized_batch_rows; 0 = one batch per row group
  /// (column scans) or per key range (row scans).
  size_t batch_rows = 4096;

  bool parallel() const { return pool != nullptr && max_parallelism > 1; }
};

/// Counters a scan fills in; benchmarks and the optimizer's feedback loop
/// read these.
struct ScanStats {
  size_t groups_total = 0;
  size_t groups_skipped = 0;   // zone-map pruning
  size_t main_rows_emitted = 0;
  size_t delta_rows_emitted = 0;
  size_t delta_entries_read = 0;
  /// Main-store positions that entered predicate evaluation (live and not
  /// hidden by the delta, in groups the zone maps could not skip). The ratio
  /// main_rows_emitted / rows_considered is the scan's observed
  /// selectivity — the optimizer's feedback signal.
  size_t rows_considered = 0;
  /// Wall time of the delta pass (collect + position resolve) and of the
  /// main group morsels — the split of the delta union's cost.
  double delta_seconds = 0;
  double main_seconds = 0;
};

/// A materialized query result.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  ScanStats stats;

  std::string ToString(size_t max_rows = 20) const;
};

/// Scans an MVCC row store at a snapshot into schema-typed batches of at
/// most exec.batch_rows rows. `projection` lists output columns (empty =
/// all). With a pool, range-partitions the key space into one morsel per
/// worker and concatenates per-range batches in key-range order, so the
/// rows equal the serial scan's exactly (key order preserved).
std::vector<ColumnBatch> ScanRowStore(const MvccRowStore& store,
                                      const Snapshot& snap,
                                      const Predicate& pred,
                                      const std::vector<int>& projection,
                                      const ExecContext& exec);

/// The HTAP scan (DESIGN.md §§7, 12): main column store unioned with a
/// delta store at snapshot CSN `snapshot`. Pass delta == nullptr for a pure
/// column scan (the SingleStore-style technique — fast, but blind to
/// unmerged changes).
///
/// Correctness contract (tested as the delta/column-union invariant): the
/// result equals scanning a row-store snapshot at `snapshot`, provided
/// every change with csn <= snapshot is in the column store or the delta.
///
/// The delta union is a position overlay: one pass over the visible delta,
/// under the table's shared latch, keeps the latest entry per key; each
/// overridden key hides its one main position through the table's key
/// index. Predicates evaluate directly on the encoded segments
/// (src/exec/segment_filter.h) and survivors gather into compacted batches
/// of at most exec.batch_rows rows. Batches arrive in row-group order, then
/// the surviving delta rows in the commit order of each key's latest entry
/// (a row superseded by a later entry drops out through the batch's
/// selection vector) — serial or morsel-parallel, at any thread count.
/// Delta rows must match the table schema's column types (the same
/// invariant the merge path relies on).
std::vector<ColumnBatch> ScanHtapBatches(const ColumnTable& table,
                                         const DeltaReader* delta,
                                         CSN snapshot, const Predicate& pred,
                                         const std::vector<int>& projection,
                                         const ExecContext& exec,
                                         ScanStats* stats = nullptr);

/// Counters the hash join fills in; benchmarks, tests, and EXPLAIN read
/// these. The spill_* group is nonzero only when the grace path ran
/// (ExecContext::join_spill_budget_bytes exceeded).
struct JoinStats {
  size_t build_rows = 0;
  size_t probe_rows = 0;
  size_t output_rows = 0;
  size_t partitions = 1;   // radix partition count (1 = unpartitioned build)
  bool parallel = false;   // fanned morsels onto an AP pool
  bool build_swapped = false;  // planner built on the left side (query_runner)
  size_t partitions_spilled = 0;  // top-level partitions that went to disk
  size_t spill_rows_written = 0;  // key records written across both sides
  size_t spill_bytes_written = 0;
  size_t spill_bytes_read = 0;
  size_t spill_pages_written = 0;  // columnar key pages (DESIGN.md §13)
  size_t spill_pages_read = 0;
  size_t spill_max_recursion = 0;  // deepest re-partition level (0 = none)
  /// Join-pipeline counters, filled by the query runner (DESIGN.md §13):
  /// input ColumnBatches consumed across all join inputs, and output rows
  /// whose payload columns were gathered only after every join filter ran
  /// (late materialization).
  size_t join_batches = 0;
  size_t rows_late_materialized = 0;
  double seconds = 0;      // wall time inside the operator
};

/// One join match: (probe row index, build row index). The pair vector of a
/// join is always in nested-loop order — probe index ascending, and within
/// one probe index, build index ascending (= build input order).
using JoinPairs = std::vector<std::pair<uint32_t, uint32_t>>;

/// One join input's key column, extracted in a single vectorized pass from
/// typed scan batches: values plus precomputed Value::Hash-consistent
/// hashes. Invalid slots (NULL keys) never match.
struct JoinKeyColumn {
  Type type = Type::kInt64;
  std::vector<int64_t> ints;      // type == kInt64
  std::vector<double> doubles;    // type == kDouble
  std::vector<std::string> strs;  // type == kString
  std::vector<uint64_t> hashes;   // unmasked; meaningless at invalid slots
  std::vector<uint8_t> valid;

  size_t size() const { return valid.size(); }
  Value GetValue(size_t i) const;
};

/// Key equality between two extracted columns, matching Value::operator==
/// (cross-type numeric equality included). Both slots must be valid.
bool JoinKeyEquals(const JoinKeyColumn& a, size_t i, const JoinKeyColumn& b,
                   size_t j);

/// Extracts column `col` of the batches' active rows, in order (the dense
/// active index is the join's row identity).
JoinKeyColumn ExtractJoinKeys(const std::vector<ColumnBatch>& batches,
                              int col);

/// The hash inner-equi-join: probes `probe` against a table built on
/// `build`, returning matching index pairs (NULL keys never match) in
/// nested-loop order, identical across the serial, radix-partitioned
/// parallel, and grace (spilling) regimes and every thread count. The grace
/// path triggers when exec.join_spill_budget_bytes is set and the build
/// side's estimated footprint exceeds it; `build_weights` (parallel to
/// `build`, optional) supplies per-slot footprints — the query runner
/// passes EstimateBatchRowBytes — and without weights the key column's own
/// footprint is used. Spilled partitions hold only (input index, key)
/// column-slice pages (src/storage/spill_file.h) — payloads are
/// late-materialized after the join, so they never touch disk.
JoinPairs HashJoinPairsKeys(const JoinKeyColumn& probe,
                            const JoinKeyColumn& build,
                            const ExecContext& exec,
                            JoinStats* stats = nullptr,
                            const std::vector<size_t>* build_weights = nullptr);

/// Per-active-row footprint estimates for batch join inputs, one entry per
/// dense active position in batch order: the materialized row's size (Row
/// shell, one Value per column, string heap payloads) — the quantity grace
/// budgets are compared against.
std::vector<size_t> EstimateBatchRowBytes(
    const std::vector<ColumnBatch>& batches);

/// Counters HashAggregate fills in; the query runner reports them as
/// QueryExecInfo::agg.
struct AggStats {
  size_t rows_in = 0;     // active input rows absorbed
  size_t groups_out = 0;  // output groups (0 for a global aggregate over
                          // no rows, which still emits its one row)
  size_t workers = 1;     // partial tables (1 = serial)
  double seconds = 0;     // wall time inside the operator
};

/// Hash aggregation over one typed group table (DESIGN.md §§7, 12): groups
/// and aggregates directly over column batches under their selection
/// vectors — no Value per row. With empty `group_cols`, emits one global
/// row. Output row layout: group values then one value per AggSpec. Groups
/// come out in first-seen input order. NULL group keys form one group.
/// Every function but COUNT(*) (column -1) skips NULL inputs: COUNT(col)
/// counts non-NULL values, AVG divides by them, and SUM/MIN/MAX/AVG of a
/// group with none is NULL. SUM and AVG accumulate in double in input
/// order; MIN/MAX keep the input's type. With a pool, each worker absorbs a
/// contiguous range of whole batches into a partial table; partials merge
/// in range order.
std::vector<Row> HashAggregate(const std::vector<ColumnBatch>& batches,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec = ExecContext{},
                               AggStats* stats = nullptr);

/// Sorts by `col` (ascending unless `desc`), keeps first `limit` rows
/// (limit == 0 means all).
void SortLimit(std::vector<Row>* rows, int col, bool desc, size_t limit);

}  // namespace htap

#endif  // HTAP_EXEC_EXECUTOR_H_
