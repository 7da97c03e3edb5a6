// The tests' oracle: a deliberately naive reference executor. It reads each
// table whole through a single-table, predicate-free row-store plan
// (PathHint::kForceRow: the MVCC row store on a and d, the disk heap on c,
// the learners on b), applies every predicate itself with Predicate::Eval,
// joins nested-loop in plan order, aggregates by sorting, and shapes the
// output as QueryPlan documents. It shares no operator code with the batch
// pipeline it checks — only the row-store scan that feeds it.
//
// Below the oracle sit row-image conveniences for operator-level tests:
// thin wrappers that feed rows to the batch operators and hand rows back.

#ifndef HTAP_TESTS_REFERENCE_EXECUTOR_H_
#define HTAP_TESTS_REFERENCE_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "exec/executor.h"

namespace htap {

// ---- The oracle ------------------------------------------------------------

/// Nested-loop inner equi-join: left ++ right rows, left rows in input order
/// and, per left row, its matches in right input order. NULL keys never
/// match; other keys match by Value::operator== (int64 1 equals double 1.0).
std::vector<Row> ReferenceJoin(const std::vector<Row>& left,
                               const std::vector<Row>& right, int left_col,
                               int right_col);

/// Sort-based aggregation: stable-sort row indexes by group key (so each
/// run of equal keys is in input order), fold each run, then order the
/// groups by their first row. NULL keys compare equal to each other, as do
/// 0.0 and -0.0; every function but COUNT(*) skips NULL inputs, and SUM/AVG
/// add in input order.
std::vector<Row> ReferenceAggregate(const std::vector<Row>& rows,
                                    const std::vector<int>& group_cols,
                                    const std::vector<AggSpec>& aggs);

/// Every row of `table` as the row store holds it, in its scan order.
Result<std::vector<Row>> ReferenceTable(Database* db, const std::string& table);

/// Executes `plan` against `db` the naive way and returns its rows: base
/// and join tables filtered here, joined nested-loop in plan order (the
/// legacy single-join fields first), then aggregated or projected, then
/// stable-sorted by `order_by` and cut at `limit`.
Result<std::vector<Row>> ReferenceQuery(Database* db, const QueryPlan& plan);

// ---- Comparison ------------------------------------------------------------

/// Same type and same bits (so 0.0 and -0.0 differ, unlike Value ==).
bool Identical(const Value& a, const Value& b);

/// Identical, or both doubles within 1e-9 relative (partial sums merged
/// in another order).
bool Close(const Value& a, const Value& b);

/// Every cell Identical (`exact`) or Close, row for row.
void ExpectRowsMatch(const std::vector<Row>& got,
                     const std::vector<Row>& want, bool exact,
                     const std::string& what);

/// Runs `plan` on `db` and expects the reference's rows: in the same order
/// when `ordered`, as a multiset otherwise; doubles Close. The engine's
/// rows, as returned, go to `*got` when given.
void ExpectMatchesReference(Database* db, const QueryPlan& plan, bool ordered,
                            const std::string& what,
                            std::vector<Row>* got = nullptr);

// ---- Row-image conveniences for operator tests ------------------------------

/// BatchesToRows(ScanHtapBatches(...)).
std::vector<Row> ScanHtapRows(const ColumnTable& table,
                              const DeltaReader* delta, CSN snapshot,
                              const Predicate& pred,
                              const std::vector<int>& projection,
                              const ExecContext& exec = ExecContext{},
                              ScanStats* stats = nullptr);

/// The hash join of two row sets through the batch kernels: rows packed
/// into batches typed by their schemas, keys extracted, HashJoinPairsKeys
/// (weighted by EstimateBatchRowBytes when a spill budget is set), and the
/// pairs materialized as left ++ right rows.
std::vector<Row> HashJoinRows(const std::vector<Row>& left,
                              const Schema& left_schema,
                              const std::vector<Row>& right,
                              const Schema& right_schema, int left_col,
                              int right_col,
                              const ExecContext& exec = ExecContext{},
                              JoinStats* stats = nullptr);

/// Total EstimateBatchRowBytes of `rows` typed by `schema` — the footprint
/// a grace budget is compared against.
size_t RowsBytes(const std::vector<Row>& rows, const Schema& schema);

/// HashAggregate over `rows` packed into batches typed by `schema`.
std::vector<Row> AggregateRows(const std::vector<Row>& rows,
                               const Schema& schema,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec = ExecContext{},
                               AggStats* stats = nullptr);

}  // namespace htap

#endif  // HTAP_TESTS_REFERENCE_EXECUTOR_H_
