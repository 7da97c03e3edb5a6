// Shared plan execution: every engine supplies only a table-scan callback
// that returns column batches; joins, aggregation, sorting, and
// output-schema construction are common, and run batch-at-a-time end to
// end. Rows appear only in the QueryResult.

#ifndef HTAP_CORE_QUERY_RUNNER_H_
#define HTAP_CORE_QUERY_RUNNER_H_

#include <functional>

#include "core/catalog.h"
#include "core/plan.h"

namespace htap {

/// One base-table access requested by the runner.
struct ScanRequest {
  const TableInfo* table = nullptr;
  const Predicate* pred = nullptr;
  std::vector<int> projection;  // empty = all columns
  PathHint path = PathHint::kAuto;
  bool require_fresh = true;
};

/// Engine-supplied scan: the rows `req` selects as ColumnBatches typed by
/// the table schema narrowed to req.projection (DESIGN.md §12), whichever
/// store serves them. Fills `stats`/`path_desc` (may be null).
using ScanFn = std::function<Result<std::vector<ColumnBatch>>(
    const ScanRequest&, ScanStats* stats, std::string* path_desc)>;

/// Executes `plan` against `catalog` using `scan` for base access. Simple
/// scans and single-table aggregates push the consumed columns into the
/// scan and consume its batches directly (DESIGN.md §12); join plans run
/// the late-materialization pipeline (DESIGN.md §13), carrying only
/// lineage indices between join steps and gathering payload columns once,
/// after the last join. `exec` supplies the AP pool for the parallel hash
/// join and aggregation (default: serial). Results are byte-identical at
/// every thread count, batch size, and spill budget.
Result<QueryResult> RunPlan(const QueryPlan& plan, const Catalog& catalog,
                            const ScanFn& scan, QueryExecInfo* info,
                            const ExecContext& exec = ExecContext{});

/// Output schema the runner will produce for `plan` (for binders/tests).
Result<Schema> PlanOutputSchema(const QueryPlan& plan, const Catalog& catalog);

}  // namespace htap

#endif  // HTAP_CORE_QUERY_RUNNER_H_
