// Morsel-driven parallel scan & aggregation scaling curve.
//
// Measures ScanHtapBatches (column scan + delta union, double-typed
// filter) and HashAggregate over the scan's batches (partial tables +
// merge) throughput at 1/2/4/8 workers over the engine-style AP pool,
// verifying that every parallel result is identical to the serial one.
// Emits one JSON line per point so the curve can be plotted /
// regression-tracked:
//
//   {"bench":"parallel_scan","threads":4,"scan_rows_per_sec":...,
//    "scan_speedup":...,"agg_rows_per_sec":...,"agg_speedup":...}
//
// Speedup expectations depend on the host: with >= 4 cores the 4-thread
// point should clear 2x; on a single-core host the curve is flat and only
// the identity checks are meaningful.
//
// A second table sweeps HashAggregate over group counts (1, 16, 4k, 256k)
// with int64 and string keys — serial and at 4 workers — and prints rows/s
// per point. It is informational: the
// low counts are the CH-query shape (a handful of groups, hot in cache),
// the high ones grow the group table to one group per row.

#include <algorithm>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "delta/delta.h"
#include "exec/executor.h"

namespace htap {
namespace bench {
namespace {

constexpr size_t kRows = 256 * 1024;
constexpr size_t kGroupRows = 4096;
constexpr int kReps = 5;

Schema BenchSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"cat", Type::kString}, {"price", Type::kDouble}});
}

struct Point {
  double scan_sec = 0;
  double agg_sec = 0;
};

Point RunPoint(const ColumnTable& table, const InMemoryDeltaStore& delta,
               size_t threads, const std::vector<Row>& serial_scan,
               const std::vector<Row>& serial_agg) {
  std::unique_ptr<ThreadPool> pool;
  ExecContext exec;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads, "bench-ap");
    exec = ExecContext{pool.get(), threads};
  }
  const Predicate pred = Predicate::Ge(3, Value(10.0));
  const std::vector<AggSpec> aggs = {AggSpec::Count("n"), AggSpec::Sum(3, "s"),
                                     AggSpec::Max(1, "mx")};

  Point p;
  std::vector<ColumnBatch> batches;
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 = warmup
    Stopwatch sw;
    batches = ScanHtapBatches(table, &delta, kMaxCSN - 1, pred, {}, exec);
    if (rep >= 0) p.scan_sec += sw.ElapsedSeconds();
  }
  if (BatchesToRows(batches) != serial_scan) {
    std::fprintf(stderr, "FATAL: parallel scan result differs at %zu threads\n",
                 threads);
    std::abort();
  }
  std::vector<Row> agg;
  for (int rep = -1; rep < kReps; ++rep) {
    Stopwatch sw;
    agg = HashAggregate(batches, {2}, aggs, exec);
    if (rep >= 0) p.agg_sec += sw.ElapsedSeconds();
  }
  auto less = [](const Row& a, const Row& b) {
    return a.ToString() < b.ToString();
  };
  std::sort(agg.begin(), agg.end(), less);
  std::vector<Row> want = serial_agg;
  std::sort(want.begin(), want.end(), less);
  if (agg != want) {
    std::fprintf(stderr, "FATAL: parallel agg result differs at %zu threads\n",
                 threads);
    std::abort();
  }
  p.scan_sec /= kReps;
  p.agg_sec /= kReps;
  return p;
}

/// Batches of (key, v, price) rows; row i has key i % groups, as an int64 or
/// as a string.
std::vector<ColumnBatch> SweepBatches(size_t groups, Type key_type) {
  const Schema schema({{"key", key_type}, {"v", Type::kInt64},
                       {"price", Type::kDouble}});
  std::vector<ColumnBatch> batches;
  for (size_t lo = 0; lo < kRows; lo += kGroupRows) {
    ColumnBatch b = MakeBatch(schema, {}, kGroupRows);
    for (size_t i = lo; i < lo + kGroupRows; ++i) {
      const auto k = static_cast<int64_t>(i % groups);
      if (key_type == Type::kString)
        b.columns[0].AppendString("key-" + std::to_string(k));
      else
        b.columns[0].AppendInt64(k);
      b.columns[1].AppendInt64(static_cast<int64_t>(i % 101));
      b.columns[2].AppendDouble(static_cast<double>(i % 1000) * 0.5);
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

/// Mean rows/s of the aggregate over `input`, kReps timed runs (one
/// warmup).
double AggRowsPerSec(const std::vector<ColumnBatch>& input,
                     const ExecContext& exec, size_t want_groups) {
  const std::vector<AggSpec> aggs = {AggSpec::Count("n"), AggSpec::Sum(2, "s"),
                                     AggSpec::Max(1, "mx")};
  double sec = 0;
  for (int rep = -1; rep < kReps; ++rep) {
    Stopwatch sw;
    const auto out = HashAggregate(input, {0}, aggs, exec);
    if (rep >= 0) sec += sw.ElapsedSeconds();
    if (out.size() != want_groups) {
      std::fprintf(stderr, "FATAL: aggregate sweep produced %zu groups, "
                   "want %zu\n", out.size(), want_groups);
      std::abort();
    }
  }
  return static_cast<double>(kRows) * kReps / sec;
}

void RunGroupSweep() {
  ThreadPool pool(4, "bench-agg");
  ExecContext par;
  par.pool = &pool;
  par.max_parallelism = 4;
  std::printf("\nAggregate over %zu rows by group count (COUNT, SUM, MAX; "
              "%d reps/point)\n\n", kRows, kReps);
  std::printf("%8s | %8s | %16s | %16s\n", "key", "groups",
              "serial Mrows/s", "4-worker Mrows/s");
  PrintRule(58);
  for (Type key_type : {Type::kInt64, Type::kString}) {
    for (size_t groups : {size_t{1}, size_t{16}, size_t{4096}, kRows}) {
      const auto batches = SweepBatches(groups, key_type);
      const double serial = AggRowsPerSec(batches, ExecContext{}, groups);
      const double parallel = AggRowsPerSec(batches, par, groups);
      std::printf("%8s | %8zu | %16.2f | %16.2f\n", TypeName(key_type),
                  groups, serial / 1e6, parallel / 1e6);
      std::printf("{\"bench\":\"agg_group_sweep\",\"key\":\"%s\","
                  "\"groups\":%zu,\"serial_rows_per_sec\":%.0f,"
                  "\"parallel4_rows_per_sec\":%.0f}\n",
                  TypeName(key_type), groups, serial, parallel);
    }
  }
  PrintRule(58);
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main() {
  using namespace htap;
  using namespace htap::bench;

  ColumnTable table(BenchSchema());
  {
    std::vector<Row> batch;
    batch.reserve(kGroupRows);
    for (size_t i = 0; i < kRows; ++i) {
      const auto id = static_cast<Key>(i);
      batch.push_back(Row{Value(id), Value(static_cast<int64_t>(i % 101)),
                          Value(i % 2 ? "odd" : "even"),
                          Value(static_cast<double>(i % 1000) * 0.5)});
      if (batch.size() == kGroupRows) {
        table.AppendBatch(batch, 1);
        batch.clear();
      }
    }
  }
  InMemoryDeltaStore delta(BenchSchema());
  for (Key id = 0; id < 2000; ++id) {
    DeltaEntry e;
    e.op = ChangeOp::kUpdate;
    e.key = id * 100;
    e.row = Row{Value(id * 100), Value(int64_t{1}), Value("patched"),
                Value(999.0)};
    e.csn = 2;
    delta.Append(e);
  }

  std::printf("Morsel-driven parallel scan & aggregation "
              "(%zu rows, %zu-row groups, %d reps/point)\n",
              kRows, kGroupRows, kReps);
  std::printf("host hardware_concurrency = %u\n\n",
              std::thread::hardware_concurrency());

  const auto serial_batches =
      ScanHtapBatches(table, &delta, kMaxCSN - 1,
                      Predicate::Ge(3, Value(10.0)), {}, ExecContext{});
  const auto serial_scan = BatchesToRows(serial_batches);
  const auto serial_agg = HashAggregate(
      serial_batches, {2},
      {AggSpec::Count("n"), AggSpec::Sum(3, "s"), AggSpec::Max(1, "mx")});
  const Point serial = RunPoint(table, delta, 1, serial_scan, serial_agg);

  std::printf("%8s | %12s | %12s | %8s | %12s | %8s\n", "threads",
              "scan ms", "scan Mrows/s", "scan x", "agg Mrows/s", "agg x");
  PrintRule(78);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const Point p = threads == 1
                        ? serial
                        : RunPoint(table, delta, threads, serial_scan,
                                   serial_agg);
    const double scan_rps = static_cast<double>(kRows) / p.scan_sec;
    const double agg_rps =
        static_cast<double>(serial_scan.size()) / p.agg_sec;
    std::printf("%8zu | %12.2f | %12.2f | %8.2f | %12.2f | %8.2f\n", threads,
                p.scan_sec * 1e3, scan_rps / 1e6, serial.scan_sec / p.scan_sec,
                agg_rps / 1e6, serial.agg_sec / p.agg_sec);
    std::printf("{\"bench\":\"parallel_scan\",\"threads\":%zu,"
                "\"scan_rows_per_sec\":%.0f,\"scan_speedup\":%.3f,"
                "\"agg_rows_per_sec\":%.0f,\"agg_speedup\":%.3f}\n",
                threads, scan_rps, serial.scan_sec / p.scan_sec, agg_rps,
                serial.agg_sec / p.agg_sec);
  }
  PrintRule(78);
  std::printf("\nAll parallel results verified byte-identical to serial "
              "(scan) / set-identical (aggregate).\n");
  RunGroupSweep();
  return 0;
}
