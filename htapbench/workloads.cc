// The four workloads (see NOTES.md for why each exists):
//
//   oltp       architecture (a), 2 closed-loop TP clients, fixed count
//   oltp_disk  architecture (c), same clients, WAL and heap in files
//   olap       architecture (a), one query stream over frozen data
//   htap       architecture (a), open-loop TP at a fixed rate + one stream
//
// One process runs one repetition: set up the seeded CH scale, measure fixed
// work, check the database's answers. run.py runs five repetitions, each in
// a fresh process, and reports the median of each metric.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.h"
#include "benchlib/chbench.h"
#include "common/random.h"
#include "core/database.h"
#include "tpcc.h"
#include "trace.h"

namespace htapbench {

using htap::AggSpec;
using htap::ArchitectureKind;
using htap::Database;
using htap::DatabaseOptions;
using htap::EngineStats;
using htap::FreshnessInfo;
using htap::JoinClause;
using htap::PathHint;
using htap::Predicate;
using htap::QueryExecInfo;
using htap::QueryPlan;
using htap::QueryResult;
using htap::Row;
using htap::Value;
using htap::bench::ChConfig;

namespace {

// ---------------------------------------------------------------------------
// Work sizing. Counts depend only on --seconds, never on measured speed, so
// both sides of a comparison do identical work. The per-second constants
// make the measured phases of five repetitions last about --seconds in
// total on a 4-core host.
// ---------------------------------------------------------------------------

constexpr int kRepetitions = 5;  // run.py's REPETITIONS
constexpr int kClients = 2;
// Per repetition. oltp_disk runs half of oltp's transactions: its commits,
// merge and checks cost twice as much, and a run must stay well inside the
// time a benchmark run is allowed.
constexpr size_t kClosedTxnsPerClientPerSecond = 1200;
constexpr size_t kDiskTxnsPerClientPerSecond = 600;
constexpr size_t kOlapTailTxns = 3000;
constexpr size_t kOlapProbeTxnsPerSecond = 400;  // per repetition
constexpr double kOlapPassesPerSecond = 0.4;  // per repetition
constexpr int kPostRunQueryPasses = 3;
// tpmC of a closed loop is taken per window of this many transactions of
// one client: one deck of the mix (tpcc.cc), so a window holds 45 NewOrders.
// The median window rate is steady where the rate over the whole phase is
// not: one stall of 50-150 ms moves the whole-phase rate by several per cent.
constexpr size_t kWindowTxns = 100;
// The AP scan pool (parallel_scan_threads) has 2 threads on every workload,
// not one per core: on a 4-core host a 4-way scan waits for its slowest
// thread, and any other load stalls it (olap qph spread 0.24 over three
// seeds with 4 threads).
constexpr size_t kPoolThreads = 2;
// htap: one open-loop client, so the TP client, the two scan-pool threads
// and the merge thread fit on 4 cores. With 2 clients at 3000 txn/s each,
// a host slow phase raised NewOrder p50 from 0.2 to 2-5 ms.
constexpr int kHtapClients = 1;
constexpr size_t kHtapRatePerClient = 3000;  // txn/s
// The freshness sampler waits a seeded random 5-15 ms between samples, so
// its phase does not lock onto the 10 ms sync cadence. Denser sampling
// costs the transactions it watches: every 1-5 ms cut oltp's tpmC by
// 10-20 %.
constexpr int64_t kSampleMinNs = 5'000'000, kSampleMaxNs = 15'000'000;

ChConfig BenchScale(uint64_t seed) {
  ChConfig c;
  c.warehouses = 4;
  c.districts_per_warehouse = 10;
  c.customers_per_district = 300;
  c.items = 10000;
  c.initial_orders_per_district = 300;
  c.seed = seed;
  return c;
}

struct Spec {
  ArchitectureKind arch = ArchitectureKind::kRowPlusInMemoryColumn;
  bool background_sync = true;
  size_t pool = kPoolThreads;  // parallel_scan_threads
};

Spec SpecFor(const std::string& w) {
  Spec s;
  if (w == "oltp_disk") s.arch = ArchitectureKind::kDiskRowPlusDistributedColumn;
  if (w == "olap") s.background_sync = false;
  return s;
}

[[noreturn]] void Fatal(const std::string& what, const htap::Status& st) {
  std::fprintf(stderr, "htapbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

void Require(const std::string& what, const htap::Status& st) {
  if (!st.ok()) Fatal(what, st);
}

// ---------------------------------------------------------------------------
// Small statistics helpers.
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}
double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
double Mib(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Database lifetime.
// ---------------------------------------------------------------------------

/// An open database and its data directory, removed on destruction.
class DbHandle {
 public:
  DbHandle(const Spec& spec, const std::string& dir) : dir_(dir) {
    DatabaseOptions opts;  // bench_util.h MakeDb's settings, except below
    opts.architecture = spec.arch;
    // Only architecture (c) gets files (WAL and heap); the others keep the
    // WAL in memory, so oltp_disk is the one workload that touches the disk.
    // Its group commits flush the WAL file (fflush, no fsync), as MakeDb's
    // sync_on_commit does.
    if (spec.arch == ArchitectureKind::kDiskRowPlusDistributedColumn) {
      std::filesystem::create_directories(dir_);
      opts.data_dir = dir_;
      opts.sync_on_commit = true;
    }
    opts.background_sync = spec.background_sync;
    opts.sync_interval_micros = 10000;
    opts.parallel_scan_threads = spec.pool;
    auto res = Database::Open(opts);
    if (!res.ok()) Fatal("open", res.status());
    db_ = std::move(*res);
  }
  ~DbHandle() {
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  DbHandle(const DbHandle&) = delete;
  DbHandle& operator=(const DbHandle&) = delete;

  Database* db() { return db_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// Core rotation.
// ---------------------------------------------------------------------------

/// Pins the calling thread to each core it may run on in turn, so that the
/// speed of a thread that runs alone is its average over the host's cores,
/// not the speed of the one core the scheduler happened to keep it on. On a
/// shared 4-vCPU host, the same single-client loop ran 1.5x faster on one
/// vCPU than on another, so one repetition's speed depended on placement.
/// Used only where one benchmark thread runs alone; restores the thread's
/// affinity when destroyed.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cores_.push_back(c);
  }
  ~CoreRotation() {
    if (moved_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Moves the calling thread to the next core.
  void Next() {
    if (cores_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof(one), &one) == 0 || moved_;
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cores_;
  size_t next_ = 0;
  bool moved_ = false;
};

// ---------------------------------------------------------------------------
// Transactions: closed and open loop.
// ---------------------------------------------------------------------------

struct TpLog {
  TxnCounters counters;
  // Latency of each transaction, committed or failed, by type.
  std::array<std::vector<double>, kNumTxnTypes> type_ms;
  std::vector<double> late_ms;  // open loop: start minus due time
  // Closed loop: NewOrders committed per second in each window of
  // kWindowTxns transactions.
  std::vector<double> window_rates;

  void Merge(const TpLog& o) {
    counters.Merge(o.counters);
    for (int t = 0; t < kNumTxnTypes; ++t)
      type_ms[t].insert(type_ms[t].end(), o.type_ms[t].begin(),
                        o.type_ms[t].end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  }

  /// tpmC of this client: 60 x its median window rate.
  double Tpmc() const { return Median(window_rates) * 60; }
};

/// Runs `inputs` back to back; each is timed from its first attempt to its
/// final outcome, retries included. With `rotation`, each window runs on the
/// next core.
void ClosedLoop(Database* db, const std::vector<TxnInput>& inputs,
                uint64_t client, TpLog* log, CoreRotation* rotation = nullptr) {
  if (rotation != nullptr) rotation->Next();
  int64_t window_start = NowNanos();
  uint64_t window_new_orders = log->counters.new_orders;
  for (size_t i = 0; i < inputs.size(); ++i) {
    SetRequest((client << 32) | i);
    const int64_t t0 = NowNanos();
    ExecuteTxn(db, inputs[i], &log->counters);
    const int64_t t1 = NowNanos();
    log->type_ms[static_cast<size_t>(inputs[i].type)].push_back(
        static_cast<double>(t1 - t0) / 1e6);
    if ((i + 1) % kWindowTxns == 0) {
      log->window_rates.push_back(
          static_cast<double>(log->counters.new_orders - window_new_orders) /
          (static_cast<double>(t1 - window_start) / 1e9));
      if (rotation != nullptr) rotation->Next();
      window_start = NowNanos();
      window_new_orders = log->counters.new_orders;
    }
  }
  SetRequest(0);
}

/// Issues `inputs` on a fixed schedule from `start_ns`; each is timed from
/// its due time, so a stall also counts against the requests behind it.
void OpenLoop(Database* db, const std::vector<TxnInput>& inputs,
              uint64_t client, int64_t start_ns, int64_t period_ns,
              TpLog* log) {
  log->late_ms.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(i) * period_ns;
    const int64_t now = NowNanos();
    if (now < due)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    log->late_ms.push_back(static_cast<double>(NowNanos() - due) / 1e6);
    SetRequest((client << 32) | i);
    ExecuteTxn(db, inputs[i], &log->counters);
    const double ms = static_cast<double>(NowNanos() - due) / 1e6;
    log->type_ms[static_cast<size_t>(inputs[i].type)].push_back(ms);
  }
  SetRequest(0);
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

struct BenchQuery {
  std::string name;
  QueryPlan plan;   // run when `sql` is empty
  std::string sql;
  QueryPlan row_plan;  // the same query forced onto the row store
};

/// The three SQL chains as explicit join plans on the row store: the
/// reference their results are checked against.
QueryPlan RowPlanForChain(const std::string& name) {
  QueryPlan p;
  p.path = PathHint::kForceRow;
  if (name == "Q3") {  // orderline ⋈ orders ⋈ customer, c_balance < 0
    p.table = "orderline";
    p.joins = {JoinClause{"orders", Predicate::True(), 1, 0},
               JoinClause{"customer", Predicate::Lt(6, Value(0.0)), 10 + 4,
                          0}};
    p.group_by = {10 + 2};
    p.aggs = {AggSpec::Sum(8, "revenue")};
    p.order_by = 1;
    p.order_desc = true;
  } else if (name == "Q5") {  // stock ⋈ item ⋈ warehouse
    p.table = "stock";
    p.joins = {JoinClause{"item", Predicate::True(), 2, 0},
               JoinClause{"warehouse", Predicate::True(), 1, 0}};
    p.group_by = {6 + 3};
    p.aggs = {AggSpec::Sum(4, "volume")};
    p.order_by = 1;
    p.order_desc = true;
  } else {  // Q14: orderline ⋈ item (i_price > 50) ⋈ orders
    p.table = "orderline";
    p.joins = {JoinClause{"item", Predicate::Gt(2, Value(50.0)), 6, 0},
               JoinClause{"orders", Predicate::True(), 1, 0}};
    p.group_by = {10 + 3};
    p.aggs = {AggSpec::Sum(8, "revenue")};
    p.order_by = 1;
    p.order_desc = true;
  }
  return p;
}

/// The 12 ChQueries() plans, then the 3 SQL multi-join chains, in a fixed
/// order.
std::vector<BenchQuery> BenchQueries() {
  std::vector<BenchQuery> out;
  const auto ch = htap::bench::ChQueries();
  for (const auto& q : ch) {
    BenchQuery b;
    b.name = q.name;
    b.plan = q.plan;
    b.row_plan = q.plan;
    b.row_plan.path = PathHint::kForceRow;
    b.row_plan.limit = 0;  // ties at a LIMIT boundary may pick other rows
    out.push_back(std::move(b));
  }
  for (const auto& q : ch) {
    if (q.sql.empty()) continue;
    BenchQuery b;
    b.name = q.name + "_sql";
    b.sql = q.sql;
    b.row_plan = RowPlanForChain(q.name);
    out.push_back(std::move(b));
  }
  return out;
}

htap::Result<QueryResult> RunQuery(Database* db, const BenchQuery& q,
                                   QueryExecInfo* info) {
  Span s(SpanName::kQuery);
  if (!q.sql.empty()) {
    Span c(SpanName::kDbSql);
    return db->ExecuteSql(q.sql, info);
  }
  Span c(SpanName::kDbQuery);
  return db->Query(q.plan, info);
}

/// Canonical text of a result: rows sorted, doubles to 12 significant
/// digits (parallel aggregation may sum in another order).
std::vector<std::string> CanonicalRows(const QueryResult& r) {
  std::vector<std::string> rows;
  rows.reserve(r.rows.size());
  char buf[64];
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row.values()) {
      if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "%.12g", v.AsDouble());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

uint64_t ResultChecksum(const QueryResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& row : CanonicalRows(r)) h = Fnv(h, row);
  return h;
}

/// Per-query and per-layer accounting of one query stream.
struct ApLog {
  std::vector<std::vector<double>> ms;  // by query index
  uint64_t run = 0, failed = 0;
  std::vector<double> pass_s;  // wall time of each complete pass
  // exec / opt / core
  std::vector<double> join_ms, nonjoin_ms, qerrors;
  double join_ms_total = 0, query_ms_total = 0;
  uint64_t build_rows = 0, probe_rows = 0, late_rows = 0, join_batches = 0,
           spill_pages = 0, vectorized = 0, multi_join = 0, catalog_stats = 0;
  // columnar / delta
  uint64_t groups_total = 0, groups_skipped = 0, rows_considered = 0,
           main_rows = 0, delta_entries = 0, delta_rows = 0;

  explicit ApLog(size_t queries) : ms(queries) {}

  void Add(size_t qi, double q_ms, const QueryExecInfo& info) {
    ++run;
    ms[qi].push_back(q_ms);
    query_ms_total += q_ms;
    const double j_ms = info.join.seconds * 1e3;
    nonjoin_ms.push_back(q_ms - j_ms);
    if (!info.join_steps.empty()) {
      join_ms.push_back(j_ms);
      join_ms_total += j_ms;
      build_rows += info.join.build_rows;
      probe_rows += info.join.probe_rows;
      late_rows += info.join.rows_late_materialized;
      join_batches += info.join.join_batches;
      spill_pages += info.join.spill_pages_written + info.join.spill_pages_read;
    }
    if (info.join_steps.size() >= 2) {
      ++multi_join;
      if (info.join_used_catalog_stats) ++catalog_stats;
      for (size_t s = 0; s < info.join_est_rows.size() &&
                         s < info.join_actual_rows.size();
           ++s) {
        const double est = info.join_est_rows[s];
        const auto act = static_cast<double>(info.join_actual_rows[s]);
        if (est > 0 && act > 0) qerrors.push_back(std::max(est / act, act / est));
      }
    }
    if (info.vectorized) ++vectorized;
    groups_total += info.scan.groups_total;
    groups_skipped += info.scan.groups_skipped;
    rows_considered += info.scan.rows_considered;
    main_rows += info.scan.main_rows_emitted;
    delta_entries += info.scan.delta_entries_read;
    delta_rows += info.scan.delta_rows_emitted;
  }

  /// Queries per hour at the median pass: like tpmC's windows, steady where
  /// the rate over the whole stream is not.
  double Qph() const {
    return Ratio(static_cast<double>(ms.size()), Median(pass_s)) * 3600;
  }

  /// Geometric mean over queries of each query's median latency.
  double GeomeanMs() const {
    double log_sum = 0;
    size_t n = 0;
    for (const auto& v : ms) {
      if (v.empty()) continue;
      log_sum += std::log(std::max(Median(v), 1e-6));
      ++n;
    }
    return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
  }
};

/// One query stream: `passes` cycles over `queries`, or until `stop` when
/// passes < 0. When `checksums` is given, records each result's checksum by
/// pass, and `first` keeps the first pass's results. With `rotation`, each
/// pass starts on the next core.
void QueryStream(Database* db, const std::vector<BenchQuery>& queries,
                 int passes, const std::atomic<bool>* stop, ApLog* log,
                 std::vector<std::vector<uint64_t>>* checksums,
                 std::vector<QueryResult>* first,
                 CoreRotation* rotation = nullptr) {
  for (int p = 0; passes < 0 || p < passes; ++p) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    if (rotation != nullptr) rotation->Next();
    if (checksums != nullptr) checksums->emplace_back();
    const int64_t pass_start = NowNanos();
    size_t qi = 0;
    for (; qi < queries.size(); ++qi) {
      if (passes < 0 && stop->load(std::memory_order_acquire)) break;
      SetRequest((uint64_t{1} << 62) | (static_cast<uint64_t>(p) << 16) | qi);
      QueryExecInfo info;
      const int64_t q0 = NowNanos();
      auto res = RunQuery(db, queries[qi], &info);
      const double ms = static_cast<double>(NowNanos() - q0) / 1e6;
      if (!res.ok()) {
        ++log->run;
        ++log->failed;
        std::fprintf(stderr, "query %s failed: %s\n", queries[qi].name.c_str(),
                     res.status().ToString().c_str());
        continue;
      }
      log->Add(qi, ms, info);
      if (checksums != nullptr) checksums->back().push_back(ResultChecksum(*res));
      if (first != nullptr && p == 0) first->push_back(std::move(*res));
    }
    if (qi == queries.size())
      log->pass_s.push_back(static_cast<double>(NowNanos() - pass_start) / 1e9);
  }
}

// ---------------------------------------------------------------------------
// Freshness sampler (runs on the main thread).
// ---------------------------------------------------------------------------

struct SamplerLog {
  std::vector<double> lag_ms, csn_lag, pending, late_ms;
};

void SampleUntil(Database* db, const std::atomic<int>& running, uint64_t seed,
                 SamplerLog* log) {
  htap::Random rng(seed);
  int64_t next = NowNanos();
  while (running.load(std::memory_order_acquire) > 0) {
    const int64_t now = NowNanos();
    if (now < next) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(next - now, 1'000'000)));
      continue;
    }
    log->late_ms.push_back(static_cast<double>(now - next) / 1e6);
    FreshnessInfo f;
    {
      Span s(SpanName::kFreshness);
      f = db->Freshness("orderline");
    }
    log->lag_ms.push_back(static_cast<double>(f.time_lag_micros) / 1e3);
    log->csn_lag.push_back(static_cast<double>(f.csn_lag));
    log->pending.push_back(static_cast<double>(f.pending_delta_entries));
    next += kSampleMinNs + static_cast<int64_t>(rng.Uniform(
                               static_cast<uint64_t>(kSampleMaxNs - kSampleMinNs)));
    if (next < NowNanos()) next = NowNanos();  // skip missed ticks
  }
}

// ---------------------------------------------------------------------------
// Correctness checks.
// ---------------------------------------------------------------------------

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

/// Results equal as multisets of rows (doubles within 1e-9 relative).
bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  auto sorted = [](const QueryResult& r) {
    std::vector<const Row*> v;
    for (const Row& row : r.rows) v.push_back(&row);
    std::sort(v.begin(), v.end(), [](const Row* x, const Row* y) {
      return std::lexicographical_compare(
          x->values().begin(), x->values().end(), y->values().begin(),
          y->values().end());
    });
    return v;
  };
  const auto x = sorted(a), y = sorted(b);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i]->size() != y[i]->size()) return false;
    for (size_t c = 0; c < x[i]->size(); ++c)
      if (!SameValue(x[i]->Get(c), y[i]->Get(c))) return false;
  }
  return true;
}

/// `got` is a correct answer to `plan` given `full`, the same query without
/// its LIMIT: equal results, or for a LIMIT query, `got` holds `limit` rows
/// of `full` whose ORDER BY values are the top ones of `full`.
bool SameTopK(const QueryResult& got, const QueryResult& full,
              const QueryPlan& plan) {
  if (plan.limit == 0 || full.rows.size() <= plan.limit)
    return SameResult(got, full);
  if (got.rows.size() != plan.limit || plan.order_by < 0) return false;
  const auto col = static_cast<size_t>(plan.order_by);
  std::vector<Value> want, have;
  for (const Row& r : full.rows) want.push_back(r.Get(col));
  std::sort(want.begin(), want.end());
  if (plan.order_desc) std::reverse(want.begin(), want.end());
  want.resize(plan.limit);
  for (const Row& r : got.rows) {
    if (std::find(full.rows.begin(), full.rows.end(), r) == full.rows.end())
      return false;
    have.push_back(r.Get(col));
  }
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  return want == have;
}

/// Runs `plan` through the column path and on the row store; records a
/// failure unless both succeed and agree. Returns the row-store result.
QueryResult ColumnAndRow(Database* db, QueryPlan plan, const std::string& what,
                         std::vector<std::string>* failures) {
  // Architecture (c) starts with every column in its IMCS, and nothing in
  // the benchmark narrows the selection, so the column path must succeed.
  plan.path = PathHint::kForceColumn;
  auto col = db->Query(plan);
  plan.path = PathHint::kForceRow;
  auto row = db->Query(plan);
  if (!col.ok() || !row.ok()) {
    failures->push_back(what + ": query failed: " +
                        (col.ok() ? row.status() : col.status()).ToString());
    return QueryResult{};
  }
  if (!SameResult(*col, *row))
    failures->push_back(what + ": column path and row store disagree");
  return std::move(*row);
}

/// The TPC-C consistency conditions, each read through both paths.
void CheckConsistency(Database* db, std::vector<std::string>* failures) {
  // 1. w_ytd = sum(d_ytd) per warehouse.
  QueryPlan wh;
  wh.table = "warehouse";
  wh.projection = {0, 3};
  QueryPlan dy;
  dy.table = "district";
  dy.group_by = {1};
  dy.aggs = {AggSpec::Sum(4, "d_ytd")};
  const QueryResult w = ColumnAndRow(db, wh, "w_ytd", failures);
  const QueryResult d = ColumnAndRow(db, dy, "sum(d_ytd)", failures);
  std::map<int64_t, double> w_ytd, d_ytd;
  for (const Row& r : w.rows) w_ytd[r.Get(0).AsInt64()] = r.Get(1).AsDouble();
  for (const Row& r : d.rows) d_ytd[r.Get(0).AsInt64()] = r.Get(1).AsDouble();
  bool ok = !w_ytd.empty() && w_ytd.size() == d_ytd.size();
  for (const auto& [id, ytd] : w_ytd)
    ok = ok && d_ytd.count(id) && SameValue(Value(ytd), Value(d_ytd[id]));
  if (!ok) failures->push_back("w_ytd != sum(d_ytd) for some warehouse");

  // 2. d_next_o_id - 1 = max(o_id) per district.
  QueryPlan dn;
  dn.table = "district";
  dn.projection = {1, 2, 5};
  QueryPlan mo;
  mo.table = "orders";
  mo.group_by = {1, 2};
  mo.aggs = {AggSpec::Max(3, "max_o_id")};
  const QueryResult next = ColumnAndRow(db, dn, "d_next_o_id", failures);
  const QueryResult maxo = ColumnAndRow(db, mo, "max(o_id)", failures);
  std::map<std::pair<int64_t, int64_t>, int64_t> want, got;
  for (const Row& r : next.rows)
    want[{r.Get(0).AsInt64(), r.Get(1).AsInt64()}] = r.Get(2).AsInt64() - 1;
  for (const Row& r : maxo.rows)
    got[{r.Get(0).AsInt64(), r.Get(1).AsInt64()}] = r.Get(2).AsInt64();
  if (want.empty() || want != got)
    failures->push_back("d_next_o_id - 1 != max(o_id) for some district");

  // 3. count(orderline) = sum(o_ol_cnt).
  QueryPlan cnt;
  cnt.table = "orderline";
  cnt.aggs = {AggSpec::Count("n")};
  QueryPlan sum;
  sum.table = "orders";
  sum.aggs = {AggSpec::Sum(7, "lines")};
  const QueryResult c = ColumnAndRow(db, cnt, "count(orderline)", failures);
  const QueryResult s = ColumnAndRow(db, sum, "sum(o_ol_cnt)", failures);
  if (c.rows.size() != 1 || s.rows.size() != 1 ||
      c.rows[0].Get(0).AsDouble() != s.rows[0].Get(0).AsDouble())
    failures->push_back("count(orderline) != sum(o_ol_cnt)");
}

/// Logical bytes of live user data: 8 bytes per value, over every table.
double UserBytes(Database* db) {
  static const std::pair<const char*, int> kTables[] = {
      {"warehouse", 4}, {"district", 6}, {"customer", 9}, {"item", 4},
      {"stock", 6},     {"orders", 8},   {"orderline", 10}};
  double bytes = 0;
  for (const auto& [table, cols] : kTables) {
    QueryPlan p;
    p.table = table;
    p.aggs = {AggSpec::Count("n")};
    auto r = db->Query(p);
    if (r.ok() && r->rows.size() == 1)
      bytes += r->rows[0].Get(0).AsDouble() * cols * 8;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct SetupLog {
  double seconds = 0;
  TpLog tail;  // olap's fixed delta tail
};

/// Creates, loads and merges a database (and, for olap, commits the fixed
/// tail with background sync off). Timed as one set-up.
std::unique_ptr<DbHandle> SetupOnce(const Spec& spec, const ChConfig& cfg,
                                    const std::string& dir,
                                    const std::vector<TxnInput>* tail,
                                    SetupLog* log) {
  const int64_t t0 = NowNanos();
  auto h = std::make_unique<DbHandle>(spec, dir);
  Require("create tables", htap::bench::CreateChTables(h->db()));
  Require("load", htap::bench::LoadChData(h->db(), cfg));
  Require("initial merge", h->db()->ForceSyncAll());
  if (tail != nullptr) {
    CoreRotation rotation;  // the tail runs alone; its age is olap's freshness
    ClosedLoop(h->db(), *tail, /*client=*/0, &log->tail, &rotation);
  }
  log->seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  return h;
}

// ---------------------------------------------------------------------------
// Metric assembly.
// ---------------------------------------------------------------------------

void Add(std::vector<Metric>* m, const std::string& name, double value,
         const std::string& unit, uint64_t samples) {
  m->push_back(Metric{name, value, unit, samples});
}

struct Observed {
  SetupLog setup;
  TpLog tp;  // the measured transactions (olap: the probe)
  double tpmc = 0;
  // freshness_lag_p50_ms: the sampler's median, or on olap, whose delta is
  // frozen, the one sample taken when the stream starts.
  double freshness_lag_ms = 0;
  uint64_t freshness_samples = 0;
  ApLog ap{0};
  SamplerLog sampler;
  EngineStats before, after;  // around the measured phase
  double force_merge_ms = 0;
  double user_bytes = 0;
  std::vector<double> gen_late_ms;  // the workload's scheduled loop
};

void EndToEnd(const Observed& o, PassResult* out) {
  auto& m = out->end_to_end;
  const auto n = [](const std::vector<double>& v) { return uint64_t{v.size()}; };
  Add(&m, "setup_s", o.setup.seconds, "s", 1);
  Add(&m, "tpmc", o.tpmc, "NewOrder/min", o.tp.counters.new_orders);
  // NewOrder, the transaction tpmC counts: over the whole mix the median
  // falls on the edge between the fast Payment/OrderStatus half and the slow
  // NewOrder half, and swings with it.
  const auto& no = o.tp.type_ms[static_cast<size_t>(TxnType::kNewOrder)];
  Add(&m, "txn_p50_ms", Quantile(no, 0.5), "ms", n(no));
  Add(&m, "qph", o.ap.Qph(), "queries/h", o.ap.run);
  Add(&m, "query_geomean_ms", o.ap.GeomeanMs(), "ms", o.ap.run);
  Add(&m, "freshness_lag_p50_ms", o.freshness_lag_ms, "ms",
      o.freshness_samples);
  Add(&m, "peak_rss_mb", PeakRssMib(), "MiB", 1);
}

void PerLayer(const Observed& o, const std::vector<BenchQuery>& queries,
              PassResult* out) {
  auto& m = out->per_layer;
  const SpanSummary s = Summarize(Tracer::Get());
  const auto span = [&](SpanName n) -> const std::vector<double>& {
    return s.durations_us[static_cast<size_t>(n)];
  };
  const auto total = [&](SpanName n) { return s.total_us[static_cast<size_t>(n)]; };
  const auto count = [&](SpanName n) {
    return static_cast<double>(span(n).size());
  };
  const auto sz = [](const std::vector<double>& v) { return uint64_t{v.size()}; };
  const TxnCounters& c = o.tp.counters;
  const double traced_txns = count(SpanName::kTpRequest);

  std::printf("%-18s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (size_t n = 0; n < s.durations_us.size(); ++n)
    std::printf("%-18s %10zu %12.3f %12.3f\n",
                SpanNameString(static_cast<SpanName>(n)),
                s.durations_us[n].size(), s.total_us[n] / 1e3,
                s.self_us[n] / 1e3);
  for (const auto& [us, by_name] : s.slowest) {
    std::printf("slow transaction %.3f ms, self time by call:", us / 1e3);
    for (size_t n = 0; n < by_name.size(); ++n)
      if (by_name[n] >= 1.0)
        std::printf(" %s %.3f", SpanNameString(static_cast<SpanName>(n)),
                    by_name[n] / 1e3);
    std::printf("\n");
  }

  // txn
  Add(&m, "txn.begin_us_p50", Median(span(SpanName::kBegin)), "us",
      sz(span(SpanName::kBegin)));
  Add(&m, "txn.commit_us_p50", Quantile(span(SpanName::kCommit), 0.5), "us",
      sz(span(SpanName::kCommit)));
  Add(&m, "txn.commit_us_p99", Quantile(span(SpanName::kCommit), 0.99), "us",
      sz(span(SpanName::kCommit)));
  Add(&m, "txn.commit_us_max", s.max_us[static_cast<size_t>(SpanName::kCommit)],
      "us", sz(span(SpanName::kCommit)));
  Add(&m, "txn.commit_share",
      Ratio(total(SpanName::kCommit), total(SpanName::kTpRequest)), "ratio",
      sz(span(SpanName::kTpRequest)));
  Add(&m, "txn.attempts_per_commit",
      Ratio(static_cast<double>(c.attempts), static_cast<double>(c.committed)),
      "ratio", c.attempts);
  Add(&m, "txn.abort_at_read", static_cast<double>(c.aborts_at[0]), "count",
      c.attempts);
  Add(&m, "txn.abort_at_write", static_cast<double>(c.aborts_at[1]), "count",
      c.attempts);
  Add(&m, "txn.abort_at_commit", static_cast<double>(c.aborts_at[2]), "count",
      c.attempts);
  Add(&m, "txn.failed", static_cast<double>(c.failed), "count", c.requests);
  Add(&m, "txn.conflicts",
      static_cast<double>(o.after.conflicts - o.before.conflicts), "count",
      c.attempts);
  for (int t = 0; t < kNumTxnTypes; ++t) {
    const std::string name = TxnTypeName(static_cast<TxnType>(t));
    Add(&m, "txn." + name + "_ms_p50", Quantile(o.tp.type_ms[t], 0.5), "ms",
        sz(o.tp.type_ms[t]));
    Add(&m, "txn." + name + "_ms_p99", Quantile(o.tp.type_ms[t], 0.99), "ms",
        sz(o.tp.type_ms[t]));
  }

  // storage, index
  std::vector<double> writes = span(SpanName::kInsert);
  writes.insert(writes.end(), span(SpanName::kUpdate).begin(),
                span(SpanName::kUpdate).end());
  Add(&m, "storage.get_us_p50", Quantile(span(SpanName::kGet), 0.5), "us",
      sz(span(SpanName::kGet)));
  Add(&m, "storage.get_us_p99", Quantile(span(SpanName::kGet), 0.99), "us",
      sz(span(SpanName::kGet)));
  Add(&m, "storage.gets_per_txn", Ratio(count(SpanName::kGet), traced_txns),
      "ratio", sz(span(SpanName::kTpRequest)));
  Add(&m, "storage.write_us_p50", Quantile(writes, 0.5), "us", sz(writes));
  Add(&m, "storage.write_us_p99", Quantile(writes, 0.99), "us", sz(writes));
  Add(&m, "storage.writes_per_txn",
      Ratio(static_cast<double>(writes.size()), traced_txns), "ratio",
      sz(span(SpanName::kTpRequest)));
  Add(&m, "storage.row_store_mb", Mib(o.after.row_store_bytes), "MiB", 1);
  Add(&m, "storage.row_bytes_per_user_byte",
      Ratio(static_cast<double>(o.after.row_store_bytes), o.user_bytes),
      "ratio", 1);
  const uint64_t bp = o.after.buffer_pool_hits + o.after.buffer_pool_misses;
  // No buffer pool (architecture (a)) means no misses: reported as 1.
  Add(&m, "storage.bp_hit_ratio",
      bp == 0 ? 1.0
              : Ratio(static_cast<double>(o.after.buffer_pool_hits),
                      static_cast<double>(bp)),
      "ratio", bp);

  // delta
  const ApLog& ap = o.ap;
  const double qs = static_cast<double>(ap.run - ap.failed);
  Add(&m, "delta.mb", Mib(o.after.delta_bytes), "MiB", 1);
  Add(&m, "delta.pending_entries_p50", Quantile(o.sampler.pending, 0.5),
      "count", sz(o.sampler.pending));
  Add(&m, "delta.pending_entries_max", MaxOf(o.sampler.pending), "count",
      sz(o.sampler.pending));
  Add(&m, "delta.entries_read_per_query",
      Ratio(static_cast<double>(ap.delta_entries), qs), "count", ap.run);
  Add(&m, "delta.rows_emitted_per_query",
      Ratio(static_cast<double>(ap.delta_rows), qs), "count", ap.run);

  // sync
  const double merges = static_cast<double>(o.after.merges - o.before.merges);
  const double merged =
      static_cast<double>(o.after.entries_merged - o.before.entries_merged);
  Add(&m, "sync.merges", merges, "count", 1);
  Add(&m, "sync.entries_merged", merged, "count", 1);
  Add(&m, "sync.entries_per_merge", Ratio(merged, merges), "count", 1);
  Add(&m, "sync.csn_lag_p50", Quantile(o.sampler.csn_lag, 0.5), "count",
      sz(o.sampler.csn_lag));
  Add(&m, "sync.freshness_lag_p99_ms", Quantile(o.sampler.lag_ms, 0.99), "ms",
      sz(o.sampler.lag_ms));
  Add(&m, "sync.force_merge_ms", o.force_merge_ms, "ms", 1);

  // columnar
  Add(&m, "columnar.mb", Mib(o.after.column_store_bytes), "MiB", 1);
  for (size_t e = 0; e < htap::kNumEncodings; ++e)
    Add(&m,
        std::string("columnar.encoding_mb.") +
            htap::EncodingName(static_cast<htap::EncodingType>(e)),
        Mib(o.after.column_encodings.bytes[e]), "MiB",
        o.after.column_encodings.segments[e]);
  Add(&m, "columnar.zone_skip_ratio",
      Ratio(static_cast<double>(ap.groups_skipped),
            static_cast<double>(ap.groups_total)),
      "ratio", ap.groups_total);
  Add(&m, "columnar.rows_considered_per_query",
      Ratio(static_cast<double>(ap.rows_considered), qs), "count", ap.run);
  Add(&m, "columnar.selectivity",
      Ratio(static_cast<double>(ap.main_rows),
            static_cast<double>(ap.rows_considered)),
      "ratio", ap.rows_considered);

  // exec
  Add(&m, "exec.join_ms_p50", Median(ap.join_ms), "ms", sz(ap.join_ms));
  Add(&m, "exec.join_share", Ratio(ap.join_ms_total, ap.query_ms_total),
      "ratio", ap.run);
  const double jq = static_cast<double>(ap.join_ms.size());
  Add(&m, "exec.build_rows", Ratio(static_cast<double>(ap.build_rows), jq),
      "count", sz(ap.join_ms));
  Add(&m, "exec.probe_rows", Ratio(static_cast<double>(ap.probe_rows), jq),
      "count", sz(ap.join_ms));
  Add(&m, "exec.late_rows", Ratio(static_cast<double>(ap.late_rows), jq),
      "count", sz(ap.join_ms));
  Add(&m, "exec.join_batches", Ratio(static_cast<double>(ap.join_batches), jq),
      "count", sz(ap.join_ms));
  Add(&m, "exec.spill_pages", static_cast<double>(ap.spill_pages), "count",
      sz(ap.join_ms));
  Add(&m, "exec.vectorized_share", Ratio(static_cast<double>(ap.vectorized), qs),
      "ratio", ap.run);

  // opt, sql
  double log_q = 0;
  for (double q : ap.qerrors) log_q += std::log(q);
  Add(&m, "opt.join_qerror_geomean",
      ap.qerrors.empty() ? 0 : std::exp(log_q / static_cast<double>(ap.qerrors.size())),
      "ratio", sz(ap.qerrors));
  Add(&m, "opt.catalog_stats_share",
      Ratio(static_cast<double>(ap.catalog_stats),
            static_cast<double>(ap.multi_join)),
      "ratio", ap.multi_join);

  // core
  Add(&m, "core.nonjoin_ms", Median(ap.nonjoin_ms), "ms", sz(ap.nonjoin_ms));
  for (size_t qi = 0; qi < queries.size(); ++qi)
    Add(&m, "query." + queries[qi].name + "_ms", Median(ap.ms[qi]), "ms",
        sz(ap.ms[qi]));

  // benchmark
  Add(&m, "bench.gen_late_p99_ms", Quantile(o.gen_late_ms, 0.99), "ms",
      sz(o.gen_late_ms));
  Add(&m, "bench.gen_late_max_ms", MaxOf(o.gen_late_ms), "ms",
      sz(o.gen_late_ms));
}

/// The generated inputs of one repetition.
struct Inputs {
  std::vector<std::vector<TxnInput>> clients;
  std::vector<TxnInput> tail;   // olap: the fixed delta
  std::vector<TxnInput> probe;  // olap: timed after the stream
};

Inputs GenerateAll(const RunOptions& opt, const ChConfig& cfg) {
  const auto secs = static_cast<size_t>(opt.seconds);
  Inputs in;
  if (opt.workload == "olap") {
    in.probe = GenerateInputs(cfg, opt.seed, /*client=*/0, /*clients=*/1,
                              kOlapTailTxns + kOlapProbeTxnsPerSecond * secs);
    const auto split = in.probe.begin() + kOlapTailTxns;
    in.tail.assign(in.probe.begin(), split);
    in.probe.erase(in.probe.begin(), split);
    return in;
  }
  size_t per_client = kClosedTxnsPerClientPerSecond * secs;
  int clients = kClients;
  if (opt.workload == "oltp_disk") per_client = kDiskTxnsPerClientPerSecond * secs;
  if (opt.workload == "htap") {
    per_client = std::max<size_t>(1, kHtapRatePerClient * secs / kRepetitions);
    clients = kHtapClients;
  }
  for (int c = 0; c < clients; ++c)
    in.clients.push_back(GenerateInputs(cfg, opt.seed, c, clients, per_client));
  return in;
}

double TimedForceSync(Database* db) {
  Span s(SpanName::kForceSync);
  const int64_t t0 = NowNanos();
  Require("force sync", db->ForceSyncAll());
  return static_cast<double>(NowNanos() - t0) / 1e6;
}

/// olap's checks: every pass returned what the first did, and the first
/// pass matches the row store. Sets the combined result checksum.
void CheckOlapResults(Database* db, const std::vector<BenchQuery>& queries,
                      const std::vector<std::vector<uint64_t>>& sums,
                      const std::vector<QueryResult>& first,
                      const std::string& expect, PassResult* out) {
  if (first.size() != queries.size() || sums.empty() ||
      sums[0].size() != queries.size()) {
    out->check_failures.push_back("olap: a query failed");
    return;
  }
  uint64_t combined = 0xcbf29ce484222325ULL;
  char hex[17];
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const auto& pass : sums)
      if (pass.size() != sums[0].size() || pass[qi] != sums[0][qi])
        out->check_failures.push_back(queries[qi].name +
                                      ": result changed between passes");
    auto row = db->Query(queries[qi].row_plan);
    if (!row.ok() || !SameTopK(first[qi], *row, queries[qi].plan))
      out->check_failures.push_back(queries[qi].name +
                                    ": differs from the row-store result");
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(sums[0][qi]));
    combined = Fnv(combined, hex);
  }
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(combined));
  out->checksum = hex;
  if (!expect.empty() && expect != out->checksum)
    out->check_failures.push_back("olap checksum " + out->checksum +
                                  " != expected " + expect);
}

/// olap: the query stream over the frozen delta and its checks, then the
/// timed merge of the tail, then the TP probe from one client with sync
/// still off, which gives olap's TP metrics.
void MeasureOlap(Database* db, const RunOptions& opt,
                 const std::vector<BenchQuery>& queries, const Inputs& inputs,
                 Observed* o, PassResult* out) {
  const int passes = std::max(
      1, static_cast<int>(std::lround(kOlapPassesPerSecond * opt.seconds)));
  {
    // Sync is off, so the lag only grows from here; sampled during the
    // stream it would measure how long the stream has run.
    Span s(SpanName::kFreshness);
    o->freshness_lag_ms =
        static_cast<double>(db->Freshness("orderline").time_lag_micros) / 1e3;
    o->freshness_samples = 1;
  }
  std::vector<std::vector<uint64_t>> sums;
  std::vector<QueryResult> first;
  std::atomic<int> running{1};
  ApLog ap(queries.size());
  std::thread stream([&] {
    CoreRotation rotation;  // the stream runs alone
    QueryStream(db, queries, passes, nullptr, &ap, &sums, &first, &rotation);
    running.store(0, std::memory_order_release);
  });
  SampleUntil(db, running, opt.seed, &o->sampler);
  stream.join();
  o->ap = std::move(ap);
  o->after = db->Stats();
  o->gen_late_ms = o->sampler.late_ms;
  CheckOlapResults(db, queries, sums, first, opt.expect_checksum, out);

  o->force_merge_ms = TimedForceSync(db);
  CoreRotation rotation;  // the probe runs alone
  ClosedLoop(db, inputs.probe, /*client=*/1, &o->tp, &rotation);
  o->tpmc = o->tp.Tpmc();
}

/// oltp and oltp_disk (closed loop, then a merge and query passes over the
/// state the transactions left) and htap (open loop beside a query stream).
void MeasureTp(Database* db, const RunOptions& opt,
               const std::vector<BenchQuery>& queries, const Inputs& inputs,
               Observed* o) {
  const bool closed = opt.workload != "htap";
  const int clients = static_cast<int>(inputs.clients.size());
  std::atomic<int> running{clients};
  std::atomic<bool> tp_done{false};
  std::vector<TpLog> logs(static_cast<size_t>(clients));
  ApLog ap(queries.size());
  const auto period_ns =
      static_cast<int64_t>(1e9 / static_cast<double>(kHtapRatePerClient));
  const int64_t start = NowNanos();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const auto id = static_cast<uint64_t>(c);
      if (closed)
        ClosedLoop(db, inputs.clients[c], id, &logs[c]);
      else
        OpenLoop(db, inputs.clients[c], id, start + c * period_ns / clients,
                 period_ns, &logs[c]);
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  std::thread stream;
  if (!closed)
    stream = std::thread(
        [&] { QueryStream(db, queries, -1, &tp_done, &ap, nullptr, nullptr); });
  SampleUntil(db, running, opt.seed, &o->sampler);
  for (auto& t : threads) t.join();
  const double tp_wall = static_cast<double>(NowNanos() - start) / 1e9;
  tp_done.store(true, std::memory_order_release);
  if (stream.joinable()) stream.join();
  o->after = db->Stats();
  for (const TpLog& l : logs) {
    o->tp.Merge(l);
    if (closed) o->tpmc += l.Tpmc();
  }
  // Open loop: the committed rate, which the offered rate sets.
  if (!closed)
    o->tpmc = Ratio(static_cast<double>(o->tp.counters.new_orders), tp_wall) * 60;
  o->freshness_lag_ms = Median(o->sampler.lag_ms);
  o->freshness_samples = o->sampler.lag_ms.size();
  o->gen_late_ms = closed ? o->sampler.late_ms : o->tp.late_ms;

  o->force_merge_ms = TimedForceSync(db);
  if (closed) {
    CoreRotation rotation;  // the passes run alone
    QueryStream(db, queries, kPostRunQueryPasses, nullptr, &ap, nullptr,
                nullptr, &rotation);
  }
  o->ap = std::move(ap);
}

void PrintTxnSummary(const TxnCounters& c) {
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf("txn: %llu requests, %llu attempts, %llu committed, %llu failed;"
              " aborts at read/write/commit %llu/%llu/%llu; abort codes",
              u(c.requests), u(c.attempts), u(c.committed), u(c.failed),
              u(c.aborts_at[0]), u(c.aborts_at[1]), u(c.aborts_at[2]));
  for (int code = 0; code < kNumStatusCodes; ++code)
    if (c.abort_codes[code] != 0)
      std::printf(" %s=%llu", StatusCodeName(code), u(c.abort_codes[code]));
  std::printf("\n");
}

}  // namespace

bool IsWorkload(const std::string& w) {
  return w == "oltp" || w == "olap" || w == "htap" || w == "oltp_disk";
}

PassResult RunPass(const RunOptions& opt) {
  const ChConfig cfg = BenchScale(opt.seed);
  const std::vector<BenchQuery> queries = BenchQueries();
  const bool olap = opt.workload == "olap";
  const Inputs inputs = GenerateAll(opt, cfg);  // before anything is timed

  Observed o;
  PassResult out;
  const auto h =
      SetupOnce(SpecFor(opt.workload), cfg,
                opt.out_dir + "/db-" + std::to_string(getpid()),
                olap ? &inputs.tail : nullptr, &o.setup);
  Database* db = h->db();
  o.before = db->Stats();
  const int64_t measure_start = NowNanos();
  if (olap)
    MeasureOlap(db, opt, queries, inputs, &o, &out);
  else
    MeasureTp(db, opt, queries, inputs, &o);
  const int64_t checks_start = NowNanos();
  CheckConsistency(db, &out.check_failures);
  std::printf("phases: setup %.2f s, measured %.2f s, consistency checks %.2f s\n",
              o.setup.seconds,
              static_cast<double>(checks_start - measure_start) / 1e9,
              static_cast<double>(NowNanos() - checks_start) / 1e9);
  PrintTxnSummary(o.tp.counters);

  out.attempted =
      o.setup.tail.counters.requests + o.tp.counters.requests + o.ap.run;
  out.failed = o.setup.tail.counters.failed + o.tp.counters.failed + o.ap.failed;
  EndToEnd(o, &out);
  if (opt.traced) {
    o.user_bytes = UserBytes(db);
    PerLayer(o, queries, &out);
  }
  return out;
}

}  // namespace htapbench
