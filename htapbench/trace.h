// Spans recorded by the benchmark around its calls into htap::Database.
//
// A span has a name, a start and end time, the span that caused it and the
// request it belongs to. Each thread appends to its own buffer, so recording
// takes no lock; buffers are read only after every worker has joined. When
// tracing is off a Span costs one branch. Every span is kept.

#ifndef HTAPBENCH_TRACE_H_
#define HTAPBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace htapbench {

/// Span names. Kept as an enum so a record is small and fixed-size.
enum class SpanName : uint8_t {
  kTpRequest,   // one transaction: first attempt to final outcome
  kTpAttempt,   // one attempt of it
  kBegin,       // Database::Begin
  kGet,         // DbTxn::Get
  kInsert,      // DbTxn::Insert
  kUpdate,      // DbTxn::Update
  kCommit,      // DbTxn::Commit
  kAbort,       // DbTxn::Abort
  kQuery,       // one analytical query, plan or SQL
  kDbQuery,     // Database::Query
  kDbSql,       // Database::ExecuteSql
  kForceSync,   // Database::ForceSyncAll
  kFreshness,   // Database::Freshness
  kCount,
};

const char* SpanNameString(SpanName n);

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index in the same thread's buffer; -1 = root
  SpanName name = SpanName::kCount;
};

/// Per-thread span buffer.
struct SpanBuffer {
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  // stack of open span indexes
  uint64_t request = 0;       // request id of spans opened now
};

/// Process-wide recorder. Enable before any worker starts.
class Tracer {
 public:
  static Tracer& Get() {
    static Tracer t;
    return t;
  }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// This thread's buffer, registered on first use.
  SpanBuffer* Local() {
    thread_local SpanBuffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<SpanBuffer>());
      buf = buffers_.back().get();
    }
    return buf;
  }

  /// All buffers. Call only after the recording threads have joined.
  const std::vector<std::unique_ptr<SpanBuffer>>& buffers() const {
    return buffers_;
  }
 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Sets the request id for the spans this thread opens next.
inline void SetRequest(uint64_t request) {
  if (!Tracer::Get().enabled()) return;
  Tracer::Get().Local()->request = request;
}

/// RAII span: recorded from construction to destruction.
class Span {
 public:
  explicit Span(SpanName name) {
    if (!Tracer::Get().enabled()) return;
    buf_ = Tracer::Get().Local();
    SpanRecord r;
    r.name = name;
    r.request = buf_->request;
    r.parent = buf_->open.empty() ? -1 : buf_->open.back();
    index_ = static_cast<int32_t>(buf_->spans.size());
    buf_->open.push_back(index_);
    r.start_ns = NowNanos();
    buf_->spans.push_back(r);
  }
  ~Span() {
    if (buf_ == nullptr) return;
    buf_->spans[static_cast<size_t>(index_)].end_ns = NowNanos();
    buf_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuffer* buf_ = nullptr;
  int32_t index_ = -1;
};

/// Per-name durations, totals and maximums over every span. Self time is a span's duration minus the
/// part its direct children cover (children never overlap: each thread runs
/// one call at a time).
struct SpanSummary {
  std::vector<std::vector<double>> durations_us;  // by SpanName
  std::vector<double> total_us;
  std::vector<double> self_us;
  std::vector<double> max_us;
  /// The slowest root spans of transactions: (duration, breakdown of
  /// its time by call name), slowest first.
  std::vector<std::pair<double, std::vector<double>>> slowest;
};

SpanSummary Summarize(const Tracer& tracer);

/// Writes every span as CSV (thread,index,parent,request,name,start_ns,
/// end_ns). Returns false when the file cannot be written.
bool WriteSpans(const Tracer& tracer, const std::string& path);

}  // namespace htapbench

#endif  // HTAPBENCH_TRACE_H_
