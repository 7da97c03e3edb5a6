#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace htapbench {

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kTpRequest: return "tp.request";
    case SpanName::kTpAttempt: return "tp.attempt";
    case SpanName::kBegin: return "db.begin";
    case SpanName::kGet: return "txn.get";
    case SpanName::kInsert: return "txn.insert";
    case SpanName::kUpdate: return "txn.update";
    case SpanName::kCommit: return "txn.commit";
    case SpanName::kAbort: return "txn.abort";
    case SpanName::kQuery: return "ap.query";
    case SpanName::kDbQuery: return "db.query";
    case SpanName::kDbSql: return "db.execute_sql";
    case SpanName::kForceSync: return "db.force_sync_all";
    case SpanName::kFreshness: return "db.freshness";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanSummary Summarize(const Tracer& tracer) {
  constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
  constexpr size_t kSlowest = 5;
  SpanSummary s;
  s.durations_us.resize(kNames);
  s.total_us.assign(kNames, 0);
  s.self_us.assign(kNames, 0);
  s.max_us.assign(kNames, 0);
  for (const auto& buf : tracer.buffers()) {
    std::vector<double> child_us(buf->spans.size(), 0);
    for (const SpanRecord& r : buf->spans)
      if (r.parent >= 0)
        child_us[static_cast<size_t>(r.parent)] +=
            static_cast<double>(r.end_ns - r.start_ns) / 1e3;
    std::vector<double> by_name;  // of the transaction being walked
    size_t root = 0;
    const auto close_root = [&] {
      if (by_name.empty()) return;
      const SpanRecord& r = buf->spans[root];
      s.slowest.emplace_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                             by_name);
      by_name.clear();
    };
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& r = buf->spans[i];
      const auto n = static_cast<size_t>(r.name);
      const double us = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      s.max_us[n] = std::max(s.max_us[n], us);
      if (r.parent < 0) {
        close_root();
        if (r.name == SpanName::kTpRequest) {
          root = i;
          by_name.assign(kNames, 0);
        }
      } else if (!by_name.empty()) {
        by_name[n] += us - child_us[i];
      }
      s.durations_us[n].push_back(us);
      s.total_us[n] += us;
      s.self_us[n] += us - child_us[i];
    }
    close_root();
  }
  std::sort(s.slowest.begin(), s.slowest.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (s.slowest.size() > kSlowest) s.slowest.resize(kSlowest);
  return s;
}

bool WriteSpans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,request,name,start_ns,end_ns\n");
  size_t thread = 0;
  for (const auto& buf : tracer.buffers()) {
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& r = buf->spans[i];
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%lld,%lld\n", thread, i, r.parent,
                   static_cast<unsigned long long>(r.request),
                   SpanNameString(r.name), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
    ++thread;
  }
  return std::fclose(f) == 0;
}

}  // namespace htapbench
