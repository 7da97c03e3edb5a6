// Shared declarations of the htapbench program: one pass of one workload,
// and the metrics it yields.

#ifndef HTAPBENCH_BENCH_H_
#define HTAPBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace htapbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// Record spans and report per-layer metrics instead of end-to-end ones.
  bool traced = false;
  /// When set, the olap result checksum must equal this (hex).
  std::string expect_checksum;
  /// Scratch directory for data files and the span dump.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value
};

struct PassResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced passes only
  uint64_t attempted = 0;         // transactions + queries
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::string checksum;  // olap: combined result checksum, hex
};

bool IsWorkload(const std::string& name);

/// Runs one pass of `opt.workload`. Exits the process with an error message
/// when the database cannot be set up.
PassResult RunPass(const RunOptions& opt);

}  // namespace htapbench

#endif  // HTAPBENCH_BENCH_H_
