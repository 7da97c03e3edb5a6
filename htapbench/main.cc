// htapbench: the repository benchmark's program.
//
//   htapbench --workload oltp|olap|htap|oltp_disk --seed N --seconds S
//             --trace 0|1 [--expect-checksum HEX]
//
// Runs one repetition of a workload. Prints one "metric <name> = <value>
// <unit> (n=<samples>)" line per metric, the outcome of every correctness
// check, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
// --trace 1 records spans, writes them to .bench_out/spans-<workload>.csv and
// reports the end-to-end and per-layer metrics. Exits 1 when a check fails,
// 2 on a usage or set-up error. run.py runs this program and combines
// repetitions.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

namespace {

using htapbench::Metric;
using htapbench::PassResult;
using htapbench::RunOptions;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "htapbench: %s\nusage: htapbench --workload "
               "oltp|olap|htap|oltp_disk --seed N --seconds S --trace 0|1 "
               "[--expect-checksum HEX]\n",
               msg);
  std::exit(2);
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("metric %s = %.17g %s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (a == "--expect-checksum") {
      opt.expect_checksum = v;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!htapbench::IsWorkload(opt.workload)) Usage("unknown workload");
  if (!have_seed) Usage("--seed is required");
  if (opt.seconds < 1 || opt.seconds > 600) Usage("--seconds out of range");
  if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
  std::filesystem::create_directories(opt.out_dir);

  std::printf("workload %s seed %llu seconds %d trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace);
  opt.traced = trace == 1;
  htapbench::Tracer::Get().set_enabled(opt.traced);
  const PassResult result = htapbench::RunPass(opt);
  htapbench::Tracer::Get().set_enabled(false);
  const std::vector<std::string>& failures = result.check_failures;
  std::vector<Metric> reported = result.end_to_end;
  PrintMetrics(result.end_to_end);
  if (opt.traced) {
    const std::string spans = opt.out_dir + "/spans-" + opt.workload + ".csv";
    if (!htapbench::WriteSpans(htapbench::Tracer::Get(), spans))
      std::fprintf(stderr, "htapbench: cannot write %s\n", spans.c_str());
    else
      std::printf("spans written to %s\n", spans.c_str());
    PrintMetrics(result.per_layer);
    reported.insert(reported.end(), result.per_layer.begin(),
                    result.per_layer.end());
  }

  if (!result.checksum.empty())
    std::printf("checksum %s %s\n", opt.workload.c_str(),
                result.checksum.c_str());
  for (const std::string& f : failures) std::printf("check FAILED: %s\n", f.c_str());
  if (failures.empty()) {
    std::printf("checks passed\n");
  } else {
    std::printf("replay: htapbench --workload %s --seed %llu "
                "--seconds %d --trace %d%s%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, trace,
                opt.expect_checksum.empty() ? "" : " --expect-checksum ",
                opt.expect_checksum.c_str());
  }
  std::printf("%s\n", Json(failures.empty(), result.attempted, result.failed,
                          reported)
                         .c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}
