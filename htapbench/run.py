#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see htapbench/NOTES.md).

    python3 htapbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0
    python3 htapbench/run.py --selfcheck

Run from the repository root. The program is built from src/ with CMake into
$CARGO_TARGET_DIR/htapbench (default .bench_build/htapbench); data files and
span dumps go to .bench_out/. A run is five repetitions, each in a fresh
process; every metric is the median over them. With --trace 1 the five
untraced repetitions are followed by three traced ones, which give the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "htapbench")
WORKLOADS = ("oltp", "olap", "htap", "oltp_disk")
REPETITIONS = 5  # workloads.cc kRepetitions sizes each one
TRACED_REPETITIONS = 3
RUN_BUDGET_S = 170  # all repetitions of one run, build excluded
BUILD_JOBS = "4"
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")
# Rate and latency metrics compared between traced and untraced runs:
# name -> True when higher is better.
OVERHEAD_METRICS = {"tpmc": True, "txn_p50_ms": False, "qph": True,
                    "query_geomean_ms": False}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        log("htapbench: no htapdb sources under src/; nothing to build")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "htapbench")
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", BUILD_JOBS]):
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("htapbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "htapbench")


def run_once(binary, args, deadline):
    """One repetition. Returns (exit code, stdout); code None on timeout."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, ""
    return proc.returncode, out.decode()


class Repetitions:
    """Parsed output of the repetitions of one run."""

    def __init__(self):
        self.values = {}    # name -> [value per repetition]
        self.units = {}
        self.samples = {}   # name -> summed sample count
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.checksums = set()
        self.failures = []

    def add(self, code, out):
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return False
        if code not in (0, 1):
            return False
        for line in lines:
            print("  " + line)
            m = METRIC_LINE.match(line)
            if m:
                name = m.group(1)
                self.values.setdefault(name, []).append(float(m.group(2)))
                self.units[name] = m.group(3)
                self.samples[name] = self.samples.get(name, 0) + int(m.group(4))
            c = re.match(r"^checksum \S+ (\w+)$", line)
            if c:
                self.checksums.add(c.group(1))
            if line.startswith("check FAILED: "):
                self.failures.append(line[len("check FAILED: "):])
        self.correct = self.correct and result["correct"] and code == 0
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return True

    def median(self, name):
        return statistics.median(self.values[name])


def run_reps(binary, args, traced, deadline):
    reps = Repetitions()
    for i in range(TRACED_REPETITIONS if traced else REPETITIONS):
        print("repetition %d%s:" % (i + 1, " (traced)" if traced else ""))
        code, out = run_once(binary, args + ["--trace", "1" if traced else "0"],
                             deadline)
        if code is None:
            log("htapbench: run exceeded %d s" % RUN_BUDGET_S)
            return None
        if not reps.add(code, out):
            log("htapbench: repetition exited with code %s" % code)
            return None
    return reps


def benchmark(binary, args):
    """One run: repetitions, medians, checks, result line. Returns the exit
    code."""
    deadline = time.time() + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.expect_checksum:
        base += ["--expect-checksum", args.expect_checksum]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    plain = run_reps(binary, base, False, deadline)
    if plain is None:
        return 1
    runs = [plain]
    names = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        traced = run_reps(binary, base, True, deadline)
        if traced is None:
            return 1
        runs.append(traced)
        pcts = []
        for name, higher_better in OVERHEAD_METRICS.items():
            a, b = plain.median(name), traced.median(name)
            pct = (a / b - 1 if higher_better else b / a - 1) * 100
            print("trace overhead %s: %.2f%% (untraced %.6g, traced %.6g)"
                  % (name, pct, a, b))
            pcts.append(pct)
        traced.values["bench.trace_overhead_pct"] = [statistics.mean(pcts)]
        traced.units["bench.trace_overhead_pct"] = "%"
        traced.samples["bench.trace_overhead_pct"] = len(pcts)
        source = traced
        names = [m["name"] for m in spec["per_layer"]]
    else:
        source = plain

    metrics = {}
    for name in names:
        value = source.median(name)
        print("metric %s = %.17g %s (n=%d)" % (name, value, source.units[name],
                                               source.samples[name]))
        metrics[name] = {"value": value, "unit": source.units[name]}
    failures = [f for r in runs for f in r.failures]
    sums = set().union(*(r.checksums for r in runs))
    if len(sums) > 1:
        failures.append("result checksum differs between repetitions: %s"
                        % sorted(sums))
    elif sums:
        print("checksum %s %s" % (args.workload, sums.pop()))
    correct = all(r.correct for r in runs) and not failures
    for f in failures:
        print("check FAILED: " + f)
    if not correct:
        print("replay: python3 htapbench/run.py --workload %s --seed %d "
              "--seconds %d --trace %d%s" % (
                  args.workload, args.seed, args.seconds, args.trace,
                  " --expect-checksum " + args.expect_checksum
                  if args.expect_checksum else ""))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def selfcheck():
    """Short runs of every workload through this script: every metric of
    BENCHMARK.json is printed with its unit and sample count, the olap
    checksum repeats for a seed, and a wrong expected checksum fails the
    run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def this(extra):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)]
                              + extra, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=600)
        return proc.returncode, proc.stdout.decode()

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            label = "%s trace %d" % (w, trace)
            log("selfcheck: " + label)
            code, out = this(["--workload", w, "--seed", "7", "--seconds",
                              "1", "--trace", str(trace)])
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(label + ": no result line (exit %d)" % code)
                continue
            if code != 0 or result.get("correct") is not True \
                    or result.get("failed") != 0:
                problems.append(label + ": exit %d, correct %s, failed %s" % (
                    code, result.get("correct"), result.get("failed")))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(label + ": result keys %s" % sorted(result))
            if set(result.get("metrics", {})) != set(units):
                problems.append(label + ": metrics differ from BENCHMARK.json")
            printed = {m.group(1): m for m in map(METRIC_LINE.match, lines)
                       if m}
            for name, unit in units.items():
                if name not in printed or printed[name].group(3) != unit:
                    problems.append("%s: %s not printed with unit %s and a "
                                    "sample count" % (label, name, unit))
                if result.get("metrics", {}).get(name, {}).get("unit") != unit:
                    problems.append("%s: %s has no unit %s in the result"
                                    % (label, name, unit))

    def olap(extra):
        code, out = this(["--workload", "olap", "--seed", "7", "--seconds",
                          "1"] + extra)
        sums = re.findall(r"^checksum olap (\w+)$", out, re.M)
        return code, out, sums[-1] if sums else None

    log("selfcheck: olap checksum repeats across runs")
    _, _, first = olap([])
    _, _, second = olap([])
    if first is None or first != second:
        problems.append("olap checksum not repeatable: %s vs %s"
                        % (first, second))
    log("selfcheck: a wrong expected checksum fails the run")
    code, out, _ = olap(["--expect-checksum", "0000000000000000"])
    if code == 0 or '"correct": false' not in out or "replay: " not in out:
        problems.append("a wrong expected checksum did not fail the run")
    if first is not None and olap(["--expect-checksum", first])[0] != 0:
        problems.append("the right expected checksum failed the run")

    for p in problems:
        log("selfcheck FAILED: " + p)
    log("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect-checksum")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    if args.selfcheck:
        return selfcheck() if build() else 1
    binary = build()
    if binary is None:
        return 1
    return benchmark(binary, args)


if __name__ == "__main__":
    sys.exit(main())
