#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and its measurement driver
from source, runs one workload for a time budget, checks the results and
prints every metric.  See README.md in this directory.

  python3 perfbench/run.py --workload seg256 --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py compare BASE.log CHANGE.log

The last stdout line of a run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The line before it is a
`bench-record` (workload, seed and every metric), which compare reads
from captured output.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "sciq_perfbench"

WORKLOADS = ("seg256", "ideal256", "fig3_sweep")

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("build failed: " + " ".join(cmd))
            return False
    return True


def measure(args):
    BUILD.mkdir(parents=True, exist_ok=True)
    out = BUILD / ("raw-%s-seed%d-trace%d.json"
                   % (args.workload, args.seed, args.trace))
    cmd = [str(DRIVER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out)]
    try:
        done = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return None
    if done.returncode != 0:
        log("driver exited with %d" % done.returncode)
        return None
    with open(out) as f:
        return json.load(f)


def print_table(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name, "")
        print("  %-30s %14.6g %-9s %s" % (name, value, unit, note))


def run(args):
    if not build():
        return 1
    raw = measure(args)
    if raw is None:
        return 1

    failures = benchlib.job_failures(raw["passes"])
    attempted = sum(len(p["jobs"]) for p in raw["passes"])
    problems = ["job %d: %s" % kv for kv in sorted(failures.items())]

    if args.trace:
        span_problems = benchlib.check_spans(raw["spans"])
        problems += span_problems
        metrics = benchlib.per_layer(raw)
        notes = {}
        write_trace(raw, args)
    else:
        metrics, notes = benchlib.end_to_end(raw)
        jobs = sum(len(p["jobs"]) for p in raw["passes"]
                   if p["kind"] != "setup_probe")
        if benchlib.samples_beyond(jobs, 0.9) < benchlib.MIN_BEYOND:
            problems.append("too few jobs (%d) for job_s_p90" % jobs)

    fail_frac = len(failures) / attempted
    correct = not problems
    print("workload %s  seed %d  trace %d  threads %d  attempted %d  "
          "failed %d  fail_frac %.6g (ratio)"
          % (args.workload, args.seed, args.trace, raw["threads"],
             attempted, len(failures), fail_frac))
    for problem in problems[:20]:
        print("  FAIL " + problem)
    print_table("per-layer metrics (traced run):" if args.trace
                else "end-to-end metrics (untraced run):", metrics, notes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "threads": raw["threads"],
        "attempted": attempted, "failed": len(failures),
        "fail_frac": fail_frac, "correct": correct,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    print("bench-record " + json.dumps(record, allow_nan=False))
    print(benchlib.result_line(correct, attempted, len(failures), metrics))
    return 0


def write_trace(raw, args):
    """Spans with their self time, for inspection after a traced run."""
    selfs = benchlib.self_times(raw["spans"])
    spans = [dict(s, self_s=selfs[s["id"]]) for s in raw["spans"]]
    path = BUILD / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": spans}, f, allow_nan=False)
    log("spans written to %s" % path)


def compare_main(argv):
    ap = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare captured outputs of two commits, pairing "
                    "each workload's runs in the order they appear.")
    ap.add_argument("base", help="captured output of the parent commit")
    ap.add_argument("change", help="captured output of the change")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(args.base) as f:
        base = benchlib.parse_records(f.read())
    with open(args.change) as f:
        change = benchlib.parse_records(f.read())
    rows = benchlib.compare(base, change, spec)
    if not rows:
        log("no (workload, metric) pair appears on both sides")
        return 1
    print("%-11s %-28s %3s %-32s %-32s %5s %s" % (
        "workload", "metric", "n", "base q1/median/q3",
        "change q1/median/q3", "won", "verdict"))
    for workload, metric, n, v in rows:
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        print("%-11s %-28s %3d %-32s %-32s %5.2f %s" % (
            workload, metric, n, fmt(v["base"]), fmt(v["change"]),
            v["won"], v["verdict"]))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
