#!/usr/bin/env python3
"""Spread report: is the benchmark steady enough for its own bounds?

    python3 perfbench/spread.py --workload crowd [--runs 10] [--first-seed 1]
        [--seconds S] [--sets 1]

Runs perfbench/run.py --runs times on one workload (each run a fresh set of
processes, seed first-seed + i) and prints, for every end-to-end metric in
BENCHMARK.json, the median, the quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and that share as a fraction of
the metric's bound. A metric whose spread reaches its bound is flagged;
setup_s is reported but, like the acceptance rule, judged only on drift.
With --sets 2 the runs are repeated, each set gets its own row, and the
drift of the second set's median from the first's is flagged when it is
worse than the bound. Exit code 1 when a flag is
raised.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("output check failed: %s" % " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            runs.append(one_run(args.workload, args.first_seed + i, seconds))
            print("set %d run %d/%d done" % (s + 1, i + 1, args.runs),
                  file=sys.stderr, flush=True)
        sets.append(runs)

    flagged = False
    print("%s: %d runs x %d set(s), %g s each" %
          (args.workload, args.runs, args.sets, seconds))
    for name in ("sessions_per_s", "setup_s"):
        for i, runs in enumerate(sets):
            print("  set %d %s: %s" % (i + 1, name, " ".join(
                "%.6g" % r[name] for r in runs)))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print("%-18s %4s %14s %14s %14s %9s %9s %9s" %
          ("metric", "set", "median", "q1", "q3", "spread", "/bound",
           "drift"))
    for name, bound in bounds.items():
        first = None
        for i, runs in enumerate(sets):
            med, q1, q3, rel = spread([r[name] for r in runs])
            flag = name != "setup_s" and rel >= bound
            drift = ""
            if first is None:
                first = med
            else:
                worse = (first - med if better[name] == "higher"
                         else med - first) / first
                drift = "%+.4f" % worse
                flag = flag or worse > bound
            flagged = flagged or flag
            print("%-18s %4d %14.6g %14.6g %14.6g %9.4f %9.3f %9s%s" %
                  (name, i + 1, med, q1, q3, rel, rel / bound, drift,
                   "  <-- FLAG" if flag else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
