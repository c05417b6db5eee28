"""Run the benchmark over several seeds and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --workloads all --seeds 1-10 --seconds 15 \\
        [--trace 0|1] [--out perfbench/baseline]

Runs run.py once per (workload, seed), one run at a time, and prints for
every metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median.  With --out it also writes
<out>/<workload>-trace<t>.json holding every run's provenance, failure
counts and metrics plus that summary, which is how baseline/ was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs) -> dict:
    """Per metric: median, quartiles and spread over the runs."""
    names = runs[0]["result"]["metrics"]
    summary = {}
    for name in names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--seconds", default=15, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    names = (workloads.WORKLOADS if args.workloads == "all"
             else args.workloads.split(","))
    for workload in names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            detail, result = (json.loads(line)
                              for line in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "detail": detail, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:40s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{workload}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"workload": workload, "seconds": args.seconds,
                           "trace": args.trace, "summary": summary,
                           "runs": runs}, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
