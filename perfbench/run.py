"""geomk benchmark: one workload, one seed, measured end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The op list is a pure function of (workload, seed, seconds); see
workloads.py.  Each measured pass runs in a fresh interpreter (worker.py)
with one client in a closed loop.  After the pass, every op's output is
checked against reference.py, outside the timed region.

--trace 0 prints the end-to-end metrics: wall_s, op_p50_ms, op_p90_ms,
error_rate, setup_s (median of several fresh set-ups) and peak_rss_mb.
--trace 1 runs each half of the op list untraced and with span wrappers
installed (tracing.py), in the order A B B A, and prints the per-layer
metrics, including trace.overhead_ratio, the traced over the untraced wall
time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``failed`` counts ops that raised,
exited non-zero or failed their output check; ``correct`` is false only if
an op exited 0 with a wrong output.  error_rate is (failed + 1) /
(attempted + 2), the rule-of-succession estimate of the per-op failure
probability, which stays above zero when no op fails.  The line before it
is a JSON object with provenance and failure counts per reason.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5          # fresh set-ups per untraced run, median reported
DEADLINE_S = 170           # a run must end within 180 s

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "error_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for reason, count in sorted(detail["failures"].items()):
        print(f"failed {count}x: {reason}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def _run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "geomk", "__init__.py")):
        raise BenchError(f"no geomk sources under {os.path.join(ROOT, 'src')}")
    started = time.perf_counter()
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    warmup = workloads.warmup_ops(args.workload)
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        spawn = _Spawner(work, warmup, started + DEADLINE_S)
        if args.trace:
            # Untraced and traced passes over the two halves of the op list
            # in the order A B B A, so host-speed drift cancels out of the
            # overhead ratio to first order.
            half = len(ops) // 2
            first, second = ops[:half], ops[half:]
            plain = [spawn(first, "plain")]
            traced = [spawn(first, "traced", trace=True),
                      spawn(second, "traced", trace=True)]
            plain.append(spawn(second, "plain"))
            records = traced[0]["records"] + traced[1]["records"]
            ratio = (sum(t["wall_s"] for t in traced)
                     / sum(p["wall_s"] for p in plain))
            metrics = tracing.layer_metrics(
                [t["span_totals"] for t in traced],
                sum(r["out_bytes"] for r in records), ratio)
        else:
            setups = [spawn([], "setup", setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            measured = spawn(ops, "plain")
            setups.append(measured["setup_s"])
            records = measured["records"]
        failures, wrong = _check(ops, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(ops), sum(failures.values())
    latencies = [r["latency_s"] * 1000.0 for r in records]
    p90 = statistics.quantiles(latencies, n=10)[8]
    if not args.trace:
        values = {
            "wall_s": measured["wall_s"],
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90,
            "error_rate": (failed + 1) / (attempted + 2),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": attempted,
        "op_kinds": dict(Counter(op["kind"] for op in ops)),
        "latency_s_by_kind": _latency_by_kind(ops, records),
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "failures": failures, "wrong_outputs": wrong,
        "provenance": _provenance(),
    }
    if not args.trace:
        detail["setup_samples_s"] = setups
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


class _Spawner:
    """Runs worker.py in a fresh interpreter and reads back its results."""

    def __init__(self, work, warmup, deadline):
        self.work, self.warmup, self.deadline = work, warmup, deadline

    def __call__(self, ops, out_dir, trace=False, setup_only=False):
        out_dir = os.path.join(self.work, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        job_path = os.path.join(self.work, "job.json")
        result_path = os.path.join(self.work, "result.json")
        job = {"root": ROOT, "work_dir": out_dir, "trace": trace,
               "setup_only": setup_only, "ops": ops, "warmup": self.warmup,
               "result_path": result_path}
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, WORKER, job_path], cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass did not finish in time") from None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-2000:]
            raise BenchError(f"worker exited {proc.returncode}: {tail}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - spawned
        return result


def _check(ops, records):
    """Failure counts per reason, and the number of wrong outputs."""
    failures, wrong = Counter(), 0
    refs = checks.References()
    by_index = {r["index"]: r for r in records}
    for op in sorted(ops, key=checks.reference_key):
        record = by_index[op["index"]]
        reason, is_wrong = checks.classify(op, record, refs)
        if os.path.exists(record["out"]):
            os.remove(record["out"])
        if reason is not None:
            failures[reason] += 1
            wrong += is_wrong
    return dict(failures), wrong


def _latency_by_kind(ops, records):
    totals = Counter()
    for op, record in zip(ops, records):
        totals[op["kind"]] += record["latency_s"]
    return dict(totals)


def _git_revision():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _provenance():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "git_revision": _git_revision()}


if __name__ == "__main__":
    sys.exit(main())
