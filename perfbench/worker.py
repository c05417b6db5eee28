"""One benchmark process: set up geomk, then run an op list in a closed loop.

Usage: python3 worker.py JOB.json

The job file names the checkout, the ops, the warm-up ops, an output
directory and whether to trace.  The worker imports geomk from the
checkout's ``src``, runs the warm-up (which pays lazy imports), then runs
every op in order, one at a time, in this process: a CLI op is
``geomk.cli.main(argv)`` writing to a file, a library op calls the public
API.  Only the call itself is timed.  Results go to the job's result file.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import geomk
    import geomk.cli
    import workloads

    if os.path.dirname(os.path.abspath(geomk.__file__)) != os.path.join(
            os.path.abspath(src), "geomk"):
        print(f"geomk imported from {geomk.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    runner = _Runner(geomk, job["work_dir"], workloads.argv)
    for op in job["warmup"]:
        runner.run(op)
    gc.collect()
    ready = time.perf_counter()
    result = {"ready": ready}
    if not job["setup_only"]:
        if tracer is not None:
            tracer.reset()
        records = []
        start = time.perf_counter()
        for op in job["ops"]:
            records.append(runner.run(op))
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["records"] = records
        if tracer is not None:
            result["span_totals"] = tracing.span_totals(tracer)
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


class _Runner:
    def __init__(self, geomk, work_dir, argv):
        self._geomk = geomk
        self._work_dir = work_dir
        self._argv = argv

    def run(self, op: dict) -> dict:
        out = os.path.join(self._work_dir, f"op{op['index']}.out")
        argv = self._argv(op, out)
        record = {"index": op["index"], "out": out, "rc": None, "exc": None,
                  "message": "", "stderr": ""}
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if argv is None:
                    value = self._series(op)
                else:
                    record["rc"] = self._geomk.cli.main(argv)
        except SystemExit as exc:      # argparse rejects bad usage this way
            record["rc"] = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:       # an escaped error is a failure reason
            record["exc"] = type(exc).__name__
            record["message"] = str(exc)
        record["latency_s"] = time.perf_counter() - start
        if argv is None and record["exc"] is None:
            record["rc"] = 0
            _write_series(out, value)
        record["stderr"] = err.getvalue()[-2000:]
        record["out_bytes"] = os.path.getsize(out) if os.path.exists(out) else 0
        return record

    def _series(self, op):
        params = self._geomk.make_params(Fraction(op["p"]), op["k"])
        return self._geomk.factorial_moment_series(params, op["r_max"])


def _write_series(path, oracle):
    # Hex keeps the benchmark clear of the 4300-digit decimal limit.
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"sums": [[hex(s.numerator), hex(s.denominator)]
                            for s in oracle.sums],
                   "bounds": list(oracle.bounds), "n_terms": oracle.n_terms},
                  handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
