import json
import os
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, 15)
    assert first == workloads.generate(workload, 7, 15)
    assert first != workloads.generate(workload, 8, 15)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_count_depends_on_workload_and_seconds_only(workload):
    counts = {len(workloads.generate(workload, seed, 15)) for seed in (1, 2, 3)}
    assert counts == {workloads.op_count(workload, 15)}
    assert len(workloads.generate(workload, 1, 0.1)) == workloads.MIN_OPS


def test_generation_imports_nothing_from_geomk():
    script = (
        "import sys, json\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import workloads\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.generate(w, 3, 15); workloads.warmup_ops(w)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('geomk'))))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []


def test_exact_deep_keeps_unrenderable_results():
    ops = workloads.generate("exact-deep", 5, 15)
    # exact p has denominator 10**places, so f(n) has about n*places digits
    digits = [op["n"] * (len(op["p"]) - 2) for op in ops if op["kind"] == "pmf"]
    over = [d for d in digits if d > workloads.STR_DIGITS_LIMIT]
    assert 1 <= len(over) <= 0.1 * len(digits)


def test_exact_deep_shares_about_half_the_p_k_pairs():
    ops = [op for op in workloads.generate("exact-deep", 5, 15)
           if op["kind"] != "series"]
    seen, repeats = set(), 0
    for op in ops:
        repeats += (op["p"], op["k"]) in seen
        seen.add((op["p"], op["k"]))
    assert 0.4 * len(ops) <= repeats <= 0.5 * len(ops)


def test_sample_mean_waiting_time_bounded():
    for op in workloads.generate("sample", 2, 15):
        assert workloads.mean_wait(float(op["p"]), op["k"]) <= 110
        assert 2000 <= op["trials"] <= 6000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_command_line_parses(workload):
    from geomk.cli import build_parser

    parser = build_parser()
    for op in workloads.generate(workload, 1, 1) + workloads.warmup_ops(workload):
        argv = workloads.argv(op, os.devnull)
        if argv is not None:
            parser.parse_args(argv)
