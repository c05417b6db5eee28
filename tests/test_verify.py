import json
import math
import subprocess
import time
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk import moments as moments_mod
from geomk import pool
from geomk import roots as roots_mod
from geomk.numerics import ConsistencyError, DomainError, Mode, SolverError
from geomk.params import make_params, qpk
from geomk.pmf import Engine, build_table, pgf_eval, recurrence_series
from geomk.schema import load_schema
from geomk.verify import (CheckResult, check_mean_variance,
                          check_moment_routes, _fold, _pgf_series_gaps,
                          _track, check_pgf_identity,
                          check_root_certification, check_rootsum_pmf,
                          pgf_series_gap, run_verify)
from test_simulate import (_finish, _process_state, _python, _run_python,
                           needs_proc)


def test_small_exact_sweep_passes():
    report = run_verify(p_values=[Fraction(1, 2), Fraction(2, 3)],
                        k_max=3, n_max=60, r_max=3)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "cross_engine_pmf", "rootsum_pmf", "moment_routes", "mean_variance",
        "root_certification", "pgf_identity"}


def test_float_sweep_passes():
    report = run_verify(p_values=[0.3, 0.5], k_max=3, n_max=60, r_max=3,
                        mode=Mode.FLOAT)
    assert report.passed


def test_corruption_is_caught():
    report = run_verify(p_values=[Fraction(1, 2)], k_max=2, n_max=30,
                        r_max=2, corrupt_engine="closedform")
    assert not report.passed
    bad = {c.name: c for c in report.checks}["cross_engine_pmf"]
    assert bad.failures
    assert bad.failures[0]["engine"] == "closedform"


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
@pytest.mark.parametrize("engine", ["muselli", "closedform"])
def test_corruption_fails_exactly_at_k_plus_one(engine, mode):
    p_values = [Fraction(1, 2), Fraction(2, 3)]
    report = run_verify(p_values=p_values, k_max=3, n_max=20, r_max=2,
                        mode=mode, corrupt_engine=engine)
    checks = {c.name: c for c in report.checks}
    bad = checks.pop("cross_engine_pmf")
    assert {(f["engine"], f["p"], f["k"], f["n"]) for f in bad.failures} == {
        (engine, str(p if mode is Mode.EXACT else float(p)), k, k + 1)
        for p in p_values for k in range(1, 4)}
    assert len(bad.failures) == 6
    assert all(c.passed for c in checks.values())


@pytest.fixture
def here_alone(monkeypatch):
    """run_verify's cells all in this process, where a test's patches are
    seen: a worker runs the functions it was forked with."""
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_roots_solved_once_per_cell(monkeypatch, here_alone, mode):
    solved = Counter()
    find_roots = roots_mod.find_roots

    def counting(params):
        solved[params.p, params.k] += 1
        return find_roots(params)

    monkeypatch.setattr(roots_mod, "find_roots", counting)
    # 2/3 at k = 2 is the degenerate cell p = k/(k+1)
    report = run_verify(p_values=[Fraction(1, 2), Fraction(2, 3)], k_max=3,
                        n_max=30, r_max=2, mode=mode)
    assert report.passed
    assert solved == {(p, k): 1 for p in (0.5, 2 / 3) for k in range(1, 4)}


def test_a_failed_cell_is_solved_once(monkeypatch, here_alone):
    # float roots are lost at p = 1/2 from k = 53: both root checks skip
    # those cells, each with its reason, from one solve per cell
    solved = Counter()
    find_roots = roots_mod.find_roots

    def counting(params):
        solved[params.k] += 1
        return find_roots(params)

    monkeypatch.setattr(roots_mod, "find_roots", counting)
    report = run_verify(p_values=[Fraction(1, 2)], k_max=60, n_max=70,
                        r_max=1)
    assert report.passed
    assert solved == {k: 1 for k in range(1, 61)}
    skips = [{"p": "0.5", "k": k,
              "reason": f"root magnitude >= 1 for (p=0.5, k={k}, float)"}
             for k in range(53, 61)]
    checks = {check.name: check for check in report.checks}
    assert checks["rootsum_pmf"].skips == skips
    assert checks["root_certification"].skips == skips


def test_empty_p_grid_rejected():
    # the CLI cannot send an empty grid; the other bounds are tested there
    with pytest.raises(DomainError, match="no probabilities"):
        run_verify(p_values=[], k_max=1, n_max=5, r_max=1)


def test_rootsum_check_takes_near_degenerate_cells():
    # 1e-8 from 2/3, the degenerate point of k = 2, and outside the 1e-12
    # flag: solved and checked like any other cell
    result = check_rootsum_pmf([2 / 3 + 1e-8], 2, 30)
    assert result.passed and not result.skips
    assert result.cases == 2 * (30 + 1)
    assert result.worst_magnitude <= 1e-15


def _fail_at_k2(monkeypatch, solved=None):
    """Make roots.find_roots raise SolverError at k = 2, and record in
    solved the k of each call."""
    find_roots = roots_mod.find_roots

    def failing(params):
        if solved is not None:
            solved.append(params.k)
        if params.k == 2:
            raise SolverError(f"no roots for {params}")
        return find_roots(params)

    monkeypatch.setattr(roots_mod, "find_roots", failing)


def test_a_near_degenerate_cell_is_solved_or_skipped(monkeypatch):
    solved = []
    _fail_at_k2(monkeypatch, solved)
    # no cell is left out unseen: where the solver fails, the near-degenerate
    # cell is a skip with its reason, as anywhere else
    p = 2 / 3 + 1e-8
    result = check_rootsum_pmf([p], 2, 30)
    assert solved == [1, 2]
    assert result.passed and result.cases == 30 + 1
    assert result.skips == [{"p": str(p), "k": 2,
                             "reason": f"no roots for {make_params(p, 2)}"}]


@pytest.mark.parametrize("check", [check_rootsum_pmf, check_root_certification])
def test_a_cell_the_solver_fails_is_skipped_with_its_reason(monkeypatch,
                                                           check):
    args = (10,) if check is check_rootsum_pmf else ()
    solved = check([0.5], 3, *args)
    _fail_at_k2(monkeypatch)
    result = check([0.5], 3, *args)
    assert result.passed and solved.passed and not solved.skips
    # the skipped cell adds no case
    assert result.cases == solved.cases * 2 // 3
    assert result.skips == [{"p": "0.5", "k": 2,
                             "reason": f"no roots for {make_params(0.5, 2)}"}]
    assert result.to_dict()["skipped"] == 1


def test_root_certification_reads_the_solver_certificate(monkeypatch):
    # every solved cell is certified once, inside find_roots
    certify, calls = roots_mod.certify_roots, Counter()

    def counting(root_set, params):
        calls[params.k] += 1
        return certify(root_set, params)

    monkeypatch.setattr(roots_mod, "certify_roots", counting)
    result = check_root_certification([0.5, 0.37], 6)
    assert result.passed and result.cases == 12
    assert calls == {k: 2 for k in range(1, 7)}


@pytest.mark.parametrize("check", [check_rootsum_pmf, check_root_certification])
def test_a_consistency_error_is_not_skipped(monkeypatch, check):
    def find_roots(params):
        raise ConsistencyError("broken root set")

    monkeypatch.setattr(roots_mod, "find_roots", find_roots)
    args = (10,) if check is check_rootsum_pmf else ()
    with pytest.raises(ConsistencyError, match="broken root set"):
        check([0.5], 1, *args)


def test_mean_variance_float():
    result = check_mean_variance([0.42], 4, Mode.FLOAT)
    assert result.passed


def test_pgf_gap_within_bound():
    params = make_params(Fraction(1, 2), 2)
    gap, bound, n_used = pgf_series_gap(params, Fraction(9, 10))
    assert 0 <= gap <= bound <= 1e-12
    assert n_used > 2


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(9, 10), 0.37, 0.9])
@pytest.mark.parametrize("k", [1, 2, 6])
def test_one_walk_serves_every_s(p, k):
    # s in any order, so a later s can need fewer values than an earlier one
    params = make_params(p, k)
    s_values = [Fraction(9, 10), Fraction(1, 10), Fraction(-7, 8),
                Fraction(1, 2), Fraction(9, 10)]
    if params.mode is Mode.FLOAT:
        s_values = [float(s) for s in s_values]
    assert list(_pgf_series_gaps(params, s_values)) == [
        pgf_series_gap(params, s) for s in s_values]


def _remainder(params, s, n):
    """sum_{i>n} f(i) s^i for n >= k + 1, exactly, from the recurrence of
    the pgf's denominator D(s) = 1 - s + q p^k s^(k+1)."""
    k, scale = params.k, qpk(params)
    f = recurrence_series(params, n)
    head = f[n] * s ** (n + 1) - scale * sum(
        f[i] * s ** (i + k + 1) for i in range(n - k, n + 1))
    return head / (1 - s + scale * s ** (k + 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 50).flatmap(
           lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
       st.integers(1, 60),
       st.integers(2, 20).flatmap(
           lambda v: st.tuples(st.integers(1 - v, v - 1).filter(bool),
                               st.just(v))))
def test_pgf_gap_is_the_exact_remainder_within_a_true_bound(ab, k, uv):
    params = make_params(Fraction(*ab), k)
    s = Fraction(*uv)
    gap, bound, n = pgf_series_gap(params, s)
    remainder = _remainder(params, s, n)
    tail = 1 - sum(recurrence_series(params, n))
    assert abs(remainder) <= abs(s) ** (n + 1) * tail
    assert gap == float(abs(remainder))
    assert bound == float(abs(s) ** (n + 1) * tail)
    assert gap <= bound <= 1e-12


def test_pgf_check_passes_on_the_two_fifths_grid():
    # the float envelope once tied the exact gap to the last bit here
    report = run_verify(p_values=[Fraction(2, 5)], k_max=1, n_max=6, r_max=1)
    assert report.passed


def test_exact_pgf_check_at_large_k():
    # float roots fail from k = 53 on at p = 1/2; the check needs none
    s_values = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    result = check_pgf_identity([Fraction(1, 2)], 60, s_values, Mode.EXACT)
    assert result.passed
    assert result.cases == 60 * 4


def test_pgf_gap_past_the_double_range():
    # q p^k = 2^-1101 is below every double; the exact bound is not
    params = make_params(Fraction(1, 2), 1100)
    gap, bound, n = pgf_series_gap(params, Fraction(9, 10))
    assert n == 1101
    assert 0 <= gap <= bound <= 1e-12


@pytest.mark.parametrize("p,k,s", [(Fraction(1, 3), 1, Fraction(1, 10)),
                                   (Fraction(2, 5), 3, Fraction(-1, 2)),
                                   (Fraction(37, 100), 4, Fraction(9, 10)),
                                   (Fraction(7, 8), 2, Fraction(1, 2))])
def test_exact_pgf_bound_is_the_rounded_tail_bound(p, k, s):
    # |s|^(n+1) f(n+k+1) / (q p^k), rounded once from the kernel's integers
    params = make_params(p, k)
    _, bound, n = pgf_series_gap(params, s)
    f_far = recurrence_series(params, n + k + 1)[-1]
    assert bound == float(abs(s) ** (n + 1) * f_far / qpk(params))


def test_moment_routes_make_one_pass_per_route_per_cell(monkeypatch):
    passes = Counter()
    route = moments_mod._factorial_moments

    def counting(params, rs, engine):
        passes[engine] += 1
        return route(params, rs, engine)

    monkeypatch.setattr(moments_mod, "_factorial_moments", counting)
    result = check_moment_routes([Fraction(1, 3), Fraction(3, 4)], 3, 6,
                                 Mode.EXACT)
    assert result.passed and result.cases == 2 * 3 * 6 * 2
    assert passes == {Engine.RECURRENCE: 6, Engine.MUSELLI: 6,
                      Engine.CLOSED_FORM: 6}


def test_pgf_check_and_tables_solve_no_roots(monkeypatch):
    solved = Counter()

    def counting(params):
        solved[params.p, params.k] += 1
        raise AssertionError("find_roots called")

    monkeypatch.setattr(roots_mod, "find_roots", counting)
    s_values = (Fraction(1, 10), Fraction(-1, 2), Fraction(9, 10))
    for mode in Mode:
        assert check_pgf_identity([Fraction(1, 3)], 3, s_values, mode).passed
    for engine in (Engine.RECURRENCE, Engine.MUSELLI, Engine.CLOSED_FORM):
        build_table(make_params(0.3, 3), engine, 20)
        build_table(make_params(Fraction(3, 10), 3), engine, 20)
    assert not solved
    with pytest.raises(AssertionError, match="find_roots called"):
        build_table(make_params(0.3, 3), Engine.ROOT_SUM, 20)
    assert solved == {(0.3, 3): 1}


def test_pgf_check_includes_unit_point():
    result = check_pgf_identity([Fraction(1, 2)], 1, [Fraction(1, 2)], Mode.EXACT)
    assert result.passed
    assert result.cases == 2  # one interior s plus s = 1


magnitudes = st.one_of(st.floats(0, 10), st.sampled_from([math.nan, math.inf]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.lists(magnitudes, max_size=5), max_size=6))
def test_fold_replays_one_pass(cells):
    # every field of the fold of the cells, worst included, is that of one
    # pass over them: NaN ranks above every number wherever it falls, and
    # a tie keeps the earliest case
    def track(result, cell, values):
        for case, magnitude in enumerate(values):
            result.cases += 1
            _track(result, magnitude < 5, magnitude,
                   lambda: {"cell": cell, "case": case})

    one_pass = CheckResult("check", True, 0)
    outcomes = []
    for cell, values in enumerate(cells):
        track(one_pass, cell, values)
        part = CheckResult("check", True, 0)
        track(part, cell, values)
        outcomes.append(([vars(part)], None))
    [folded] = _fold(("check",), outcomes)
    assert repr(vars(folded)) == repr(vars(one_pass))


def test_non_finite_values_are_written_as_null():
    result = CheckResult("check", True, 0)
    for magnitude in (math.nan, 1.0, math.inf):
        result.cases += 1
        _track(result, False, magnitude,
               lambda: {"n": result.cases, "deviation": magnitude})
    payload = result.to_dict()
    assert payload["worst"] == {"n": 1, "deviation": None}
    assert payload["failures"] == [{"n": 1, "deviation": None},
                                   {"n": 2, "deviation": 1.0},
                                   {"n": 3, "deviation": None}]
    json.dumps(payload, allow_nan=False)


def test_the_pool_runs_registered_functions_only():
    # a worker could not find it, so it would die and its task run here
    with pytest.raises(ValueError, match="builtins.len is not registered"):
        pool.run(len, [("ab",), ("cd",)])


@needs_proc
def test_the_pool_deals_tasks_round_robin():
    # process i of W runs tasks i, i + W, ..., where process 0 is this one
    # and W = min(CPUs, tasks); the results come back in task order
    out = _run_python(_CELLS + """
@pool.register
def where(task):
    return [task, os.getpid()]

out = []
for cpus, count in ((1, 7), (2, 7), (3, 7), (3, 2), (3, 0)):
    use_cpus(cpus)
    out.append([cpus, count, pool.run(where, [(i,) for i in range(count)]),
                [os.getpid()] + pids()])
print(json.dumps(out))
""")
    # min(CPUs, tasks) - 1 workers run each call; they are forked as
    # needed and kept for later calls
    assert [len(processes) for *_, processes in out] == [1, 2, 3, 3, 3]
    assert out[1][3] == out[2][3][:2] and out[2][3] == out[4][3]
    for cpus, count, results, processes in out:
        size = min(cpus, count)
        assert results == [[i, processes[i % size]] for i in range(count)]


_CELLS = """
import contextlib, io, json, math, os, signal, sys, time
from fractions import Fraction
from geomk import pool, verify
from geomk.cli import main
from geomk.numerics import DomainError, Mode
from geomk.verify import run_verify

def use_cpus(n):
    pool._usable_cpus = lambda: n

def pids():
    return [worker[0] for worker in pool._workers]

def fields(report):
    # every field of every check, the whole failure list included;
    # repr, because a NaN equals nothing, not even itself
    return repr([vars(check) for check in report.checks])

def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, out.getvalue()]

def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


@needs_proc
class TestSharedCells:
    """run_verify's cells dealt among forked workers: the report is the
    same for any number of CPUs."""

    def test_any_cpu_count_gives_the_same_report(self):
        out = _run_python(_CELLS + """
out = []
for argv in ((), ("--mode", "float", "--p-grid", "0.3,1/2,2/3", "--k-max", "4",
                  "--n-max", "80"), ("--corrupt-engine", "closedform")):
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        runs.append(cli("verify", *argv))
    out.append(runs)
runs = []
for cpus in (1, 2, 3):
    use_cpus(cpus)
    runs.append(fields(run_verify(corrupt_engine="closedform")))
out.append(runs)
print(json.dumps(out))
""")
        for runs in out:
            assert runs[0] == runs[1] == runs[2]
        exact, floats, corrupt, _ = (runs[0] for runs in out)
        assert exact[0] == floats[0] == 0 and corrupt[0] == 1
        assert json.loads(floats[1])["mode"] == "float"
        failures = json.loads(corrupt[1])["checks"][0]["failures"]
        assert {f["engine"] for f in failures} == {"closedform"}

    @pytest.mark.parametrize("bad_k", [1, 3])
    def test_a_nan_in_any_cell_gives_the_same_report(self, bad_k):
        # muselli's first case in cell k = bad_k is NaN, and its n = k + 2
        # is 1e-3 off: the NaN ranks above every number, so it is worst
        # whichever cell it is in, and whichever process runs that cell
        out = _run_python(_CELLS + """
bad_k = int(sys.argv[1])
muselli = verify._ENGINES["muselli"]

def fake(params, ns):
    for n, value in zip(ns, muselli(params, ns)):
        if params.k == bad_k and n == 0:
            value = math.nan
        elif params.k == bad_k and n == params.k + 2:
            value += 1e-3
        yield value

verify._ENGINES["muselli"] = fake
runs = []
for cpus in (1, 2, 3):
    use_cpus(cpus)
    report = run_verify(p_values=[0.3, 0.5], k_max=4, n_max=30, r_max=2,
                        mode=Mode.FLOAT)
    runs.append([fields(report)] + cli("verify", "--mode", "float",
                                       "--p-grid", "0.3,0.5", "--k-max", "4",
                                       "--n-max", "30", "--r-max", "2"))
print(json.dumps(runs))
""", str(bad_k))
        assert out[0] == out[1] == out[2]
        _, code, text = out[0]
        assert code == 1
        # strict JSON: no NaN or Infinity token
        payload = json.loads(text, parse_constant=pytest.fail)
        jsonschema.validate(payload, load_schema("verify_report"))
        check = payload["checks"][0]
        assert check["worst"] == {"engine": "muselli", "p": "0.3",
                                  "k": bad_k, "n": 0, "deviation": None}
        assert [(f["k"], f["n"]) for f in check["failures"]] == [
            (bad_k, 0), (bad_k, bad_k + 2)] * 2

    def test_a_skipped_cell_gives_the_same_report(self):
        # float roots are lost at p = 1/2 from k = 53: both root checks skip
        out = _run_python(_CELLS + """
runs = []
for cpus in (1, 2, 3):
    use_cpus(cpus)
    report = run_verify(p_values=[Fraction(1, 2)], k_max=60, n_max=10,
                        r_max=1)
    runs.append([fields(report), [len(check.skips) for check in report.checks]])
print(json.dumps(runs))
""")
        assert out[0] == out[1] == out[2]
        assert out[0][1] == [0, 8, 0, 0, 8, 0]

    def test_the_first_error_of_a_serial_run_is_raised(self):
        # moment_routes fails at k = 2, before cross_engine_pmf fails at
        # k = 5 in grid order; one pass per check raises the latter first
        out = _run_python(_CELLS + """
closedform = verify._ENGINES["closedform"]
muselli_sum = verify._MOMENT_ROUTES["muselli_sum"]

def fake_engine(params, ns):
    if params.k == 5:
        raise DomainError(f"closedform fails at {params}")
    return closedform(params, ns)

def fake_route(params, rs):
    if params.k == 2:
        raise DomainError(f"muselli_sum fails at {params}")
    return muselli_sum(params, rs)

verify._ENGINES["closedform"] = fake_engine
verify._MOMENT_ROUTES["muselli_sum"] = fake_route
runs = []
for cpus in (1, 2, 3):
    use_cpus(cpus)
    try:
        run_verify(k_max=6, n_max=40, r_max=2)
    except DomainError as exc:
        runs.append(str(exc))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        runs.append(cli("verify", "--k-max", "6", "--n-max", "40",
                        "--r-max", "2") + [stderr.getvalue()])
print(json.dumps(runs))
""")
        message = "closedform fails at (p=1/3, k=5, exact)"
        assert out == [message, [2, "", f"error: {message}\n"]] * 3

    def test_worker_killed_mid_task_is_dropped(self):
        # The timer kills the worker while both shares run; the parent reads
        # EOF and runs the worker's cells itself.
        out = _run_python(_CELLS + """
use_cpus(1)
serial = fields(run_verify())
use_cpus(2)
run_verify(p_values=[Fraction(1, 2)], k_max=2, n_max=10, r_max=1)
[old] = pids()
signal.signal(signal.SIGALRM, lambda *_: os.kill(old, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, 0.05)
shared = fields(run_verify())
print(json.dumps({"same": serial == shared, "now": pids(),
                  "reaped": reaped(old)}))
""")
        assert out == {"same": True, "now": [], "reaped": True}

    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_workers_are_reused_and_none_outlives_its_process(self, ending):
        code = _CELLS + """
use_cpus(3)
run_verify(k_max=2, n_max=10, r_max=1)
first = pids()
run_verify(k_max=3, n_max=10, r_max=1)
print(json.dumps([first, pids()]), flush=True)
if sys.argv[1] == "kill":
    sys.stdin.read()
"""
        with _python(code, ending, stdin=subprocess.PIPE) as proc:
            first, workers = json.loads(proc.stdout.readline())
            assert len(workers) == 2 and workers == first
            if ending == "kill":
                proc.kill()
            _, err = _finish(proc)
        if ending == "exit":
            assert proc.returncode == 0 and err == ""
            assert [_process_state(pid) for pid in workers] == [None, None]
            return
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline and any(
                _process_state(pid) not in (None, "Z") for pid in workers):
            time.sleep(0.01)
        assert all(_process_state(pid) in (None, "Z") for pid in workers)
