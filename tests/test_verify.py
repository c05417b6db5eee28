from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk import moments as moments_mod
from geomk import roots as roots_mod
from geomk.numerics import ConsistencyError, DomainError, Mode, SolverError
from geomk.params import make_params, qpk
from geomk.pmf import Engine, build_table, pgf_eval, recurrence_series
from geomk.verify import (check_mean_variance, check_moment_routes,
                          _pgf_series_gaps, check_pgf_identity,
                          check_root_certification, check_rootsum_pmf,
                          pgf_series_gap, run_verify)


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


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_roots_solved_once_per_cell(monkeypatch, mode):
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


def test_a_failed_cell_is_solved_once(monkeypatch):
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


def test_a_near_degenerate_cell_is_solved_or_skipped():
    solved = []

    def find_roots(params):
        solved.append(params.k)
        if params.k == 2:
            raise SolverError(f"no roots for {params}")
        return roots_mod.find_roots(params)

    # no cell is left out unseen: where the solver fails, the near-degenerate
    # cell is a skip with its reason, as anywhere else
    p = 2 / 3 + 1e-8
    result = check_rootsum_pmf([p], 2, 30, find_roots=find_roots)
    assert solved == [1, 2]
    assert result.passed and result.cases == 30 + 1
    assert result.skips == [{"p": str(p), "k": 2,
                             "reason": f"no roots for {make_params(p, 2)}"}]


@pytest.mark.parametrize("check", [check_rootsum_pmf, check_root_certification])
def test_a_cell_the_solver_fails_is_skipped_with_its_reason(check):
    def find_roots(params):
        if params.k == 2:
            raise SolverError(f"no roots for {params}")
        return roots_mod.find_roots(params)

    args = (10,) if check is check_rootsum_pmf else ()
    result = check([0.5], 3, *args, find_roots=find_roots)
    solved = check([0.5], 3, *args)
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
def test_a_consistency_error_is_not_skipped(check):
    def find_roots(params):
        raise ConsistencyError("broken root set")

    args = (10,) if check is check_rootsum_pmf else ()
    with pytest.raises(ConsistencyError, match="broken root set"):
        check([0.5], 1, *args, find_roots=find_roots)


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
