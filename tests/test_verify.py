from collections import Counter
from fractions import Fraction

import pytest

from geomk import roots as roots_mod
from geomk.numerics import DomainError, Mode
from geomk.verify import (check_mean_variance, check_pgf_identity,
                          check_rootsum_pmf, pgf_series_gap, run_verify)
from geomk.params import as_float_params, make_params


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


def test_empty_p_grid_rejected():
    # the CLI cannot send an empty grid; the other bounds are tested there
    with pytest.raises(DomainError, match="no probabilities"):
        run_verify(p_values=[], k_max=1, n_max=5, r_max=1)


def test_rootsum_check_skips_near_degenerate():
    # within 1e-6 of k/(k+1) but outside the degeneracy tolerance: skipped
    result = check_rootsum_pmf([2 / 3 + 1e-8], 2, 30)
    assert result.cases == 30 + 1  # only k=1 ran (k=2 is the near-degenerate)


def test_mean_variance_float():
    result = check_mean_variance([0.42], 4, Mode.FLOAT)
    assert result.passed


def test_pgf_gap_within_bound():
    params = make_params(Fraction(1, 2), 2)
    gap, bound, n_used = pgf_series_gap(params, Fraction(9, 10))
    assert 0 <= gap <= bound
    assert n_used > 2
    root_set = roots_mod.find_roots(as_float_params(params))
    assert pgf_series_gap(params, Fraction(9, 10), root_set=root_set) == (
        gap, bound, n_used)


def test_pgf_check_includes_unit_point():
    result = check_pgf_identity([Fraction(1, 2)], 1, [Fraction(1, 2)], Mode.EXACT)
    assert result.passed
    assert result.cases == 2  # one interior s plus s = 1
