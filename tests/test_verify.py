from fractions import Fraction

import pytest

from geomk.numerics import DomainError, Mode
from geomk.verify import (check_mean_variance, check_pgf_identity,
                          check_rootsum_pmf, pgf_series_gap, run_verify)
from geomk.params import make_params


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


def test_pgf_check_includes_unit_point():
    result = check_pgf_identity([Fraction(1, 2)], 1, [Fraction(1, 2)], Mode.EXACT)
    assert result.passed
    assert result.cases == 2  # one interior s plus s = 1
