"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines go through the acceptance_report fixture (conftest), which writes
past pytest's capture.  Grids and tolerances are pinned here, not in
helpers, so this module is the single place the gate is defined.
"""

import math
from fractions import Fraction

from geomk.moments import (factorial_moment, factorial_moment_closed,
                           factorial_moment_muselli, factorial_moment_series,
                           mean, variance)
from geomk.numerics import Mode
from geomk.params import make_params
from geomk.pmf import (pgf_eval, pmf_muselli, pmf_recurrence, pmf_rootsum,
                       recurrence_series)
from geomk.roots import certify_roots, find_roots
from geomk.simulate import SimConfig, gof_report, run_simulation
from geomk.verify import (check_cross_engine_pmf, check_moment_routes,
                          check_rootsum_pmf, pgf_series_gap)

EXACT_P_GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
FLOAT_P_GRID = (0.2, 0.5, 0.8)


def test_criterion_01_exact_cross_engine_equality(acceptance_report):
    result = check_cross_engine_pmf(EXACT_P_GRID, k_max=6, n_max=200,
                                    mode=Mode.EXACT)
    # the extended binomial conventions are on the line at every n = k
    conventions = all(
        pmf_muselli(make_params(p, k), k) == p ** k
        for p in EXACT_P_GRID for k in range(1, 7))
    acceptance_report(1, "exact-mode cross-engine pmf equality (bit-exact rationals)",
            result.passed and conventions, f"{result.cases} comparisons")


def test_criterion_02_factorial_moment_vs_series_oracle(acceptance_report):
    worst_rel = 0.0
    cells = 0
    ok = True
    for p in EXACT_P_GRID:
        for k in range(1, 7):
            params = make_params(p, k)
            oracle = factorial_moment_series(params, 8)
            for r in range(1, 9):
                closed = factorial_moment(params, r)
                gap = closed - oracle.sums[r - 1]
                bound = oracle.bounds[r - 1]
                rel = bound / float(closed)
                worst_rel = max(worst_rel, rel)
                cells += 1
                # truncation discards positive mass, never more than the bound
                if not (0 <= gap and float(gap) <= bound and rel < 1e-15):
                    ok = False
    acceptance_report(2, "closed-form factorial moments match the truncated series "
               "oracle within the proved tail bound",
            ok, f"{cells} cells, worst relative bound {worst_rel:.2e}")


def test_criterion_03_three_route_agreement(acceptance_report):
    exact = check_moment_routes(EXACT_P_GRID, k_max=6, r_max=8, mode=Mode.EXACT)
    floats = check_moment_routes([float(p) for p in EXACT_P_GRID], k_max=6,
                                 r_max=8, mode=Mode.FLOAT)
    acceptance_report(3, "three-route factorial-moment agreement "
               "(bit-exact rationals; <= 1e-9 relative in float)",
            exact.passed and floats.passed,
            f"float worst {floats.worst_magnitude:.2e}")


def test_criterion_04_mean_closed_form(acceptance_report):
    identity = all(
        factorial_moment(make_params(p, k), 1) == mean(make_params(p, k))
        for p in EXACT_P_GRID for k in range(1, 7))
    spots = (mean(make_params(Fraction(1, 2), 2)) == 6
             and mean(make_params(Fraction(1, 3), 2)) == 12)
    acceptance_report(4, "mean (1-p^k)/(q p^k) equals the r=1 factorial moment exactly",
            identity and spots, "spots: 6 and 12")


def test_criterion_05_variance_closed_form(acceptance_report):
    ok = True
    for p in EXACT_P_GRID:
        for k in range(1, 7):
            params = make_params(p, k)
            mu1 = factorial_moment(params, 1)
            mu2 = factorial_moment(params, 2)
            if variance(params) != mu2 - mu1 ** 2 + mu1:
                ok = False
    params = make_params(Fraction(1, 2), 2)
    spot = (factorial_moment(params, 2) == 52 and variance(params) == 22)
    acceptance_report(5, "variance closed form equals mu_(2) - mu_(1)^2 + mu_(1) exactly",
            ok and spot, "spot: mu_(2)=52, variance=22")


def test_criterion_06_root_certification(acceptance_report):
    ok = True
    worst = 0.0
    for p in FLOAT_P_GRID:
        for k in range(1, 9):
            params = make_params(p, k)
            cert = certify_roots(find_roots(params), params)
            worst = max(worst, max(cert.identity_residuals))
            if not (cert.passed and cert.positive_real_count == 1
                    and cert.max_magnitude < 1.0
                    and max(cert.identity_residuals) <= 1e-12):
                ok = False
    golden = find_roots(make_params(0.5, 2)).roots
    ok = (ok and abs(golden[0] - (1 + math.sqrt(5)) / 4) <= 1e-12
          and abs(golden[1] - (1 - math.sqrt(5)) / 4) <= 1e-12)
    acceptance_report(6, "root certification on the float grid, golden quadratic roots",
            ok, f"worst identity residual {worst:.2e}")


def test_criterion_07_spectral_pmf_both_branches(acceptance_report):
    generic = check_rootsum_pmf(FLOAT_P_GRID, k_max=8, n_max=100)
    ok = generic.passed
    worst = generic.worst_magnitude
    for p, k in ((0.5, 1), (2 / 3, 2)):   # degenerate p = k/(k+1)
        params = make_params(p, k)
        assert params.degenerate.is_degenerate
        root_set = find_roots(params)
        reference = recurrence_series(params, 100)
        for n in range(101):
            dev = abs(pmf_rootsum(params, root_set, n) - reference[n])
            worst = max(worst, dev)
            if dev > 1e-10:
                ok = False
    acceptance_report(7, "spectral pmf matches recurrence within 1e-10, "
               "degenerate p = k/(k+1) included", ok, f"worst {worst:.2e}")


def test_criterion_08_k1_reduction(acceptance_report):
    ok = True
    for p in EXACT_P_GRID:
        params = make_params(p, 1)
        q = params.q
        for n in range(1, 201):
            if pmf_recurrence(params, n) != p * q ** (n - 1):
                ok = False
        for r in range(1, 11):
            expected = math.factorial(r) * q ** (r - 1) / p ** r
            if factorial_moment(params, r) != expected:
                ok = False
    acceptance_report(8, "k=1 reduces to the geometric distribution bit-exactly", ok)


def test_criterion_09_monte_carlo_consistency(acceptance_report):
    params = make_params(0.5, 2)
    band = 3 * math.sqrt(22 / 1e6)
    attempts = []
    ok = False
    for seed in (20230, 20231):           # one seeded retry allowed
        summary = run_simulation(SimConfig(params=params, trials=1_000_000,
                                           seed=seed))
        fit = gof_report(summary, params)
        attempts.append((seed, summary.sample_mean, fit.p_value))
        if (abs(summary.sample_mean - 6.0) <= band and not fit.flagged
                and not fit.hard_fail):
            ok = True
            break
    seed, sample_mean, p_value = attempts[-1]
    acceptance_report(9, "10^6-sample Monte Carlo run agrees in mean and chi-square fit",
            ok, f"seed {seed}: mean {sample_mean:.5f} "
                f"(band +-{band:.5f}), gof p {p_value:.4f}")


def test_criterion_10_pgf_identity(acceptance_report):
    ok = True
    worst = 0.0
    for p in EXACT_P_GRID:
        for k in range(1, 7):
            params = make_params(p, k)
            for s in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                gap, bound, _ = pgf_series_gap(params, s)
                worst = max(worst, gap)
                if gap > bound:
                    ok = False
            if pgf_eval(params, Fraction(1)) != 1:
                ok = False
    acceptance_report(10, "pgf matches the truncated pmf series within the tail bound; "
                "pgf(1) = 1 exactly", ok, f"worst gap {worst:.2e}")
