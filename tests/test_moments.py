import importlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomk import moments as moments_mod
from geomk.moments import (factorial_moment, factorial_moment_closed,
                           factorial_moment_muselli, factorial_moment_series,
                           mean, moment_report, stirling2, variance)
from geomk.numerics import (ConsistencyError, DomainError, GeomkError,
                            SolverError)
from geomk.params import make_params, qpk
from geomk.pmf import Engine
from geomk.roots import find_roots

# the module, not the package's pmf function of the same name
pmf_mod = importlib.import_module("geomk.pmf")

HALF2 = make_params(Fraction(1, 2), 2)
HALF1 = make_params(Fraction(1, 2), 1)
THIRD2 = make_params(Fraction(1, 3), 2)


class TestFactorialMoment:
    def test_first_moment_fair_coin_double_run(self):
        # 1! f(5) / (1/8)^2 = (3/32) * 64
        assert factorial_moment(HALF2, 1) == 6

    def test_second_moment(self):
        # 2! f(8) / (1/8)^3 = 2 * (13/256) * 512
        assert factorial_moment(HALF2, 2) == 52

    def test_k1_reduction_r2(self):
        assert factorial_moment(HALF1, 2) == 4

    def test_k1_reduction_family(self):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
            params = make_params(p, 1)
            q = params.q
            for r in range(1, 11):
                expected = math.factorial(r) * q ** (r - 1) / p ** r
                assert factorial_moment(params, r) == expected

    def test_r_below_one_rejected(self):
        with pytest.raises(DomainError):
            factorial_moment(HALF2, 0)

    def test_engine_choice_equivalent(self):
        for engine in (Engine.MUSELLI, Engine.CLOSED_FORM):
            assert factorial_moment(HALF2, 2, engine) == 52


class TestThreeRoutes:
    def test_muselli_route_spots(self):
        assert factorial_moment_muselli(HALF2, 1) == 6
        assert factorial_moment_muselli(HALF1, 1) == 2   # geometric mean 1/p
        assert factorial_moment_muselli(HALF2, 2) == 52

    def test_closed_route_spots(self):
        assert factorial_moment_closed(HALF2, 1) == 6
        assert factorial_moment_closed(THIRD2, 1) == 12
        assert factorial_moment_closed(HALF2, 2) == 52

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2),
                                   Fraction(2, 3), Fraction(3, 4)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_bit_agreement(self, p, k):
        params = make_params(p, k)
        for r in range(1, 7):
            reference = factorial_moment(params, r)
            assert factorial_moment_muselli(params, r) == reference
            assert factorial_moment_closed(params, r) == reference

    @pytest.mark.parametrize("p", [1 / 3, 0.5, 0.75])
    def test_float_relative_agreement(self, p):
        params = make_params(p, 3)
        for r in range(1, 9):
            reference = factorial_moment(params, r)
            for route in (factorial_moment_muselli, factorial_moment_closed):
                assert abs(route(params, r) - reference) <= 1e-9 * reference

    @pytest.mark.parametrize("k", [600, 1100])
    @pytest.mark.parametrize("route", [factorial_moment, factorial_moment_muselli,
                                       factorial_moment_closed])
    def test_float_divisor_underflow_is_a_domain_error(self, route, k):
        # (q p^k)^2 = 2^-2(k+1) is 0.0 in double: q p^k itself at k = 1100,
        # only its square at k = 600.
        with pytest.raises(DomainError, match=r"\(q p\^k\)\^2 underflows the float range"):
            route(make_params(0.5, k), 1)
        # Exact mode has no range: mu_(1) = (1 - 2^-k) / 2^-(k+1).
        assert route(make_params(Fraction(1, 2), k), 1) == 2 ** (k + 1) - 2

    @pytest.mark.parametrize("route", [factorial_moment, factorial_moment_muselli,
                                       factorial_moment_closed])
    def test_float_pmf_underflow_is_a_domain_error(self, route):
        # f(325) = 0.9 * 0.1^324 is below the double range, (q p^k)^163 is not
        with pytest.raises(DomainError, match=(
                r"^factorial moment r=162 of \(p=0\.9, k=1, float\): f\(325\) "
                r"underflows the float range; use exact mode$")):
            route(make_params(0.9, 1), 162)
        # f(309) to f(323) are subnormal: a quotient by one has lost bits
        # (1.2e-2 relative at r = 161), so it is refused too.
        for r in (154, 161):
            with pytest.raises(DomainError, match=(
                    rf"^factorial moment r={r} .*: f\({2 * r + 1}\) underflows")):
                route(make_params(0.9, 1), r)
        # f(307) = 9e-307 is normal: r = 153 is still a float moment.
        exact = float(factorial_moment(make_params(Fraction(0.9), 1), 153))
        assert abs(route(make_params(0.9, 1), 153) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("route", [factorial_moment, factorial_moment_muselli,
                                       factorial_moment_closed])
    def test_float_subnormal_divisor_is_a_domain_error(self, route):
        # (q p^k)^2 = 5.4e-320 is subnormal, q p^k = 2.3e-160 is not
        with pytest.raises(DomainError, match=r"\(q p\^k\)\^2 underflows the float range"):
            route(make_params(0.3, 305), 1)


class TestMeanVariance:
    @pytest.mark.parametrize("params,expected", [
        (HALF2, 6), (HALF1, 2), (THIRD2, 12),
    ])
    def test_mean_values(self, params, expected):
        assert mean(params) == expected

    @pytest.mark.parametrize("params,expected", [
        (HALF2, 22),   # 64 - 40 - 2
        (HALF1, 2),    # geometric q/p^2
    ])
    def test_variance_values(self, params, expected):
        assert variance(params) == expected

    def test_mean_is_first_factorial_moment(self):
        for p in (Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
            for k in range(1, 7):
                params = make_params(p, k)
                assert factorial_moment(params, 1) == mean(params)

    def test_variance_identity_exact(self):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            for k in range(1, 7):
                params = make_params(p, k)
                mu1 = factorial_moment(params, 1)
                mu2 = factorial_moment(params, 2)
                assert mu2 - mu1 ** 2 + mu1 == variance(params)

    @pytest.mark.parametrize("p", [1 - 2 ** -20, 1 - 2 ** -40, 0.999999999])
    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_float_near_one_is_correctly_rounded(self, p, k):
        # 1 - p^k and the three variance terms cancel in floats near p = 1
        params = make_params(p, k)
        pf = Fraction(p)
        c = (1 - pf) * pf ** k
        want_mean = (1 - pf ** k) / c
        want_var = 1 / c ** 2 - (2 * k + 1) / c - pf / (1 - pf) ** 2
        for got, want in ((mean(params), want_mean),
                          (variance(params), want_var)):
            assert isinstance(got, float)
            assert abs(Fraction(got) - want) <= 1e-12 * want

    def test_float_beyond_double_range_is_domain_error(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            mean(make_params(0.5, 1100))
        with pytest.raises(DomainError, match="exceeds the float range"):
            variance(make_params(0.5, 600))


    @pytest.mark.parametrize("ab", [(1, 2), (1, 3), (2, 3), (37, 100)])
    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_exact_values_are_the_fraction_forms(self, ab, k):
        params = make_params(Fraction(*ab), k)
        p, q, c = params.p, params.q, qpk(params)
        for got, want in ((mean(params), (1 - p ** k) / c),
                          (variance(params),
                           1 / c ** 2 - (2 * k + 1) / c - p / q ** 2)):
            assert type(got) is Fraction
            assert got == want


class TestFloatRange:
    """A float moment past the double range is a DomainError, never a raw
    OverflowError, an infinity or a nan."""

    def test_factorial_moment(self):
        # 171! alone is past 1.8e308
        assert math.isfinite(factorial_moment(make_params(0.5, 1), 170))
        with pytest.raises(DomainError, match=(
                r"^factorial moment r=171 of \(p=0\.5, k=1, float\) exceeds "
                r"the float range; use exact mode$")):
            factorial_moment(make_params(0.5, 1), 171)

    # (k, r_max, the first moment made past 1.8e308, the last finite r_max):
    # every factorial moment is made before any raw one
    @pytest.mark.parametrize("k,r_max,what,finite", [
        (2, 140, "factorial moment r=133", 130),
        (2, 132, "raw moment r=131", 130),
        (1, 165, "raw moment r=160", 159),
    ])
    def test_report_names_the_first_bad_moment(self, k, r_max, what, finite):
        with pytest.raises(DomainError, match=(
                rf"^{what} of \(p=0\.5, k={k}, float\) exceeds the float "
                rf"range; use exact mode$")):
            moment_report(make_params(0.5, k), r_max)
        report = moment_report(make_params(0.5, k), finite)
        assert all(map(math.isfinite, report.factorial + report.raw
                       + report.central))
        # exact mode has no range
        assert moment_report(make_params(Fraction(1, 2), k), r_max).raw


class TestStirling:
    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(6, 1) == 1
        assert stirling2(6, 6) == 1
        assert stirling2(3, 5) == 0

    def test_row_sums_are_bell_numbers(self):
        bell = [1, 2, 5, 15, 52, 203]
        for m, expected in enumerate(bell, start=1):
            assert sum(stirling2(m, j) for j in range(1, m + 1)) == expected


class TestMomentReport:
    def test_fair_coin_double_run(self):
        report = moment_report(HALF2, 2)
        assert report.factorial == (6, 52)
        assert report.raw == (6, 58)       # E[N^2] = mu_(2) + mu_(1)
        assert report.central == (22,)
        assert report.mean == 6
        assert report.variance == 22

    def test_geometric(self):
        report = moment_report(HALF1, 2)
        assert report.factorial == (2, 4)
        assert report.raw == (2, 6)
        assert report.central == (2,)

    def test_r_max_zero_rejected(self):
        with pytest.raises(DomainError):
            moment_report(HALF2, 0)

    def test_positivity_and_growth(self):
        report = moment_report(make_params(Fraction(2, 3), 3), 8)
        assert all(m > 0 for m in report.factorial)
        assert all(b > a for a, b in zip(report.factorial, report.factorial[1:]))

    def test_variance_consistent_with_central(self):
        report = moment_report(make_params(Fraction(3, 4), 2), 4)
        assert report.central[0] == report.variance

    def test_to_dict_exact_values_are_strings(self):
        payload = moment_report(HALF2, 2).to_dict()
        assert payload["factorial"] == ["6", "52"]
        assert payload["mean"] == "6"

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(2, 50).flatmap(
               lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
           st.integers(1, 8), st.integers(1, 12),
           st.sampled_from([Engine.RECURRENCE, Engine.MUSELLI,
                            Engine.CLOSED_FORM]))
    def test_exact_conversions_are_the_fraction_sums(self, ab, k, r_max, engine):
        report = moment_report(make_params(Fraction(*ab), k), r_max, engine)
        raw, central = _fraction_conversions(report.factorial)
        assert all(type(v) is Fraction for v in report.raw + report.central)
        assert report.raw == raw
        assert report.central == central

    def test_exact_conversions_at_r_max_40(self):
        params = make_params(Fraction(37, 100), 8)
        report = moment_report(params, 40)
        assert (report.raw, report.central) == _fraction_conversions(report.factorial)
        assert report.raw[0] == report.mean == mean(params)
        assert report.central[0] == report.variance == variance(params)

    def test_factorial_moment_off_the_common_denominator_raises(self, monkeypatch):
        # mu_(r) D^(r+1) is an integer for D = c a^k (here 1 * 1^2 = 1 over
        # b = 2); a value with a factor 3 in its denominator is not.
        true = moments_mod._factorial_moments
        monkeypatch.setattr(moments_mod, "_factorial_moments",
                            lambda *args: map(Fraction(1, 3).__add__, true(*args)))
        with pytest.raises(ConsistencyError, match="r=1"):
            moment_report(HALF2, 3)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(2, 50).flatmap(
               lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
           st.integers(1, 8), st.integers(1, 12), st.booleans(),
           st.sampled_from(list(Engine)))
    @example((3, 4), 2, 12, False, Engine.MUSELLI)    # heavy cancellation
    def test_report_is_the_per_r_loop(self, ab, k, r_max, exact, engine):
        # one pass over every r gives each r's value
        params = make_params(Fraction(*ab) if exact else ab[0] / ab[1], k)
        if engine is Engine.ROOT_SUM:
            assume(not exact)
            try:
                find_roots(params)
            except SolverError:
                assume(False)
        expected = []
        try:
            for r in range(1, r_max + 1):
                expected.append(factorial_moment(params, r, engine))
        except GeomkError as exc:
            with pytest.raises(type(exc)):
                moment_report(params, r_max, engine)
            return
        if not all(value > 0 for value in expected):
            with pytest.raises(ConsistencyError):
                moment_report(params, r_max, engine)
            return
        report = moment_report(params, r_max, engine)
        assert [repr(v) for v in report.factorial] == [repr(v) for v in expected]

    def test_exact_report_walks_the_kernel_once(self, monkeypatch):
        walks = []
        kernel = pmf_mod._scaled_pmf

        def counting(*args):
            walks.append(args)
            return kernel(*args)

        monkeypatch.setattr(pmf_mod, "_scaled_pmf", counting)
        params = make_params(Fraction(37, 100), 8)
        report = moment_report(params, 40)
        assert len(walks) == 1
        assert report.factorial[-1] == factorial_moment(params, 40)


@pytest.mark.parametrize("p", [0.5, Fraction(1, 2)])
def test_series_oracle_walks_the_kernel_once(p, monkeypatch):
    walks = {"_float_pmf": 0, "_scaled_pmf": 0}
    for name in walks:
        kernel = getattr(moments_mod, name)

        def counting(*args, _name=name, _kernel=kernel):
            walks[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(moments_mod, name, counting)
    factorial_moment_series(make_params(p, 3), 4)
    exact = isinstance(p, Fraction)
    assert walks == {"_float_pmf": 0 if exact else 1, "_scaled_pmf": int(exact)}


def _fraction_conversions(factorial):
    """(raw, central) from factorial moments by Fraction-by-Fraction
    Stirling and binomial sums."""
    r_max = len(factorial)
    raw = [sum(stirling2(m, j) * factorial[j - 1] for j in range(1, m + 1))
           for m in range(1, r_max + 1)]
    moments = [Fraction(1)] + raw
    mu = factorial[0]
    central = [sum(math.comb(m, i) * moments[i] * (-mu) ** (m - i)
                   for i in range(m + 1))
               for m in range(2, r_max + 1)]
    return tuple(raw), tuple(central)


class TestSeriesOracle:
    def test_exact_gap_is_the_tail(self):
        oracle = factorial_moment_series(HALF2, 3)
        for r in range(1, 4):
            gap = factorial_moment(HALF2, r) - oracle.sums[r - 1]
            assert gap > 0                      # truncation only discards mass
            assert float(gap) <= oracle.bounds[r - 1]

    def test_relative_tightness(self):
        oracle = factorial_moment_series(HALF2, 3)
        for r in range(1, 4):
            assert oracle.bounds[r - 1] <= 1e-15 * float(oracle.sums[r - 1])

    def test_float_mode(self):
        # float bounds cover the truncated tail only; the rounding of the
        # float walk and sums gets an allowance of its own
        params = make_params(0.5, 2)
        oracle = factorial_moment_series(params, 2)
        for r in (1, 2):
            reference = factorial_moment(params, r)
            rounding = 1e-12 * reference
            assert abs(oracle.sums[r - 1] - reference) <= (
                oracle.bounds[r - 1] + rounding)

    def test_degenerate_pair(self):
        params = make_params(Fraction(2, 3), 2)
        assert params.degenerate
        oracle = factorial_moment_series(params, 2)
        for r in (1, 2):
            gap = factorial_moment(params, r) - oracle.sums[r - 1]
            assert 0 < float(gap) <= oracle.bounds[r - 1]

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            factorial_moment_series(HALF2, 0)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(2, 20).flatmap(
               lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
           st.integers(1, 6), st.integers(1, 6), st.integers(0, 100))
    @example((1, 2), 1, 6, 0)
    @example((2, 3), 2, 6, 0)
    def test_tail_bound_holds_at_every_n(self, ab, k, r_max, extra):
        # The bound the oracle stops on, at any n >= k: it dominates the
        # exact tail mu_(r) - S_r, and at k = 1 it is that tail.
        params = make_params(Fraction(*ab), k)
        n = k + extra
        f = pmf_mod.recurrence_series(params, n + k + 1)
        partial = [sum(math.perm(j, r) * f[j] for j in range(n + 1))
                   for r in range(1, r_max + 1)]
        tail = math.nextafter(float(f[n + k + 1] / qpk(params)), math.inf)
        bounds = moments_mod._tail_bounds(tail, n, [float(s) for s in partial])
        for r, (s, bound) in enumerate(zip(partial, bounds), start=1):
            gap = factorial_moment(params, r) - s
            assert 0 < gap and float(gap) <= bound
            if k == 1:
                assert bound <= float(gap) * (1 + 1e-11)

    @pytest.mark.parametrize("q", [Fraction(1, 10 ** 20), Fraction(1, 10 ** 400)])
    def test_p_that_rounds_to_one(self, q):
        # float(p) is 1.0, which no float params accept; the exact oracle
        # needs no float twin and stops at once.
        params = make_params(1 - q, 3)
        oracle = factorial_moment_series(params, 2)
        assert oracle.n_terms == 3
        for r in (1, 2):
            gap = factorial_moment(params, r) - oracle.sums[r - 1]
            assert 0 < gap and float(gap) <= oracle.bounds[r - 1]

    def test_unreachable_tolerance_fails_fast(self, monkeypatch):
        # At k = 30, q p^k = 2^-31: the tail shrinks by about 5e-10 a term,
        # so the oracle would sum its 4M-term cap of ever-wider integers
        # first.  At k = 53 the principal root rounds to 1, and at k = 2000
        # p^k is below the double range.
        def kernel(*args):
            raise AssertionError("the oracle started summing")

        monkeypatch.setattr(moments_mod, "_scaled_pmf", kernel)
        for k in (17, 20, 30, 53, 2000):
            start = time.perf_counter()
            with pytest.raises(SolverError, match="cannot reach"):
                factorial_moment_series(make_params(Fraction(1, 2), k), 2)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p,k,r_max", [
        (Fraction(1, 2), 2, 3), (Fraction(2, 3), 1, 2), (Fraction(3, 10), 3, 2),
        (Fraction(2, 3), 2, 2), (0.5, 2, 2), (0.8, 4, 4)])
    def test_cap_at_the_stopping_point_still_finishes(self, p, k, r_max,
                                                      monkeypatch):
        # The precheck never refuses an oracle that stops within the cap:
        # with the cap at exactly the terms it sums, the result is unchanged,
        # and one term fewer fails.
        params = make_params(p, k)
        oracle = factorial_moment_series(params, r_max)
        monkeypatch.setattr(moments_mod, "_MAX_ORACLE_TERMS", oracle.n_terms - k)
        assert factorial_moment_series(params, r_max) == oracle
        monkeypatch.setattr(moments_mod, "_MAX_ORACLE_TERMS",
                            oracle.n_terms - k - 1)
        with pytest.raises(SolverError):
            factorial_moment_series(params, r_max)

    @pytest.mark.parametrize("p,k,r_max", [
        (0.5, 4, 100), (Fraction(1, 2), 4, 100), (0.9, 3, 120)])
    def test_terms_past_the_double_range_raise_solver_error(self, p, k, r_max):
        # n^(r) reaches 1.8e308 before the tail is small: a float term, the
        # float partial sum of the exact oracle, or the tail bound overflows.
        with pytest.raises(SolverError, match="double range"):
            factorial_moment_series(make_params(p, k), r_max)

    @pytest.mark.parametrize("estimate", [math.inf, math.nan, 0.0])
    def test_no_finite_estimate_skips_the_precheck(self, estimate, monkeypatch):
        oracle = factorial_moment_series(HALF2, 3)
        monkeypatch.setattr(moments_mod.roots_mod, "tail_estimate",
                            lambda params, n: estimate)
        monkeypatch.setattr(moments_mod, "_MAX_ORACLE_TERMS", oracle.n_terms - 2)
        assert factorial_moment_series(HALF2, 3) == oracle


def test_qpk_denominator_matches_moment_scaling():
    # mu_(1) * (q p^k)^2 must equal f(2k+1) exactly
    from geomk.pmf import pmf_recurrence
    for p in (Fraction(1, 3), Fraction(2, 5)):
        for k in (1, 2, 3):
            params = make_params(p, k)
            lhs = factorial_moment(params, 1) * qpk(params) ** 2
            assert lhs == pmf_recurrence(params, 2 * k + 1)
