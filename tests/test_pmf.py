import json
import math
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomk.cli import main
from geomk.moments import factorial_moment, moment_report
from geomk.numerics import (ConsistencyError, DomainError, Mode, ModeError,
                            SolverError)
from geomk.params import make_params, qpk
from geomk.pmf import (Engine, _closedform_values, _muselli_values,
                       _rootsum_values, build_table, pgf_eval, pmf,
                       pmf_closedform, pmf_muselli, pmf_recurrence,
                       pmf_rootsum, recurrence_series)
from geomk.roots import RootSet, find_roots, spectral_coefficients

pmf_mod = sys.modules["geomk.pmf"]    # the package's `pmf` is the function
BLOCK = pmf_mod._POWER_BLOCK           # rootsum's powers split at B q + r
HALF2 = make_params(Fraction(1, 2), 2)
ALL_SUM_ENGINES = [pmf_recurrence, pmf_muselli, pmf_closedform]


class TestRecurrence:
    @pytest.mark.parametrize("n,expected", [
        (0, Fraction(0)),
        (1, Fraction(0)),          # below the support
        (2, Fraction(1, 4)),       # p^k at n = k
        (3, Fraction(1, 8)),
        (4, Fraction(1, 8)),
        (5, Fraction(3, 32)),      # q f(4) + pq f(3) = 1/16 + 1/32
        (8, Fraction(13, 256)),
    ])
    def test_hand_unrolled_values(self, n, expected):
        assert pmf_recurrence(HALF2, n) == expected

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            pmf_recurrence(HALF2, -1)

    def test_series_matches_pointwise(self):
        series = recurrence_series(HALF2, 40)
        assert series == [pmf_recurrence(HALF2, n) for n in range(41)]

    def test_k1_is_geometric(self):
        params = make_params(Fraction(1, 3), 1)
        for n in range(1, 40):
            assert pmf_recurrence(params, n) == Fraction(1, 3) * Fraction(2, 3) ** (n - 1)

    def test_strictly_positive_on_support(self):
        for p in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
            for k in (1, 3, 5):
                series = recurrence_series(make_params(p, k), 120)
                assert all(f > 0 for f in series[k:])


class TestMuselli:
    def test_addendum_conventions_at_n_equals_k(self):
        # single m = 1 term: p^k [C(-1,-1) + q C(-1,0)] = p^k
        params = make_params(Fraction(3, 10), 3)
        assert pmf_muselli(params, 3) == Fraction(27, 1000)

    def test_n_equals_k_float(self):
        assert pmf_muselli(make_params(0.3, 3), 3) == pytest.approx(0.027, abs=1e-15)

    def test_single_term_case(self):
        assert pmf_muselli(HALF2, 2) == Fraction(1, 4)

    def test_matches_recurrence_spot(self):
        assert pmf_muselli(HALF2, 5) == Fraction(3, 32)

    def test_below_support_empty_sum(self):
        assert pmf_muselli(HALF2, 1) == 0
        assert pmf_muselli(HALF2, 0) == 0

    def test_heavy_cancellation_is_correctly_rounded(self):
        # Sum |terms| is over 1e6 times the result at each point, and past
        # the double range (with f(n) below it) at the last two.  For
        # p >= 1/2 the stored q = fl(1 - p) is exact, so float(exact) at
        # Fraction(p) is the correctly rounded answer.
        for p, k, n in [(0.5, 2, 60), (0.75, 2, 400), (0.9, 7, 1500),
                        (0.5, 2, 2000), (0.5, 1, 3780), (0.5, 2, 7279)]:
            want = float(pmf_recurrence(make_params(Fraction(p), k), n)).hex()
            for single in (pmf_muselli, pmf_closedform):
                assert single(make_params(p, k), n).hex() == want, (single, p, k, n)


class TestClosedForm:
    def test_plateau_branch(self):
        assert pmf_closedform(HALF2, 4) == Fraction(1, 8)  # q p^k on [k+1, 2k]

    def test_beyond_plateau(self):
        assert pmf_closedform(HALF2, 5) == Fraction(3, 32)
        assert pmf_closedform(HALF2, 8) == Fraction(13, 256)

    def test_below_support(self):
        assert pmf_closedform(HALF2, 1) == 0

    def test_at_k(self):
        assert pmf_closedform(HALF2, 2) == Fraction(1, 4)


class TestCrossEngine:
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 5), Fraction(7, 8)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_bit_equality(self, p, k):
        params = make_params(p, k)
        reference = recurrence_series(params, 60)
        for n in range(61):
            assert pmf_muselli(params, n) == reference[n]
            assert pmf_closedform(params, n) == reference[n]

    @pytest.mark.parametrize("engine", ALL_SUM_ENGINES)
    def test_plateau_every_engine(self, engine):
        for p in (Fraction(1, 4), Fraction(2, 3)):
            for k in (1, 2, 4):
                params = make_params(p, k)
                plateau = params.q * params.p ** k
                for n in range(k + 1, 2 * k + 1):
                    assert engine(params, n) == plateau

    @settings(max_examples=40, deadline=None)
    @given(num=st.integers(min_value=1, max_value=19),
           den=st.integers(min_value=2, max_value=20),
           k=st.integers(min_value=1, max_value=5),
           n=st.integers(min_value=0, max_value=80))
    def test_exact_equality_property(self, num, den, k, n):
        if num >= den:
            return
        params = make_params(Fraction(num, den), k)
        value = pmf_recurrence(params, n)
        assert pmf_muselli(params, n) == value
        assert pmf_closedform(params, n) == value

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(min_value=1, max_value=59),
           den=st.integers(min_value=2, max_value=60),
           k=st.integers(min_value=1, max_value=8),
           ns=st.lists(st.integers(min_value=0, max_value=120), min_size=1,
                       max_size=30))
    def test_term_generators_match_single_points(self, num, den, k, ns):
        # one pass over ns, in any order and with repeats, shares its powers
        # of b across n; each value must still be the lone call's
        if num >= den:
            return
        exact = make_params(Fraction(num, den), k)
        floats = make_params(num / den, k)
        reference = recurrence_series(exact, 120)
        for values, single in ((_muselli_values, pmf_muselli),
                               (_closedform_values, pmf_closedform)):
            assert list(values(exact, ns)) == [reference[n] for n in ns]
            assert list(values(exact, ns)) == [single(exact, n) for n in ns]
            batch = [v.hex() for v in values(floats, ns)]
            lone = [single(floats, n).hex() for n in ns]
            assert batch == lone


class TestRootSum:
    def test_degenerate_k1_spot(self):
        # p = 1/2, k = 1 sits exactly at k/(k+1); second branch gives pq^2
        params = make_params(0.5, 1)
        root_set = find_roots(params)
        assert params.degenerate
        assert pmf_rootsum(params, root_set, 3) == pytest.approx(0.125, abs=1e-12)

    def test_matches_recurrence_spot(self):
        params = make_params(0.5, 2)
        root_set = find_roots(params)
        assert pmf_rootsum(params, root_set, 5) == pytest.approx(0.09375, abs=1e-12)

    def test_at_support_start(self):
        params = make_params(0.3, 3)
        root_set = find_roots(params)
        assert pmf_rootsum(params, root_set, 3) == pytest.approx(0.027, abs=1e-12)

    def test_degenerate_pair_against_recurrence(self):
        params = make_params(2 / 3, 2)
        root_set = find_roots(params)
        reference = recurrence_series(params, 100)
        for n in range(101):
            assert abs(pmf_rootsum(params, root_set, n) - reference[n]) <= 1e-10

    def test_below_support(self):
        params = make_params(0.4, 3)
        root_set = find_roots(params)
        assert pmf_rootsum(params, root_set, 2) == 0.0

    def test_exact_mode_rejected(self):
        with pytest.raises(ModeError):
            pmf(HALF2, 5, Engine.ROOT_SUM)

    def test_foreign_root_set_rejected(self):
        params_a = make_params(0.3, 2)
        params_b = make_params(0.7, 2)
        root_set = find_roots(params_a)
        with pytest.raises(ConsistencyError):
            pmf_rootsum(params_b, root_set, 5)

    def test_degeneracy_flag_mismatch_rejected(self):
        # a principal root planted at 2/3, the degenerate point of k = 2,
        # does not solve the identity of p = 0.31: the principal-residual
        # check rejects the set before any weight is computed
        params = make_params(0.31, 2)
        pivot = 2 / 3
        fake = RootSet(roots=(complex(pivot, 0.0), complex(-0.2, 0.0)),
                       principal_index=0, residuals=(0.0, 0.0))
        with pytest.raises(ConsistencyError):
            pmf_rootsum(params, fake, 5)


class TestRootSumLoop:
    """The one rootsum loop gives, bit for bit, the per-n spectral sum."""

    # p = 1/2 (k = 1), 2/3 (k = 2) and 0.75 (k = 3) are the degenerate
    # p = k/(k+1), where the residue weights need no branch.
    GRID = [(p, k) for p in (0.5, 2 / 3, 0.75, 0.2, 0.37, 0.9)
            for k in (1, 2, 3, 7)]

    @staticmethod
    def _per_n(params, root_set, n):
        # lambda^(n-k) = lambda^(B q) lambda^r, the weight on the head
        if n < params.k:
            return 0.0
        q, r = divmod(n - params.k, BLOCK)
        weights = spectral_coefficients(params, root_set)
        acc = sum(c * z ** (BLOCK * q) * z ** r
                  for c, z in zip(weights, root_set.roots))
        return acc.real

    @pytest.mark.parametrize("p,k", GRID)
    def test_loop_equals_pointwise(self, p, k):
        params = make_params(p, k)
        root_set = find_roots(params)
        n_max = 150
        values = list(_rootsum_values(params, root_set, range(n_max + 1)))
        assert values == [pmf_rootsum(params, root_set, n) for n in range(n_max + 1)]
        assert values == [self._per_n(params, root_set, n) for n in range(n_max + 1)]

    @pytest.mark.parametrize("p,k", GRID)
    def test_table_entries_equal_pointwise(self, p, k):
        params = make_params(p, k)
        table = build_table(params, Engine.ROOT_SUM, 80)
        root_set = find_roots(params)
        assert list(table.entries) == [pmf_rootsum(params, root_set, n)
                                       for n in range(81)]

    # n - k at the edges of the first two blocks of powers
    EDGES = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
             2 * BLOCK + 1)

    @pytest.mark.parametrize("p,k", GRID)
    def test_block_edges_agree_bit_for_bit(self, p, k):
        params = make_params(p, k)
        root_set = find_roots(params)
        ns = [k + d for d in self.EDGES]
        dense = list(_rootsum_values(params, root_set, range(ns[-1] + 1)))
        sparse = list(_rootsum_values(params, root_set, ns))
        for n, value in zip(ns, sparse):
            pointwise = pmf_rootsum(params, root_set, n)
            assert value.hex() == dense[n].hex() == pointwise.hex(), n
            assert pmf(params, n, Engine.ROOT_SUM).hex() == pointwise.hex(), n

    @pytest.mark.parametrize("p,k", [(0.37, 2), (2 / 3, 2), (0.9, 7)])
    def test_moment_points_agree_bit_for_bit(self, p, k):
        # factorial_moment through rootsum reads f at n_r = (r + 1) k + r
        params = make_params(p, k)
        root_set = find_roots(params)
        rs = range(1, 13)
        ns = [(r + 1) * k + r for r in rs]
        dense = list(_rootsum_values(params, root_set, range(ns[-1] + 1)))
        sparse = list(_rootsum_values(params, root_set, ns))
        report = moment_report(params, rs[-1], Engine.ROOT_SUM)
        for r, n, value, batched in zip(rs, ns, sparse, report.factorial):
            pointwise = pmf_rootsum(params, root_set, n)
            assert value.hex() == dense[n].hex() == pointwise.hex(), n
            single = factorial_moment(params, r, Engine.ROOT_SUM)
            assert single.hex() == batched.hex()
            assert single == math.factorial(r) * pointwise / qpk(params) ** (r + 1)

    def test_degenerate_grid_is_flagged(self):
        flags = {(p, k) for p, k in self.GRID
                 if make_params(p, k).degenerate}
        assert flags == {(0.5, 1), (2 / 3, 2), (0.75, 3)}

    def test_foreign_root_set_rejected(self):
        root_set = find_roots(make_params(0.3, 2))
        with pytest.raises(ConsistencyError):
            next(_rootsum_values(make_params(0.7, 2), root_set, range(5)))


# offsets from k/(k+1): 0, any |delta| <= 1e-5, and each decade down to
# 1e-16, where Feller's form of the weights loses up to 1e-5 relative
_NEAR_PIVOT = (st.just(0.0) | st.floats(min_value=-1e-5, max_value=1e-5)
               | st.builds(lambda sign, e: sign * 10.0 ** e,
                           st.sampled_from((-1.0, 1.0)),
                           st.floats(min_value=-16.0, max_value=-5.0)))


class TestNearDegenerate:
    """Float rootsum keeps full precision at and around p = k/(k+1)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(min_value=1, max_value=20), delta=_NEAR_PIVOT)
    @example(k=8, delta=1e-11)
    @example(k=8, delta=0.0)
    def test_rootsum_matches_exact_values(self, k, delta):
        p = k / (k + 1) + delta
        params = make_params(p, k)
        exact = recurrence_series(make_params(Fraction(p), k), 300)
        values = _rootsum_values(params, find_roots(params), range(301))
        for value, reference in zip(values, map(float, exact)):
            if reference >= sys.float_info.min:
                assert abs(value - reference) <= 1e-12 * reference


def _stored_q_exact(params, n_max):
    """f(0..n_max) and P(N > n_max) = f(n_max + k + 1) / (q p^k) of float
    params at the binary rationals p and q = fl(1 - p) they store: kernel
    integers over powers of b, each rounded by one int/int division."""
    a, c, b = pmf_mod._scaled_pq(params)
    k = params.k
    walk = pmf_mod._scaled_pmf(a, c, k)
    values, power = [0.0] * k, b ** k
    for g in islice(walk, n_max - k + 1):
        values.append(g / power)
        power *= b
    far = next(islice(walk, k, None))       # g(n_max + k + 1)
    return values, far / (power // b * c * a ** k)


class TestRootSumError:
    """Float rootsum is within 1e-12 relative of the stored-q model's exact
    value, wherever that value is a normal double (README)."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=st.floats(min_value=0.05, max_value=0.95),
           k=st.integers(min_value=1, max_value=40),
           n_max=st.integers(min_value=40, max_value=2100))
    @example(p=0.37, k=12, n_max=2100)
    @example(p=2 / 3, k=2, n_max=2 * BLOCK + 3)
    def test_table_and_tail_within_relative_bound(self, p, k, n_max):
        params = make_params(p, k)
        try:
            table = build_table(params, Engine.ROOT_SUM, n_max)
        except SolverError:
            assume(False)
        exact, tail = _stored_q_exact(params, n_max)
        for n, (value, reference) in enumerate(zip(table.entries, exact)):
            if reference >= sys.float_info.min:
                assert abs(value - reference) <= 1e-12 * reference, n
        if tail >= sys.float_info.min:
            assert abs(table.tail_bound - tail) <= 1e-12 * tail


class TestPgf:
    def test_zero_at_origin(self):
        assert pgf_eval(HALF2, Fraction(0)) == 0
        assert pgf_eval(make_params(0.37, 4), 0.0) == 0.0

    def test_one_at_one_exact(self):
        for p in (Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
            for k in (1, 2, 5):
                assert pgf_eval(make_params(p, k), Fraction(1)) == 1

    def test_hand_value(self):
        # p=1/2, k=2, s=1/2: (3/64) / (33/64)
        assert pgf_eval(HALF2, Fraction(1, 2)) == Fraction(1, 11)

    def test_truncated_series_match(self):
        s = Fraction(1, 2)
        series = recurrence_series(HALF2, 220)
        partial = sum(f * s ** n for n, f in enumerate(series))
        assert abs(float(pgf_eval(HALF2, s) - partial)) < 1e-12

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            pgf_eval(HALF2, Fraction(3, 2))

    def test_mode_guard(self):
        with pytest.raises(ModeError):
            pgf_eval(HALF2, 0.5)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(2, 50).flatmap(
               lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
           st.integers(1, 40),
           st.integers(1, 20).flatmap(
               lambda v: st.tuples(st.integers(-v, v), st.just(v))))
    def test_exact_value_is_the_fraction_formula(self, ab, k, uv):
        params = make_params(Fraction(*ab), k)
        p, q, s = params.p, params.q, Fraction(*uv)
        expected = p ** k * s ** k * (1 - p * s) / (1 - s + q * p ** k * s ** (k + 1))
        value = pgf_eval(params, s)
        assert type(value) is Fraction
        assert value == expected


class TestBuildTable:
    def test_golden_exact_table(self):
        table = build_table(HALF2, Engine.RECURRENCE, 5)
        assert table.entries == (Fraction(0), Fraction(0), Fraction(1, 4),
                                 Fraction(1, 8), Fraction(1, 8), Fraction(3, 32))
        assert table.cumulative[-1] == Fraction(19, 32)
        assert table.tail_bound is None

    def test_k1_geometric_table(self):
        table = build_table(make_params(Fraction(1, 2), 1), Engine.RECURRENCE, 3)
        assert table.entries == (Fraction(0), Fraction(1, 2), Fraction(1, 4),
                                 Fraction(1, 8))

    def test_n_max_below_k_rejected(self):
        with pytest.raises(DomainError):
            build_table(HALF2, Engine.RECURRENCE, 1)

    @pytest.mark.parametrize("ab,k", [((1, 2), 2), ((37, 100), 3),
                                      ((2, 3), 1), ((3, 4), 5)])
    @pytest.mark.parametrize("engine", [Engine.RECURRENCE, Engine.MUSELLI,
                                        Engine.CLOSED_FORM])
    def test_exact_cumulative_is_the_fraction_running_sum(self, ab, k, engine):
        table = build_table(make_params(Fraction(*ab), k), engine, 60)
        total, sums = Fraction(0), []
        for f in table.entries:
            total += f
            sums.append(total)
        assert list(table.cumulative) == sums
        assert all(type(c) is Fraction for c in table.cumulative)

    def test_exact_recurrence_table_walks_the_kernel_once(self, monkeypatch):
        walks = []
        kernel = pmf_mod._scaled_pmf

        def counting(*args):
            walks.append(args)
            return kernel(*args)

        monkeypatch.setattr(pmf_mod, "_scaled_pmf", counting)
        build_table(make_params(Fraction(37, 100), 2), Engine.RECURRENCE, 200)
        assert len(walks) == 1

    @pytest.mark.parametrize("engine,expected", [
        (Engine.RECURRENCE, 1), (Engine.MUSELLI, 0), (Engine.CLOSED_FORM, 0),
        (Engine.ROOT_SUM, 0)])
    def test_float_table_reads_its_tail_from_its_own_pass(self, monkeypatch,
                                                          engine, expected):
        # f(n_max + k + 1) comes from the table's own engine: only the
        # recurrence table walks the float recurrence, and only once
        walks = []
        kernel = pmf_mod._float_pmf

        def counting(*args):
            walks.append(args)
            return kernel(*args)

        monkeypatch.setattr(pmf_mod, "_float_pmf", counting)
        params = make_params(0.37, 3)
        table = build_table(params, engine, 200)
        assert len(walks) == expected
        assert table.tail_bound == pmf_mod._tail_mass(
            params, pmf(params, 200 + 3 + 1, engine))

    @pytest.mark.parametrize("engine", [Engine.RECURRENCE, Engine.MUSELLI,
                                        Engine.CLOSED_FORM, Engine.ROOT_SUM])
    def test_float_normalization_with_tail_bound(self, engine):
        params = make_params(0.5, 2)
        table = build_table(params, engine, 60)
        assert table.tail_bound is not None
        assert table.cumulative[-1] <= 1.0
        assert table.cumulative[-1] + table.tail_bound >= 1.0 - 1e-12
        diffs = [b - a for a, b in zip(table.cumulative, table.cumulative[1:])]
        assert all(d >= -1e-15 for d in diffs)

    def test_float_tail_bound_is_the_tail_mass(self):
        # P(N > n_max) = f(n_max + k + 1) / (q p^k): every float engine's
        # table carries the exact tail 1 - F(n_max) of its p, to rounding
        for p in [i / 20 for i in range(1, 20)]:
            for k in range(1, 9):
                exact = build_table(make_params(Fraction(p), k),
                                    Engine.RECURRENCE, 120)
                engines = [Engine.RECURRENCE, Engine.MUSELLI, Engine.CLOSED_FORM]
                try:
                    find_roots(make_params(p, k))
                    engines.append(Engine.ROOT_SUM)
                except SolverError:
                    pass
                for n_max in (k, 2 * k + 3, 40, 120):
                    tail = 1 - exact.cumulative[n_max]
                    for engine in engines:
                        bound = build_table(make_params(p, k), engine,
                                            n_max).tail_bound
                        assert abs(bound - tail) <= 1e-12 * tail, (
                            p, k, n_max, engine)

    def test_csv_shape(self, capsys):
        assert main(["table", "--p", "1/2", "--k", "2", "--n-max", "5",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,f,cumulative"
        assert lines[3] == "2,1/4,1/4"
        assert lines[-1] == "5,3/32,19/32"

    def test_json_roundtrip(self, capsys):
        assert main(["table", "--p", "1/2", "--k", "2", "--n-max", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][5] == {"n": 5, "f": "3/32", "cumulative": "19/32"}
        assert payload["engine"] == "recurrence"

    @pytest.mark.parametrize("engine,single", [(Engine.MUSELLI, pmf_muselli),
                                               (Engine.CLOSED_FORM, pmf_closedform)])
    def test_alternating_table_is_one_pass_of_single_points(self, engine, single):
        # p = 0.5, k = 1 cancels heavily from n of about 40 on
        params = make_params(0.5, 1)
        table = build_table(params, engine, 80)
        points = [single(params, n) for n in range(81)]
        assert [v.hex() for v in table.entries] == [v.hex() for v in points]

    def test_rootsum_table_needs_float(self):
        with pytest.raises(ModeError):
            build_table(HALF2, Engine.ROOT_SUM, 10)


def _patched_muselli(monkeypatch, changes):
    """Make the muselli engine yield changes[n] in place of f(n)."""
    original = pmf_mod._muselli_values

    def patched(params, ns):
        for n, value in zip(ns, original(params, ns)):
            yield changes.get(n, value)

    monkeypatch.setattr(pmf_mod, "_muselli_values", patched)


class TestTableValidation:
    """A table whose engine went wrong raises ConsistencyError naming the
    first bad n, whichever check caught it."""

    @pytest.mark.parametrize("bad", [math.nan, -math.nan])
    def test_nan_entry_raises(self, monkeypatch, bad):
        _patched_muselli(monkeypatch, {4: bad})
        with pytest.raises(ConsistencyError,
                           match=r"^pmf value out of \[0,1\] at n=4: nan$"):
            build_table(make_params(0.5, 2), Engine.MUSELLI, 30)

    def test_nan_entry_exits_2_with_one_error_line(self, monkeypatch, capsys):
        _patched_muselli(monkeypatch, {3: math.nan})
        for fmt in ("json", "csv", "text"):
            code = main(["table", "--p", "0.5", "--k", "2", "--n-max", "30",
                         "--mode", "float", "--engine", "muselli",
                         "--format", fmt])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert err == "error: pmf value out of [0,1] at n=3: nan\n"

    # (changes, message); the non-finite values exist in float mode only
    FINITE = [
        ({7: 1.5}, r"pmf value out of \[0,1\] at n=7: "),
        ({7: -0.25}, r"pmf value out of \[0,1\] at n=7: "),
        ({1: 0.125}, r"nonzero pmf below the support at n=1: "),
        ({9: 0.75, 12: 0.75}, r"cumulative mass exceeds 1: "),
        ({3: 0.0625}, r"pmf at n=k is (0.0625|1/16), expected p\^k = "),
    ]
    NON_FINITE = [
        ({7: math.inf}, r"pmf value out of \[0,1\] at n=7: inf"),
        ({7: -math.inf}, r"pmf value out of \[0,1\] at n=7: -inf"),
        # the first bad n wins, whichever check it fails
        ({1: 0.125, 5: math.nan}, r"nonzero pmf below the support at n=1"),
        ({1: math.nan, 5: 2.0}, r"pmf value out of \[0,1\] at n=1: nan"),
    ]

    @pytest.mark.parametrize("p,changes,message",
                             [(0.5, *case) for case in FINITE + NON_FINITE]
                             + [(Fraction(1, 2), *case) for case in FINITE])
    def test_messages_name_the_first_bad_n(self, monkeypatch, p, changes,
                                           message):
        params = make_params(p, 3)
        if params.mode is Mode.EXACT:
            changes = {n: Fraction(v) for n, v in changes.items()}
        _patched_muselli(monkeypatch, changes)
        with pytest.raises(ConsistencyError, match=message):
            build_table(params, Engine.MUSELLI, 30)

    def test_exact_entry_off_the_powers_of_b_raises(self, monkeypatch):
        # a probability that passes every other check, but is no integer
        # over 2^7, so it has no place in the cumulative column's scale
        _patched_muselli(monkeypatch, {7: Fraction(1, 3)})
        with pytest.raises(ConsistencyError, match=(
                r"^pmf value at n=7 of \(p=1/2, k=3, exact\) is not an "
                r"integer over b\^n: 1/3$")):
            build_table(make_params(Fraction(1, 2), 3), Engine.MUSELLI, 30)

    def test_float_tiny_negative_entry_within_slack_passes(self, monkeypatch):
        _patched_muselli(monkeypatch, {20: -1e-11})
        table = build_table(make_params(0.5, 2), Engine.MUSELLI, 30)
        assert table.entries[20] == -1e-11


def test_engine_dispatch_covers_all_variants():
    params = make_params(0.5, 2)
    for engine in Engine:
        value = pmf(params, 5, engine)
        assert value == pytest.approx(0.09375, abs=1e-10)


@pytest.mark.parametrize("p", [Fraction(2, 7), Fraction(3, 4), 2 / 7, 0.75])
@pytest.mark.parametrize("k", [1, 3])
def test_pmf_is_the_table_entry_for_every_engine(p, k):
    # a lone value and a table both come from one engine pass
    params = make_params(p, k)
    for engine in Engine:
        if engine is Engine.ROOT_SUM and params.mode is Mode.EXACT:
            continue
        table = build_table(params, engine, 40)
        assert ([repr(pmf(params, n, engine)) for n in range(41)]
                == [repr(f) for f in table.entries]), engine


def test_normalization_series_sums_to_one():
    # total mass over a long horizon approaches 1 from below
    params = make_params(Fraction(1, 2), 2)
    series = recurrence_series(params, 400)
    total = sum(series)
    assert 0 < 1 - total < Fraction(1, 10 ** 30)
