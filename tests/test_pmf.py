import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk.cli import main
from geomk.numerics import (ConsistencyError, DomainError, Mode, ModeError,
                            PrecisionWarning, SolverError)
from geomk.params import make_params
from geomk.pmf import (Engine, _closedform_values, _muselli_values,
                       _rootsum_values, build_table, pgf_eval, pmf,
                       pmf_closedform, pmf_muselli, pmf_recurrence,
                       pmf_rootsum, recurrence_series)
from geomk.roots import RootSet, find_roots, spectral_coefficients

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

    def test_precision_warning_on_heavy_cancellation(self):
        params = make_params(0.5, 1)
        with pytest.warns(PrecisionWarning,
                          match=r"^pmf_muselli\(n=100, \(p=0\.5, k=1, float\)\): "
                                r"precision degraded \(sum of \|terms\| = ") as caught:
            value = pmf_muselli(params, 100)
        assert [w.filename for w in caught] == [__file__]
        # the value is still correctly rounded despite the warning
        assert value == pytest.approx(0.5 ** 100, rel=1e-12)


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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PrecisionWarning)
                batch = [v.hex() for v in values(floats, ns)]
                lone = [single(floats, n).hex() for n in ns]
            assert batch == lone


class TestRootSum:
    def test_degenerate_k1_spot(self):
        # p = 1/2, k = 1 sits exactly at k/(k+1); second branch gives pq^2
        params = make_params(0.5, 1)
        root_set = find_roots(params)
        assert params.degenerate.is_degenerate
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
        # non-degenerate params with a root planted on the singular pivot
        params = make_params(0.31, 2)
        pivot = 2 / 3
        fake = RootSet(roots=(complex(pivot, 0.0), complex(-0.2, 0.0)),
                       principal_index=0,
                       residuals=(0.0, 0.0), degenerate=params.degenerate)
        with pytest.raises(ConsistencyError):
            pmf_rootsum(params, fake, 5)


class TestRootSumLoop:
    """The one rootsum loop gives, bit for bit, the per-n spectral sum."""

    # p = 1/2 (k = 1), 2/3 (k = 2) and 0.75 (k = 3) are the degenerate
    # p = k/(k+1), which take the weight-2 branch.
    GRID = [(p, k) for p in (0.5, 2 / 3, 0.75, 0.2, 0.37, 0.9)
            for k in (1, 2, 3, 7)]

    @staticmethod
    def _per_n(params, root_set, n):
        if n < params.k:
            return 0.0
        weights = spectral_coefficients(params, root_set)
        acc = sum(c * z ** (n - params.k) for c, z in zip(weights, root_set.roots))
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

    def test_degenerate_grid_is_flagged(self):
        flags = {(p, k) for p, k in self.GRID
                 if make_params(p, k).degenerate.is_degenerate}
        assert flags == {(0.5, 1), (2 / 3, 2), (0.75, 3)}

    def test_foreign_root_set_rejected(self):
        root_set = find_roots(make_params(0.3, 2))
        with pytest.raises(ConsistencyError):
            next(_rootsum_values(make_params(0.7, 2), root_set, range(5)))


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

    @pytest.mark.filterwarnings("ignore::geomk.numerics.PrecisionWarning")
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
        with warnings.catch_warnings(record=True) as table_warnings:
            warnings.simplefilter("always", PrecisionWarning)
            table = build_table(params, engine, 80)
        with warnings.catch_warnings(record=True) as point_warnings:
            warnings.simplefilter("always", PrecisionWarning)
            points = [single(params, n) for n in range(81)]
        assert [v.hex() for v in table.entries] == [v.hex() for v in points]
        messages = [str(w.message) for w in table_warnings]
        assert messages == [str(w.message) for w in point_warnings]
        assert messages and messages[0].startswith(f"{single.__name__}(n=")

    def test_rootsum_table_needs_float(self):
        with pytest.raises(ModeError):
            build_table(HALF2, Engine.ROOT_SUM, 10)


def test_engine_dispatch_covers_all_variants():
    params = make_params(0.5, 2)
    for engine in Engine:
        value = pmf(params, 5, engine)
        assert value == pytest.approx(0.09375, abs=1e-10)


@pytest.mark.filterwarnings("ignore::geomk.numerics.PrecisionWarning")
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
