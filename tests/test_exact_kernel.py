"""The scaled-integer kernel and the integer-summed alternating sums.

Every exact route adds integers and reduces once; these tests pin its
results against plain Fraction arithmetic, and the float alternating sums
against the sum of their exact terms rounded once.
"""

import csv
import decimal
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk.cli import main
from geomk.moments import factorial_moment_series
from geomk.numerics import gen_binomial
from geomk.params import make_params
from geomk.pmf import (Engine, _over_power, _render, build_table,
                       pmf_closedform, pmf_muselli, pmf_recurrence,
                       recurrence_series)
from geomk.simulate import SimConfig, gof_report, run_simulation


def fraction_recurrence(p, k, n_max):
    """f(0..n_max) by the textbook recurrence on Fractions."""
    q = 1 - p
    f = [Fraction(0)] * k + [p ** k]
    for n in range(k + 1, n_max + 1):
        f.append(sum(q * p ** i * f[n - 1 - i] for i in range(k)))
    return f[:n_max + 1]


@st.composite
def rationals(draw):
    b = draw(st.integers(min_value=2, max_value=10 ** 4))
    a = draw(st.integers(min_value=1, max_value=b - 1))
    return Fraction(a, b)


class TestExactRecurrence:
    @settings(max_examples=25, deadline=None)
    @given(p=rationals(), k=st.integers(min_value=1, max_value=12),
           n=st.integers(min_value=0, max_value=400))
    def test_matches_fraction_reference(self, p, k, n):
        params = make_params(p, k)
        expected = fraction_recurrence(p, k, n)
        assert pmf_recurrence(params, n) == expected[n]
        assert recurrence_series(params, n) == expected
        if n >= k:
            table = build_table(params, Engine.RECURRENCE, n)
            assert list(table.entries) == expected
            running, cumulative = Fraction(0), []
            for f in expected:
                running += f
                cumulative.append(running)
            assert list(table.cumulative) == cumulative

    def test_point_equals_series_at_large_n(self):
        params = make_params(Fraction(2, 7), 4)
        assert pmf_recurrence(params, 3000) == recurrence_series(params, 3000)[3000]

    @pytest.mark.parametrize("p,k,r_max,n_terms", [
        (Fraction(1, 2), 2, 3, 256),
        (Fraction(2, 3), 1, 2, 128),
    ])
    def test_series_oracle_sums_unchanged(self, p, k, r_max, n_terms):
        oracle = factorial_moment_series(make_params(p, k), r_max)
        assert oracle.n_terms == n_terms
        f = fraction_recurrence(p, k, n_terms)
        expected = tuple(sum(math.perm(n, r) * f[n] for n in range(n_terms + 1))
                         for r in range(1, r_max + 1))
        assert oracle.sums == expected


def scaled_values(a, b, k, n_max):
    """g(0..n_max) and C(0..n_max) with f(n) = g(n) / b^n and F(n) = C(n) / b^n
    for p = a/b, from g(n) = c sum_{i<k} a^i g(n-1-i) directly."""
    c = b - a
    g = [0] * k + [a ** k]
    for n in range(k + 1, n_max + 1):
        g.append(c * sum(a ** i * g[n - 1 - i] for i in range(k)))
    cumulative, total = [], 0
    for value in g[:n_max + 1]:
        total = total * b + value
        cumulative.append(total)
    return g[:n_max + 1], cumulative


# Denominators with one prime, a prime power, two and many primes, a large
# prime, and large powers of a small prime.
DENOMINATORS = (2, 3, 12, 2 ** 20, 10 ** 3, 2310, 1000003)


@st.composite
def table_args(draw):
    b = draw(st.sampled_from(DENOMINATORS))
    a = draw(st.integers(min_value=1, max_value=b - 1))
    k = draw(st.integers(min_value=1, max_value=10))
    return a, b, k, draw(st.integers(min_value=k, max_value=300))


class TestReductionByFactorsOfB:
    """Exact tables reduce g(n) / b^n by the factors of b only, and print
    their digits from a Decimal run of the kernel."""

    def assert_table(self, a, b, k, n_max):
        table = build_table(make_params(Fraction(a, b), k), Engine.RECURRENCE,
                            n_max)
        g, cumulative = scaled_values(a, b, k, n_max)
        for n in range(n_max + 1):
            for value, scaled in ((table.entries[n], g[n]),
                                  (table.cumulative[n], cumulative[n])):
                expected = Fraction(scaled, b ** n)
                assert (value.numerator, value.denominator) == (
                    expected.numerator, expected.denominator)
            # the factors each reduction removed from b^n, for the reduced
            # p's b, which the digits divide by
            power = table.params.p.denominator ** n
            assert table.shared[n] == (power // table.entries[n].denominator,
                                       power // table.cumulative[n].denominator)
        assert list(table.text_rows()) == [
            (n, _render(f), _render(c)) for n, f, c in table.rows()]
        return table

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(args=table_args())
    def test_property(self, args):
        self.assert_table(*args)

    def test_fibonacci_numerators(self):
        # p = 1/2, k = 2: g(n) is the Fibonacci number F(n - 1), and F(6m)
        # is divisible by 8 from m = 1 on, so the loop strips 2 repeatedly.
        table = self.assert_table(1, 2, 2, 300)
        assert table.entries[7] == Fraction(8, 2 ** 7) == Fraction(1, 16)
        assert _over_power(8, 2 ** 7, 2) == Fraction(1, 16)
        assert _over_power(3 * 2 ** 40, 2 ** 50, 2) == Fraction(3, 2 ** 10)

    def test_zeros_below_k(self):
        table = self.assert_table(7, 12, 6, 20)
        assert table.entries[:6] == (Fraction(0),) * 6
        assert list(table.text_rows())[:6] == [(n, "0", "0") for n in range(6)]

    @pytest.mark.parametrize("b", DENOMINATORS)
    def test_n_max_equals_k(self, b):
        table = self.assert_table(1, b, 4, 4)
        assert table.entries[-1] == Fraction(1, b) ** 4 == table.cumulative[-1]

    def test_over_power_on_single_values(self):
        assert _over_power(0, 10 ** 9, 10) == 0
        assert _over_power(7 ** 30, 10 ** 9, 10) == Fraction(7 ** 30, 10 ** 9)
        assert _over_power(2 ** 20 * 5 ** 3, 10 ** 9, 10) == Fraction(
            2 ** 11, 5 ** 6)


def fraction_terms_sum(terms_of, p, k, n):
    """The float value of an alternating sum whose terms are built from
    Fraction(p) and Fraction(fl(1 - p)), rounded once."""
    return float(sum(terms_of(Fraction(p), Fraction(1 - p), k, n), Fraction(0)))


def muselli_terms(p, q, k, n):
    terms = []
    for m in range(1, (n + 1) // (k + 1) + 1):
        i = n - m * k - 1
        bracket = gen_binomial(i, m - 2) + q * gen_binomial(i, m - 1)
        terms.append((-1) ** (m - 1) * p ** (m * k) * q ** (m - 1) * bracket)
    return terms


def closedform_terms(p, q, k, n):
    terms = [q * p ** k]
    for m in range(2, (n + 1) // (k + 1) + 1):
        terms.append((-1) ** (m - 1) * p ** (m * k) * q ** (m - 1)
                     * math.comb(n - m * k - 1, m - 2))
    for m in range(2, n // (k + 1) + 1):
        terms.append((-1) ** (m - 1) * p ** (m * k) * q ** m
                     * math.comb(n - m * k - 1, m - 1))
    return terms


class TestFloatAlternatingSums:
    def assert_same_bits(self, p, k, n):
        params = make_params(p, k)
        want = fraction_terms_sum(muselli_terms, p, k, n) if n >= k else 0.0
        assert pmf_muselli(params, n).hex() == want.hex()
        if n > 2 * k:
            want = fraction_terms_sum(closedform_terms, p, k, n)
            assert pmf_closedform(params, n).hex() == want.hex()

    def test_q_is_the_stored_float(self):
        # 1 - 0.212 is inexact in binary: summing with q = 1 - Fraction(p)
        # instead of Fraction(fl(1 - p)) moves this value by ulps.
        self.assert_same_bits(0.212, 2, 149)

    def test_degraded_flag_agrees(self):
        # sum |terms| is 3.9e37 times the result here: heavy cancellation
        # still rounds once
        self.assert_same_bits(0.5, 1, 100)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(min_value=0.01, max_value=0.99),
           k=st.integers(min_value=1, max_value=6),
           n=st.integers(min_value=0, max_value=200))
    def test_bits_and_flags_property(self, p, k, n):
        self.assert_same_bits(p, k, n)


def parse_int(text):
    """Decimal digits of any length, 4000 at a time (below str's limit)."""
    value = 0
    for start in range(0, len(text), 4000):
        chunk = text[start:start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_fraction(text):
    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den or "1"))


class TestHugeExactOutput:
    """0.37^n has 2n denominator digits: past 4300 from n = 2150 on."""

    def test_pmf_json(self, tmp_path):
        out = tmp_path / "pmf.json"
        # The digit limit (CPython >= 3.10.7) must not be lifted globally.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert main(["pmf", "--p", "0.37", "--k", "2", "--n", "2300",
                     "--format", "json", "--out", str(out)]) == 0
        assert limit() == before
        value = json.loads(out.read_text())["value"]
        assert len(value) > 4300
        params = make_params(Fraction(37, 100), 2)
        assert parse_fraction(value) == pmf_recurrence(params, 2300)

    def test_table_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--p", "0.37", "--k", "2", "--n-max", "2160",
                     "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            *_, last = csv.reader(handle)
        n, f, cumulative = last
        assert n == "2160" and len(f) > 4300
        series = recurrence_series(make_params(Fraction(37, 100), 2), 2160)
        assert parse_fraction(f) == series[-1]
        assert parse_fraction(cumulative) == sum(series)


def decimal_text(value):
    """A reduced Fraction as the CLI writes it, past str(int)'s digit limit."""
    num = str(decimal.Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{decimal.Decimal(value.denominator)}"


@pytest.fixture(scope="module")
def wide_table_texts():
    """(n, f, cumulative) texts of the exact table at p = 0.37, k = 2,
    n_max = 2500, rendered here from its entries: the last rows have about
    5000 denominator digits."""
    table = build_table(make_params(Fraction(37, 100), 2), Engine.RECURRENCE,
                        2500)
    rows, running = [], Fraction(0)
    for n, f in enumerate(table.entries):
        running += f
        rows.append((n, decimal_text(f), decimal_text(running)))
    assert len(rows[-1][1]) > 4300
    return rows


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_wide_exact_table_bytes(fmt, wide_table_texts, tmp_path):
    out = tmp_path / "table"
    assert main(["table", "--p", "0.37", "--k", "2", "--n-max", "2500",
                 "--mode", "exact", "--format", fmt, "--out", str(out)]) == 0
    if fmt == "json":
        expected = json.dumps({
            "p": "37/100", "k": 2, "mode": "exact", "engine": "recurrence",
            "n_max": 2500, "tail_bound": None,
            "entries": [{"n": n, "f": f, "cumulative": c}
                        for n, f, c in wide_table_texts]}, indent=2) + "\n"
    elif fmt == "csv":
        expected = "".join(f"{n},{f},{c}\n" for n, f, c in
                           [("n", "f", "cumulative"), *wide_table_texts])
    else:
        expected = "".join(
            ["pmf table for p=37/100, k=2 (engine=recurrence, mode=exact)\n"]
            + [f"  n={n:<5d} f={f:<24} cumulative={c}\n"
               for n, f, c in wide_table_texts])
    assert out.read_text() == expected


def test_gof_bins_follow_recurrence_series():
    params = make_params(0.45, 2)
    summary = run_simulation(SimConfig(params=params, trials=4000, seed=9))
    report = gof_report(summary, params)
    completed = summary.trials - summary.truncated_count
    single = report.bins[:-1]
    series = recurrence_series(params, params.k + len(single))
    assert [label for label, _, _ in single] == [
        str(n) for n in range(params.k, params.k + len(single))]
    for label, _, expected in single:
        assert expected == completed * series[int(label)]
