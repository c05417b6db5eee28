import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomk.numerics import (Mode, ParseError, falling_factorial, gen_binomial,
                            parse_scalar)


class TestGenBinomial:
    @pytest.mark.parametrize("i,j,expected", [
        (-1, -1, 1),    # C(i,i) = 1 even for negative i
        (-1, 0, 0),     # j > i forces 0 even at j = 0
        (5, 2, 10),
        (3, 7, 0),
        (-3, -3, 1),
        (-3, -4, 0),    # j < 0 and j != i
        (-3, -2, 0),
        (0, 0, 1),
        (7, 0, 1),
    ])
    def test_examples(self, i, j, expected):
        assert gen_binomial(i, j) == expected

    def test_column_zero(self):
        for i in range(0, 20):
            assert gen_binomial(i, 0) == 1
        for i in range(-20, 0):
            assert gen_binomial(i, 0) == 0

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=60))
    def test_pascal_rule(self, i, j):
        if j <= i:
            assert gen_binomial(i, j) == gen_binomial(i - 1, j - 1) + gen_binomial(i - 1, j)

    def test_matches_math_comb_on_ordinary_range(self):
        for i in range(0, 25):
            for j in range(0, i + 1):
                assert gen_binomial(i, j) == math.comb(i, j)


class TestParseScalar:
    def test_fraction_literal_always_exact(self):
        assert parse_scalar("1/2", Mode.FLOAT) == Fraction(1, 2)
        assert parse_scalar("1/2", Mode.EXACT) == Fraction(1, 2)

    def test_decimal_exact_mode_is_base10(self):
        assert parse_scalar("0.25", Mode.EXACT) == Fraction(1, 4)
        # no float round-trip: 0.3 must mean 3/10
        assert parse_scalar("0.3", Mode.EXACT) == Fraction(3, 10)
        assert parse_scalar("0.3", Mode.EXACT) != Fraction(0.3)

    def test_decimal_float_mode(self):
        value = parse_scalar("0.25", Mode.FLOAT)
        assert isinstance(value, float) and value == 0.25

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="3/0"):
            parse_scalar("3/0")

    @pytest.mark.parametrize("text", ["abc", "1/2/3", "0..5", "", "1/x"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    @given(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
           st.integers(min_value=1, max_value=10 ** 9))
    def test_fraction_roundtrip(self, num, den):
        assert parse_scalar(f"{num}/{den}") == Fraction(num, den)


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(3, 7) == 0
        assert falling_factorial(10, 10) == math.factorial(10)
