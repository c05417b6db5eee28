from fractions import Fraction

import pytest

from geomk.numerics import DomainError, Mode
from geomk.params import as_float_params, make_params, qpk

EPS = 2.0 ** -52


class TestMakeParams:
    def test_exact_basics(self):
        params = make_params(Fraction(1, 2), 2)
        assert params.p == Fraction(1, 2)
        assert params.q == Fraction(1, 2)
        assert params.k == 2
        assert params.mode is Mode.EXACT
        assert not params.degenerate  # k/(k+1) = 2/3

    def test_degenerate_k1(self):
        assert make_params(Fraction(1, 2), 1).degenerate

    @pytest.mark.parametrize("p,k", [(Fraction(2, 3), 2), (Fraction(3, 4), 3),
                                     (Fraction(5, 6), 5)])
    def test_degenerate_exact_family(self, p, k):
        assert make_params(p, k).degenerate

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(3, 2),
                                     Fraction(-1, 2), 0.0, 1.0, 1.5])
    def test_open_interval(self, bad):
        with pytest.raises(DomainError):
            make_params(bad, 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_positive(self, k):
        with pytest.raises(DomainError):
            make_params(Fraction(1, 2), k)

    def test_exact_p_plus_q_is_one(self):
        for num in range(1, 12):
            for den in range(num + 1, 14):
                params = make_params(Fraction(num, den), 3)
                assert params.p + params.q == 1

    def test_float_p_plus_q_near_one(self):
        for p in (0.1, 0.2, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 0.999):
            params = make_params(p, 2)
            assert params.mode is Mode.FLOAT
            assert abs(params.p + params.q - 1.0) <= EPS

    def test_float_degeneracy_tolerance(self):
        assert make_params(2 / 3, 2).degenerate
        assert make_params(2 / 3 + 1e-13, 2).degenerate
        assert not make_params(2 / 3 + 1e-9, 2).degenerate


class TestQpk:
    @pytest.mark.parametrize("p,k,expected", [
        (Fraction(1, 2), 2, Fraction(1, 8)),
        (Fraction(1, 2), 1, Fraction(1, 4)),
        (Fraction(1, 3), 1, Fraction(2, 9)),
    ])
    def test_values(self, p, k, expected):
        assert qpk(make_params(p, k)) == expected


def test_as_float_params():
    exact = make_params(Fraction(1, 3), 4)
    twin = as_float_params(exact)
    assert twin.mode is Mode.FLOAT
    assert twin.p == float(Fraction(1, 3))
    assert twin.k == 4
    already = make_params(0.25, 2)
    assert as_float_params(already) is already
