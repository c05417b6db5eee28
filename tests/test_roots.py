import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk.numerics import ModeError, SolverError
from geomk.params import make_params
from geomk.roots import (RootSet, _branch_starts, _principal_root,
                         aux_poly_coeffs, aux_poly_eval, certify_roots,
                         find_roots, pmf_envelope, spectral_coefficients)

P_GRID = (0.2, 0.5, 0.8)
GOLDEN_PLUS = (1 + math.sqrt(5)) / 4
GOLDEN_MINUS = (1 - math.sqrt(5)) / 4


def _largest_k(p, k_cap, floor):
    """Largest k <= k_cap with q p^k >= floor for the float params of p."""
    k = 1
    while k < k_cap:
        params = make_params(p, k + 1)
        if params.q * params.p ** (k + 1) < floor:
            break
        k += 1
    return k


@st.composite
def solvable_pairs(draw):
    """(p, k) with p in [0.02, 0.98], k in [1, 120] and q p^k >= 1e-12."""
    p = draw(st.floats(min_value=0.02, max_value=0.98))
    return p, draw(st.integers(min_value=1, max_value=_largest_k(p, 120, 1e-12)))


class TestAuxPoly:
    def test_linear_case(self):
        params = make_params(0.5, 1)
        assert aux_poly_eval(params, 0.5) == 0  # single root at q

    def test_quadratic_at_one(self):
        params = make_params(0.5, 2)
        assert abs(aux_poly_eval(params, 1.0) - 0.25) < 1e-15

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("k", range(1, 9))
    def test_value_at_one_is_pk(self, p, k):
        # 1 - q(1 + p + ... + p^{k-1}) collapses to p^k
        params = make_params(p, k)
        assert abs(aux_poly_eval(params, 1.0) - p ** k) < 1e-13


class TestFindRoots:
    def test_k1_closed_form(self):
        root_set = find_roots(make_params(0.3, 1))
        assert root_set.roots == (complex(0.7, 0.0),)
        assert root_set.principal_index == 0

    def test_k2_golden_values(self):
        root_set = find_roots(make_params(0.5, 2))
        assert abs(root_set.roots[0] - GOLDEN_PLUS) <= 1e-12
        assert abs(root_set.roots[1] - GOLDEN_MINUS) <= 1e-12

    def test_k2_identity_spot(self):
        root_set = find_roots(make_params(0.5, 2))
        lam = root_set.roots[0]
        assert abs(lam ** 2 * (1 - lam) - 0.125) <= 1e-12

    def test_exact_mode_rejected(self):
        with pytest.raises(ModeError):
            find_roots(make_params(Fraction(1, 2), 2))

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("k", range(1, 9))
    def test_invariants(self, p, k):
        params = make_params(p, k)
        root_set = find_roots(params)
        assert len(root_set.roots) == k
        assert max(r for r in root_set.residuals) <= 1e-12
        assert max(abs(z) for z in root_set.roots) < 1.0
        reals = [z for z in root_set.roots if z.imag == 0 and z.real > 0]
        assert len(reals) == 1
        coeffs = aux_poly_coeffs(params)
        for z in root_set.roots:
            acc = 0j
            for c in coeffs:
                acc = acc * z + c
            assert abs(acc) <= 1e-13 * max(1.0, max(abs(c) for c in coeffs))

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("k", range(1, 9))
    def test_vieta(self, p, k):
        params = make_params(p, k)
        roots = find_roots(params).roots
        total = sum(roots)
        prod = 1 + 0j
        for z in roots:
            prod *= z
        q = 1 - p
        assert abs(total - q) <= 1e-12
        assert abs(prod - (-1) ** (k - 1) * q * p ** (k - 1)) <= 1e-12

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("k", range(2, 9))
    def test_against_numpy_roots(self, p, k):
        # independent oracle: companion-matrix eigenvalues
        params = make_params(p, k)
        ours = sorted(find_roots(params).roots, key=lambda z: (z.real, z.imag))
        theirs = sorted(np.roots(aux_poly_coeffs(params)),
                        key=lambda z: (z.real, z.imag))
        for a, b in zip(ours, theirs):
            assert abs(a - complex(b)) <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=solvable_pairs())
    def test_solves_and_certifies_property(self, pair):
        p, k = pair
        params = make_params(p, k)
        root_set = find_roots(params)
        roots = root_set.roots
        assert certify_roots(root_set, params).passed
        # Companion-matrix eigenvalues drift by up to ~3e-7 at k ~ 100, so
        # two Newton steps on numpy's own polyval sharpen the oracle first.
        coeffs = np.array(aux_poly_coeffs(params))
        theirs = np.roots(coeffs)
        for _ in range(2):
            theirs = theirs - np.polyval(coeffs, theirs) / np.polyval(
                np.polyder(coeffs), theirs)
        theirs = [complex(z) for z in theirs]
        assert len(roots) == len(theirs) == k
        for z in roots:
            assert min(abs(z - w) for w in theirs) <= 1e-9
        for w in theirs:
            assert min(abs(z - w) for z in roots) <= 1e-9

    @pytest.mark.parametrize("p,k_last", [(0.3, 28), (0.5, 48), (0.9, 305)])
    def test_large_k_down_to_q_pk_1e_15(self, p, k_last):
        # k_last is the last k with q p^k >= 1e-15
        assert _largest_k(p, 1000, 1e-15) == k_last
        for k in (k_last // 2, k_last - 1, k_last):
            params = make_params(p, k)
            root_set = find_roots(params)
            assert len(root_set.roots) == k
            assert certify_roots(root_set, params).passed

    def test_ordering_principal_first_then_descending(self):
        root_set = find_roots(make_params(0.5, 6))
        rest = root_set.roots[1:]
        keys = [(-z.real, -z.imag) for z in rest]
        assert keys == sorted(keys)


class TestCertify:
    def test_pass(self):
        params = make_params(0.5, 2)
        cert = certify_roots(find_roots(params), params)
        assert cert.passed
        assert cert.positive_real_count == 1
        assert abs(cert.min_separation - math.sqrt(5) / 2) < 1e-12
        assert max(cert.identity_residuals) <= 1e-12

    def test_perturbed_set_fails(self):
        params = make_params(0.5, 2)
        good = find_roots(params)
        bad_roots = (good.roots[0] + 1e-6,) + good.roots[1:]
        bad = RootSet(roots=bad_roots, principal_index=0,
                      residuals=good.residuals, degenerate=good.degenerate)
        cert = certify_roots(bad, params)
        assert not cert.passed
        # residual scales like |dA/dz| * 1e-6
        assert cert.identity_residuals[0] > 1e-8

    def test_report_dict_shape(self):
        params = make_params(0.2, 4)
        cert = certify_roots(find_roots(params), params)
        payload = cert.to_dict()
        assert set(payload) == {"identity_residuals", "poly_residuals",
                                "min_separation", "positive_real_count",
                                "max_magnitude", "degenerate", "passed",
                                "warnings"}

    def test_magnitude_near_one_passes_with_warning(self):
        # k = 1 with tiny p puts the single root inside [1 - 1e-9, 1)
        params = make_params(5e-10, 1)
        cert = certify_roots(find_roots(params), params)
        assert cert.passed
        assert cert.warnings and "within" in cert.warnings[0]


class TestUnderflow:
    """Below the normal double range p^k carries no precision near the
    roots, so neither the solver nor the certificate may claim success."""

    def test_solver_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(SolverError, match="underflows"):
            find_roots(make_params(0.09, 300))
        assert time.perf_counter() - start < 1.0

    def test_certificate_rejects_vacuous_identity(self):
        # The solver's own starting points: z^300 underflows to 0 at every
        # one of them, so the identity check alone compares 0 with 0.
        params = make_params(0.06, 300)
        starts = ([complex(_principal_root(aux_poly_coeffs(params)), 0.0)]
                  + _branch_starts(0.06, 0.94, 300))
        root_set = RootSet(roots=tuple(starts), principal_index=0,
                           residuals=(0.0,) * 300,
                           degenerate=params.degenerate)
        cert = certify_roots(root_set, params)
        assert max(cert.identity_residuals) <= 1e-12
        assert not cert.passed
        assert any("underflows" in w for w in cert.warnings)


class TestSpectralHelpers:
    def test_weights_sum_reproduces_pmf_at_k(self):
        params = make_params(0.3, 3)
        root_set = find_roots(params)
        coeffs = spectral_coefficients(params, root_set)
        assert abs(sum(coeffs).real - 0.3 ** 3) <= 1e-12

    def test_degenerate_weights(self):
        params = make_params(2 / 3, 2)
        root_set = find_roots(params)
        coeffs = spectral_coefficients(params, root_set)
        front = (2 / 3) ** 2 / 3
        assert coeffs[0] == pytest.approx(2 * front)
        assert coeffs[1] == pytest.approx(front)

    def test_envelope_dominates_pmf(self):
        from geomk.pmf import recurrence_series
        params = make_params(0.4, 3)
        root_set = find_roots(params)
        env_a, env_m = pmf_envelope(params, root_set)
        series = recurrence_series(params, 60)
        for n in range(3, 61):
            assert series[n] <= env_a * env_m ** n * (1 + 1e-9)


def test_solver_error_carries_residuals():
    err = SolverError("boom", residuals=[1.0, 2.0])
    assert err.residuals == [1.0, 2.0]
