import cmath
import math
import re
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk import roots as roots_mod
from geomk.numerics import ModeError, SolverError
from geomk.params import make_params, qpk
from geomk.roots import (RootSet, _principal_root, aux_poly_coeffs,
                         aux_poly_eval, certify_roots, find_roots,
                         spectral_coefficients)

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


class TestBranches:
    """Root m is solved on branch m of z^k (1 - z) = q p^k, and branch
    k - m holds its exact conjugate."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(p=st.floats(min_value=0.01, max_value=0.99),
           k=st.integers(min_value=1, max_value=160))
    def test_conjugate_pairs_one_root_per_branch(self, p, k):
        params = make_params(p, k)
        try:
            root_set = find_roots(params)
        except SolverError:
            return
        roots = root_set.roots
        assert Counter(roots) == Counter(z.conjugate() for z in roots)
        branches = sorted(round(k * cmath.phase(z) / (2 * math.pi)) % k
                          for z in roots)
        assert branches == list(range(k))
        assert root_set.certificate == certify_roots(root_set, params)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(roots_mod, "MAX_ITER", 1)
        with pytest.raises(SolverError, match=re.escape(
                "branch Newton iteration did not converge within 1 "
                "iterations for (p=0.5, k=3, float)")):
            find_roots(make_params(0.5, 3))


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
                      residuals=good.residuals)
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


def _doctored(monkeypatch, doctor, relaxed=()):
    """Make find_roots solve doctor(roots) in place of its unsorted roots,
    with the tolerances named in relaxed set to infinity so that a later
    gate is reached.  Returns the list the doctored roots are appended to."""
    original, made = roots_mod._unsorted_roots, []

    def unsorted_roots(params, coeffs):
        made.extend(doctor(original(params, coeffs)))
        return made

    monkeypatch.setattr(roots_mod, "_unsorted_roots", unsorted_roots)
    for name in relaxed:
        monkeypatch.setattr(roots_mod, name, math.inf)
    return made


class TestOneCertificate:
    """find_roots returns a root set exactly when certify_roots passes it,
    and otherwise raises the message of the first gate the set fails."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=st.floats(min_value=0.01, max_value=0.99),
           k=st.integers(min_value=1, max_value=80))
    def test_returns_only_certified_sets(self, p, k):
        params = make_params(p, k)
        try:
            root_set = find_roots(params)
        except SolverError:
            return
        assert certify_roots(root_set, params).passed

    # (relaxed tolerances, doctor, message) at p = 0.5, k = 3, whose roots
    # are about 0.9196 and -0.2098 +- 0.3031i; gates in find_roots' order
    GATES = [
        ((), lambda z: [z[0] + 1e-6] + z[1:],
         r"scaled polynomial residual \d\.\d{3}e-\d\d exceeds 1e-14"),
        (("POLISH_TOL",), lambda z: [z[0] + 1e-6] + z[1:],
         r"root identity residual \d\.\d{3}e-\d\d exceeds 1e-12"),
        (("POLISH_TOL", "IDENTITY_TOL"), lambda z: [z[0], -1.5, z[2]],
         r"root magnitude >= 1"),
        (("POLISH_TOL", "IDENTITY_TOL"), lambda z: [z[0], 0.3 + 0j, -0.3 + 0j],
         r"expected exactly one positive real root, found 2"),
        (("POLISH_TOL", "IDENTITY_TOL"),
         lambda z: [z[0], -0.3 + 0j, -0.3 + 1e-12 + 0j],
         r"two roots closer than 1e-09"),
    ]

    @pytest.mark.parametrize("relaxed,doctor,message", GATES)
    def test_each_gate_names_itself(self, monkeypatch, relaxed, doctor,
                                    message):
        params = make_params(0.5, 3)
        roots = _doctored(monkeypatch, doctor, relaxed)
        with pytest.raises(SolverError) as caught:
            find_roots(params)
        assert re.fullmatch(message + r" for \(p=0\.5, k=3, float\)",
                            str(caught.value))
        # the residuals carried are the certificate's, in the sorted order
        assert caught.value.residuals == [
            roots_mod._identity_residual(z, params)
            for z in [roots[0]] + sorted(roots[1:],
                                         key=lambda z: (-z.real, -z.imag))]

    @pytest.mark.parametrize("p,k,message", [
        (0.5, 53, "root magnitude >= 1 for (p=0.5, k=53, float)"),
        (0.09, 300, "p^k = 1.87e-314 underflows the normal double range, so "
                    "float roots cannot be certified for (p=0.09, k=300, float)"),
    ])
    def test_failure_texts(self, p, k, message):
        with pytest.raises(SolverError) as caught:
            find_roots(make_params(p, k))
        assert str(caught.value) == message

    def test_polynomial_gate_is_part_of_the_certificate(self):
        # 1e-13 off the principal root: |A(z)| ~ 1.1e-13 fails POLISH_TOL,
        # while the identity residual |z - p| |A(z)| ~ 3.5e-14 passes
        params = make_params(0.5, 2)
        good = find_roots(params)
        bad = RootSet(roots=(good.roots[0] + 1e-13,) + good.roots[1:],
                      principal_index=0, residuals=good.residuals)
        cert = certify_roots(bad, params)
        assert max(cert.identity_residuals) <= 1e-12
        assert max(cert.poly_residuals) > 1e-14
        assert not cert.passed


class TestNanFailsEveryGate:
    """max() and min() drop a nan anywhere but first, so each gate must read
    a nan in its values and fail on it.  The nan is last in each case, at
    p = 0.5, k = 3."""

    PARAMS = make_params(0.5, 3)

    @pytest.mark.parametrize("field,message", [
        ("poly_residuals", "scaled polynomial residual nan exceeds 1e-14"),
        ("identity_residuals", "root identity residual nan exceeds 1e-12"),
    ])
    def test_residual_gates(self, field, message):
        good = find_roots(self.PARAMS).certificate
        values = getattr(good, field)[:-1] + (math.nan,)
        cert = replace(good, **{field: values})
        assert list(roots_mod._failures(cert, self.PARAMS)) == [
            f"{message} for (p=0.5, k=3, float)"]

    @pytest.mark.parametrize("field,message", [
        ("max_magnitude", "root magnitude >= 1"),
        ("min_separation", "two roots closer than 1e-09"),
    ])
    def test_root_gates(self, field, message):
        good = find_roots(self.PARAMS)
        bad = RootSet(roots=good.roots[:-1] + (complex(math.nan, 0.0),),
                      principal_index=0, residuals=good.residuals)
        cert = certify_roots(bad, self.PARAMS)
        assert math.isnan(getattr(cert, field))
        assert (f"{message} for (p=0.5, k=3, float)"
                in roots_mod._failures(cert, self.PARAMS))
        assert not cert.passed


class TestUnderflow:
    """Below the normal double range p^k carries no precision near the
    roots, so neither the solver nor the certificate may claim success."""

    def test_solver_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(SolverError, match="underflows"):
            find_roots(make_params(0.09, 300))
        assert time.perf_counter() - start < 1.0

    def test_certificate_rejects_vacuous_identity(self):
        # The solver's own starting points w_m = e^(2 pi i m / k) p: z^300
        # underflows to 0 at every one of them, so the identity check alone
        # compares 0 with 0.
        params = make_params(0.06, 300)
        starts = ([complex(_principal_root(aux_poly_coeffs(params)), 0.0)]
                  + [cmath.exp(2j * cmath.pi * m / 300) * 0.06
                     for m in range(1, 300)])
        root_set = RootSet(roots=tuple(starts), principal_index=0,
                           residuals=(0.0,) * 300)
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

    @pytest.mark.parametrize("p,k", [
        (p, k) for p in (0.2, 0.37, 0.5, 0.8, 0.95)
        for k in (1, 2, 3, 5, 8, 13, 20) if abs(p - k / (k + 1)) >= 1e-3])
    def test_residues_equal_fellers_form(self, p, k):
        # A'(z) = z^(k-1) ((k+1) z - k) / (z - p) at a root z of A, so the
        # residue p^k z^(k-1) / A'(z) is Feller's (p^k/(k+1)) (z - p) /
        # (z - k/(k+1)) wherever the latter is well-conditioned
        params = make_params(p, k)
        root_set = find_roots(params)
        residues = spectral_coefficients(params, root_set)
        for c, z in zip(residues, root_set.roots):
            feller = p ** k / (k + 1) * (z - p) / (z - k / (k + 1))
            assert abs(c - feller) <= 1e-12 * abs(feller)

    def test_degenerate_weights(self):
        params = make_params(2 / 3, 2)
        root_set = find_roots(params)
        coeffs = spectral_coefficients(params, root_set)
        front = (2 / 3) ** 2 / 3
        assert coeffs[0] == pytest.approx(2 * front)
        assert coeffs[1] == pytest.approx(front)

    @pytest.mark.parametrize("p,k", [
        (Fraction(1, 2), 2), (Fraction(2, 3), 2), (Fraction(1, 3), 4),
        (Fraction(3, 4), 6), (Fraction(37, 100), 3), (Fraction(9, 10), 8)])
    def test_tail_estimate_is_the_tail_at_large_n(self, p, k):
        # against P(N > n) = f(n+k+1) / (q p^k), exact; (2/3, 2) is degenerate
        from geomk.pmf import recurrence_series
        params = make_params(p, k)
        tail = recurrence_series(params, 100 + k + 1)[-1] / qpk(params)
        assert roots_mod.tail_estimate(params, 100) == pytest.approx(
            float(tail), rel=1e-6)


def test_solver_error_carries_residuals():
    err = SolverError("boom", residuals=[1.0, 2.0])
    assert err.residuals == [1.0, 2.0]
